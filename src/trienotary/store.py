"""Content-addressed object storage plus the consistency-proof index.

The store stands in for the publicly accessible storage that holds trie
nodes and consistency proofs, and treats it as untrusted. Every object is
addressed by the hash of its content, and every read re-verifies that
invariant, so corruption surfaces as an integrity error, never as silently
wrong bytes. Proofs are discovered through a (ledger key, round) index
mapping to the address of the proof published for that notarization round;
a slot, once registered, never points elsewhere.

``ObjectStore`` is the core: it writes each of those rules once, and a
backend only holds raw bytes. Two backends share it: an in-memory map for
tests and simulation, and a directory holding one append-only pack file
``objects.pack`` plus a newline-delimited ``proofs.idx`` for on-disk
deployments. A pack record is ``address || u32 big-endian length ||
content``; the first record for an address wins, and a record that runs
past the end of the file is a torn tail, ignored by readers and cut off by
the next write. One process writes a directory at a time, and no other
process reads it while it does.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from pathlib import Path

from .crypto import HashAlg, SHA256
from .errors import IntegrityError, MalformedArtifactError, NotFoundError, ProofIndexConflictError

PACK_NAME = "objects.pack"
PROOF_INDEX_NAME = "proofs.idx"
_LENGTH_BYTES = 4  # u32 big-endian content length after each record's address
_LENGTH_MASK = (1 << 32) - 1


class ObjectStore:
    """The store core: addressing, the read check, the proof-index rule and
    the damage hook, for every backend.

    - ``put`` stores content under its hash and writes only an address not
      yet stored; ``puts`` counts every call.
    - ``get`` raises NotFoundError on a miss and IntegrityError when the
      stored bytes no longer hash to their address.
    - A (ledger key, round) slot takes one proof address: an identical
      repeat is a no-op, another address raises ProofIndexConflictError. A
      new entry is persisted before it is recorded, so a failed write
      leaves ``find_proof`` returning None.

    A backend keeps ``_objects``, a dict keyed by every stored address that
    the core looks up afresh at each call, and supplies the primitives:

    - ``_read(address)``: the raw stored bytes; KeyError on a miss;
    - ``_write(address, content)``: store a new address;
    - ``_overwrite(address, content)``: replace stored bytes with a damaged
      copy of the same length;
    - ``_persist_proof(ledger_key, round_seq, address)``: make a new index
      entry durable, or raise.
    """

    def __init__(self, alg: HashAlg):
        self.alg = alg
        self._proofs: dict[tuple[bytes, int], bytes] = {}
        self.puts = 0

    def put(self, content: bytes) -> bytes:
        """Store ``content``; returns its address (idempotent)."""
        self.puts += 1
        address = self.alg.hash(content)
        if address not in self._objects:
            self._write(address, content)
        return address

    def get(self, address: bytes) -> bytes:
        """Content stored at ``address``; raises NotFoundError / IntegrityError."""
        try:
            content = self._read(address)
        except KeyError:
            raise NotFoundError(f"no object at {address.hex()}") from None
        if self.alg.hash(content) != address:
            raise IntegrityError(f"object at {address.hex()} fails verification")
        return content

    def __contains__(self, address: bytes) -> bool:
        try:
            self.get(address)
        except (NotFoundError, IntegrityError):
            return False
        return True

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Every stored (address, content) pair in ascending address order.

        Contents are yielded as stored, without verification, so corrupted
        objects are included."""
        for address in sorted(self._objects):
            yield address, self._read(address)

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        """Register the proof published for (ledger, round)."""
        slot = (ledger_key, round_seq)
        existing = self._proofs.get(slot)
        if existing is None:
            self._persist_proof(ledger_key, round_seq, address)
            self._proofs[slot] = address
        elif existing != address:
            raise ProofIndexConflictError(
                f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
            )

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        """Address of the proof for (ledger, round), or None."""
        return self._proofs.get((ledger_key, round_seq))

    def corrupt(self, address: bytes) -> None:
        """Test hook: damage the object at ``address`` so ``get`` fails its
        check; raises NotFoundError if nothing is stored there and
        ValueError if the object is empty, having no byte to damage. Damaged
        bytes are left alone, so a second call cannot undo it."""
        if address not in self._objects:
            raise NotFoundError(f"no object at {address.hex()}")
        content = self._read(address)
        if not content:
            raise ValueError(f"object at {address.hex()} is empty; nothing to corrupt")
        if self.alg.hash(content) == address:
            self._overwrite(address, bytes([content[0] ^ 0xFF]) + content[1:])


class MemoryStore(ObjectStore):
    """Dict-backed store for tests and simulation."""

    def __init__(self, alg: HashAlg = SHA256):
        super().__init__(alg)
        self._objects: dict[bytes, bytes] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def _read(self, address: bytes) -> bytes:
        return self._objects[address]

    def _write(self, address: bytes, content: bytes) -> None:
        self._objects[address] = content

    _overwrite = _write  # the damaged copy replaces the entry

    def _persist_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        """Nothing to persist: the index is the core's ``_proofs``."""


class DirectoryStore(ObjectStore):
    """Filesystem store: the ``objects.pack`` record file plus ``proofs.idx``.

    Opening reads every record header of the pack into an address ->
    ``offset << 32 | length`` map; a read is one ``pread`` at the offset.
    Both files are opened for appending on the first write, not before, so
    a read-only use such as an audit never edits them. Index lines are
    ``<hex ledger key> <decimal round> <hex address>`` with LF endings,
    appended in registration order. Nothing is fsynced.
    """

    def __init__(self, root, alg: HashAlg = SHA256):
        super().__init__(alg)
        self.root = Path(root)
        self._pack_path = self.root / PACK_NAME
        self._index_path = self.root / PROOF_INDEX_NAME
        self._objects: dict[bytes, int] = {}  # address -> offset << 32 | length
        self._end = 0  # end of the last complete record
        self._reader = self._pack_writer = self._index_writer = None
        if self._index_path.exists():
            for number, line in enumerate(self._index_path.read_bytes().splitlines(), 1):
                try:
                    key_hex, round_str, addr_hex = line.decode("ascii").split(" ")
                    slot = (bytes.fromhex(key_hex), int(round_str))
                    address = bytes.fromhex(addr_hex)
                except ValueError:
                    raise MalformedArtifactError(
                        f"{self._index_path}:{number}: malformed proof index entry"
                    ) from None
                if self._proofs.setdefault(slot, address) != address:
                    raise MalformedArtifactError(
                        f"{self._index_path}:{number}: conflicting proof index entry"
                    )
        if self._pack_path.exists():
            self._reader = open(self._pack_path, "rb")
            self._scan()

    def _scan(self) -> None:
        """Index every complete record; stop at a torn tail."""
        address_len = self.alg.output_len
        header_len = address_len + _LENGTH_BYTES
        size = os.fstat(self._reader.fileno()).st_size
        while self._end + header_len <= size:
            header = self._reader.read(header_len)
            length = int.from_bytes(header[address_len:], "big")
            body = self._end + header_len
            if body + length > size:
                break
            self._objects.setdefault(header[:address_len], body << 32 | length)
            self._end = body + length
            self._reader.seek(self._end)

    def _open_writers(self) -> None:
        """Open both files for appending, cutting off a torn pack tail first."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._pack_writer = open(self._pack_path, "ab", buffering=0)
        self._index_writer = open(self._index_path, "ab", buffering=0)
        fd = self._pack_writer.fileno()
        if os.fstat(fd).st_size > self._end:
            os.ftruncate(fd, self._end)
        if self._reader is None:
            self._reader = open(self._pack_path, "rb")

    def _read(self, address: bytes) -> bytes:
        entry = self._objects[address]
        return os.pread(self._reader.fileno(), entry & _LENGTH_MASK, entry >> 32)

    def _write(self, address: bytes, content: bytes) -> None:
        if self._pack_writer is None:
            self._open_writers()
        length = len(content)
        record = address + length.to_bytes(_LENGTH_BYTES, "big") + content
        if self._pack_writer.write(record) != len(record):  # a full disk
            os.ftruncate(self._pack_writer.fileno(), self._end)
            raise OSError(f"short write to {self._pack_path}")
        body = self._end + len(record) - length
        self._objects[address] = body << 32 | length
        self._end += len(record)

    def _overwrite(self, address: bytes, content: bytes) -> None:
        # pwrite on an O_APPEND descriptor appends on Linux, so the damaged
        # copy goes through a descriptor of its own.
        fd = os.open(self._pack_path, os.O_WRONLY)
        try:
            os.pwrite(fd, content, self._objects[address] >> 32)
        finally:
            os.close(fd)

    def _persist_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        if self._index_writer is None:
            self._open_writers()
        line = f"{ledger_key.hex()} {round_seq} {address.hex()}\n".encode("ascii")
        if self._index_writer.write(line) != len(line):  # a full disk
            # The torn line makes the next open raise MalformedArtifactError.
            raise OSError(f"short write to {self._index_path}")

    def close(self) -> None:
        """Close the pack and index files; the store is not used afterwards."""
        for handle in (self._reader, self._pack_writer, self._index_writer):
            if handle is not None:
                handle.close()
        self._reader = self._pack_writer = self._index_writer = None

    def __enter__(self) -> DirectoryStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
