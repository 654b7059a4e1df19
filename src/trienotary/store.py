"""Content-addressed object storage plus the consistency-proof index.

The store stands in for the publicly accessible storage that holds trie
nodes and consistency proofs. Every object is addressed by the hash of its
content, and reads re-verify that invariant, so the storage itself is
untrusted: corruption surfaces as an integrity error, never as silently
wrong bytes.

Proofs are discovered through a (ledger key, round) index mapping to the
address of the proof published for that notarization round.

Two backends share the interface: an in-memory map for tests and
simulation, and a directory holding one append-only pack file
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
    """Interface shared by the storage backends."""

    alg: HashAlg

    def put(self, content: bytes) -> bytes:
        """Store ``content``; returns its address (idempotent)."""
        raise NotImplementedError

    def get(self, address: bytes) -> bytes:
        """Content stored at ``address``; raises NotFoundError / IntegrityError."""
        raise NotImplementedError

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
        raise NotImplementedError

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        """Register the proof published for (ledger, round)."""
        raise NotImplementedError

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        """Address of the proof for (ledger, round), or None."""
        raise NotImplementedError

    def corrupt(self, address: bytes) -> None:
        """Test hook: damage the object at ``address`` so ``get`` fails its
        check; raises NotFoundError if nothing is stored there and
        ValueError if the object is empty, having no byte to damage. Damaged
        bytes are left alone, so a second call cannot undo it."""
        raise NotImplementedError


def _check_damageable(address: bytes, content: bytes) -> None:
    if not content:
        raise ValueError(f"object at {address.hex()} is empty; nothing to corrupt")


class MemoryStore(ObjectStore):
    """Dict-backed store; ``puts`` counts write calls for sharing assertions."""

    def __init__(self, alg: HashAlg = SHA256):
        self.alg = alg
        self._objects: dict[bytes, bytes] = {}
        self._proofs: dict[tuple[bytes, int], bytes] = {}
        self.puts = 0

    def __len__(self) -> int:
        return len(self._objects)

    def put(self, content: bytes) -> bytes:
        self.puts += 1
        address = self.alg.hash(content)
        self._objects.setdefault(address, content)
        return address

    def get(self, address: bytes) -> bytes:
        try:
            content = self._objects[address]
        except KeyError:
            raise NotFoundError(f"no object at {address.hex()}") from None
        if self.alg.hash(content) != address:
            raise IntegrityError(f"object at {address.hex()} fails verification")
        return content

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(sorted(self._objects.items()))

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        slot = (ledger_key, round_seq)
        existing = self._proofs.get(slot)
        if existing is not None and existing != address:
            raise ProofIndexConflictError(
                f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
            )
        self._proofs[slot] = address

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        return self._proofs.get((ledger_key, round_seq))

    def corrupt(self, address: bytes) -> None:
        content = self._objects.get(address)
        if content is None:
            raise NotFoundError(f"no object at {address.hex()}")
        _check_damageable(address, content)
        if self.alg.hash(content) == address:
            self._objects[address] = bytes([content[0] ^ 0xFF]) + content[1:]


class DirectoryStore(ObjectStore):
    """Filesystem store: the ``objects.pack`` record file plus ``proofs.idx``.

    Opening reads every record header of the pack into an address ->
    ``offset << 32 | length`` map; a ``get`` is one ``pread`` at the offset.
    Both files are opened for appending on the first write, not before, so
    a read-only use such as an audit never edits them. Index lines are
    ``<hex ledger key> <decimal round> <hex address>`` with LF endings,
    appended in registration order. Nothing is fsynced.
    """

    def __init__(self, root, alg: HashAlg = SHA256):
        self.alg = alg
        self.root = Path(root)
        self._pack_path = self.root / PACK_NAME
        self._index_path = self.root / PROOF_INDEX_NAME
        self._offsets: dict[bytes, int] = {}
        self._end = 0  # end of the last complete record
        self._reader = self._pack_writer = self._index_writer = None
        self._proofs: dict[tuple[bytes, int], bytes] = {}
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
            self._offsets.setdefault(header[:address_len], body << 32 | length)
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

    def put(self, content: bytes) -> bytes:
        address = self.alg.hash(content)
        if address not in self._offsets:
            if self._pack_writer is None:
                self._open_writers()
            length = len(content)
            record = address + length.to_bytes(_LENGTH_BYTES, "big") + content
            if self._pack_writer.write(record) != len(record):  # a full disk
                os.ftruncate(self._pack_writer.fileno(), self._end)
                raise OSError(f"short write to {self._pack_path}")
            body = self._end + len(record) - length
            self._offsets[address] = body << 32 | length
            self._end += len(record)
        return address

    def _read(self, address: bytes) -> bytes:
        entry = self._offsets.get(address)
        if entry is None:
            raise NotFoundError(f"no object at {address.hex()}")
        return os.pread(self._reader.fileno(), entry & _LENGTH_MASK, entry >> 32)

    def get(self, address: bytes) -> bytes:
        content = self._read(address)
        if self.alg.hash(content) != address:
            raise IntegrityError(f"object at {address.hex()} fails verification")
        return content

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        for address in sorted(self._offsets):
            yield address, self._read(address)

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        slot = (ledger_key, round_seq)
        existing = self._proofs.get(slot)
        if existing is not None:
            if existing != address:
                raise ProofIndexConflictError(
                    f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
                )
            return
        if self._index_writer is None:
            self._open_writers()
        line = f"{ledger_key.hex()} {round_seq} {address.hex()}\n".encode("ascii")
        if self._index_writer.write(line) != len(line):  # a full disk
            # The torn line makes the next open raise MalformedArtifactError.
            raise OSError(f"short write to {self._index_path}")
        self._proofs[slot] = address

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        return self._proofs.get((ledger_key, round_seq))

    def corrupt(self, address: bytes) -> None:
        content = self._read(address)
        _check_damageable(address, content)
        if self.alg.hash(content) == address:
            # pwrite on an O_APPEND descriptor appends on Linux, so the flip
            # goes through a descriptor of its own.
            fd = os.open(self._pack_path, os.O_WRONLY)
            try:
                os.pwrite(fd, bytes([content[0] ^ 0xFF]), self._offsets[address] >> 32)
            finally:
                os.close(fd)

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
