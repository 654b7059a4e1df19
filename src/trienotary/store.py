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
content``; the first record for an address wins. Every workdir file,
``chain.log`` included, keeps the one rule for a torn tail and a failed
write that ``_read_lines`` and ``_append`` hold: ``_append`` is the one
opener of a workdir file for writing, and it opens the file for each append
and closes it before it returns. Journal and index fields have one form,
the writer's, which ``_fields`` checks. Writes are queued and made
in one batch by ``commit``: the pack's records first, then the index lines,
so an index line never names a record that is not yet in the pack. The
notary commits once per round, before the round's journal line.
``DirectoryStore`` takes no lock: it is a single-writer building block,
since a second writer's stale committed length would make it cut the
first one's records as a torn tail. ``trienotary.workdir.Workdir`` holds
the writer lock that guards it; a reader that opens the directory takes
no lock and sees only what was committed.
"""

from __future__ import annotations

import mmap
import os
from collections.abc import Iterator
from pathlib import Path

from .crypto import HashAlg, SHA256
from .errors import IntegrityError, MalformedArtifactError, NotFoundError, ProofIndexConflictError

PACK_NAME = "objects.pack"
PROOF_INDEX_NAME = "proofs.idx"
_LENGTH_BYTES = 4  # u32 big-endian content length after each record's address
_LENGTH_MASK = (1 << 32) - 1
_QUEUE_BYTES = 1 << 20  # queued pack bytes past which a put writes the queue early
_LINE_BYTES = b"0123456789abcdef "  # every byte a journal or index line holds before its LF


class ObjectStore:
    """The store core: addressing, the read check and the proof-index rule,
    for every backend.

    - ``put`` stores content under its hash and writes only an address not
      yet stored; ``puts`` counts every call.
    - ``get`` raises NotFoundError on a miss and IntegrityError when the
      stored bytes no longer hash to their address.
    - A (ledger key, round) slot takes one proof address: an identical
      repeat is a no-op, another address raises ProofIndexConflictError. A
      new entry is handed to the backend before it is recorded, so a
      backend that refuses it leaves ``find_proof`` returning None.
    - ``commit`` hands every write so far to the backing files in one
      batch; reads see a write at once, committed or not.

    A backend keeps ``_objects``, a dict keyed by every stored address that
    the core looks up afresh at each call, and supplies the primitives:

    - ``_read(address)``: the raw stored bytes; KeyError on a miss;
    - ``_write(address, content)``: store a new address;
    - ``_add_proof(ledger_key, round_seq, address)``: keep a new index
      entry for the next commit, or raise.
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
            self._add_proof(ledger_key, round_seq, address)
            self._proofs[slot] = address
        elif existing != address:
            raise ProofIndexConflictError(
                f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
            )

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        """Address of the proof for (ledger, round), or None."""
        return self._proofs.get((ledger_key, round_seq))

    def commit(self) -> None:
        """Hand every write so far to the backing files (nothing is
        fsynced); raises OSError if that fails, keeping the writes for the
        next commit. A no-op for a backend that writes at once."""


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

    def _add_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        """Nothing to keep: the index is the core's ``_proofs``."""


class DirectoryStore(ObjectStore):
    """Filesystem store: the ``objects.pack`` record file plus ``proofs.idx``.

    Opening reads every record header of the pack into an address ->
    ``offset << 32 | length`` map. New records and index lines are queued
    in memory; ``commit`` appends the queued records to the pack in one
    write, then the queued lines to the index in one write, and ``close``
    commits too. A queued record's entry already holds the offset it will
    be written at, so an entry at or past ``_end``, the end of the
    committed records, is read from the queue, and one before it is a slice
    of one read-only mapping of the pack. The mapping never covers more
    than the committed records, so it never holds a torn tail, and it is
    replaced when a read goes past it. Once ``_QUEUE_BYTES`` are queued, the
    next put writes the queued records early; index lines wait for
    ``commit``, so they always follow the records they point to. Both
    files are appended through ``_append``, and a write it refuses keeps
    the queue for the next commit. The store holds no open file, only its
    mapping: the pack is opened read-only just long enough to map it, and
    each append opens and closes its file. The first pack write makes the
    directory and both files, so a read-only use such as an audit creates
    and edits nothing, and ``close`` is a commit, then an unmap. Index
    lines are ``<hex ledger key> <decimal round> <hex address>`` with LF
    endings, in registration order; a key or address that is not a digest
    of the store's algorithm makes the line malformed.
    """

    def __init__(self, root, alg: HashAlg = SHA256):
        super().__init__(alg)
        self.root = Path(root)
        self._pack_path = self.root / PACK_NAME
        self._index_path = self.root / PROOF_INDEX_NAME
        self._objects: dict[bytes, int] = {}  # address -> offset << 32 | length
        self._end = 0  # end of the last committed record
        self._queue = bytearray()  # records to be written at _end
        self._lines = bytearray()  # index lines to be written after them
        self._map: mmap.mmap | None = None  # the pack's first bytes, at most _end
        lines, self._index_end = _read_lines(self._index_path)  # proofs.idx as committed
        digest_len = alg.output_len
        for number, line in enumerate(lines, 1):
            try:
                key_hex, round_str, addr_hex = _fields(line, 1)
                key, address = bytes.fromhex(key_hex), bytes.fromhex(addr_hex)
                if len(key) != digest_len or len(address) != digest_len:
                    raise ValueError("a ledger key or proof address that is not a digest")
                slot = (key, int(round_str))
            except ValueError:
                raise MalformedArtifactError(
                    f"{self._index_path}:{number}: malformed proof index entry"
                ) from None
            if self._proofs.setdefault(slot, address) != address:
                raise MalformedArtifactError(
                    f"{self._index_path}:{number}: conflicting proof index entry"
                )
        if self._pack_path.exists():
            self._scan()

    def _scan(self) -> None:
        """Index every complete record; stop at a torn tail."""
        with open(self._pack_path, "rb") as pack:
            size = os.fstat(pack.fileno()).st_size
            if not size:
                return
            view = mmap.mmap(pack.fileno(), size, access=mmap.ACCESS_READ)
        address_len = self.alg.output_len
        header_len = address_len + _LENGTH_BYTES
        end = 0
        while end + header_len <= size:
            body = end + header_len
            length = int.from_bytes(view[body - _LENGTH_BYTES : body], "big")
            if body + length > size:
                break
            self._objects.setdefault(view[end : end + address_len], body << 32 | length)
            end = body + length
        self._end = end
        if end == size:
            self._map = view
        else:  # the torn tail stays out of the mapping
            view.close()

    def _remap(self) -> mmap.mmap:
        """Map the committed records afresh, now that a read goes past the old mapping."""
        if self._map is not None:
            self._map.close()
            self._map = None  # a failed mmap must not leave a closed mapping here
        with open(self._pack_path, "rb") as pack:
            self._map = mmap.mmap(pack.fileno(), self._end, access=mmap.ACCESS_READ)
        return self._map

    def _read(self, address: bytes) -> bytes:
        entry = self._objects[address]
        start = entry >> 32
        stop = start + (entry & _LENGTH_MASK)
        if start >= self._end:  # still queued
            return bytes(self._queue[start - self._end : stop - self._end])
        view = self._map
        if view is None or stop > len(view):
            view = self._remap()
        return view[start:stop]

    def _write(self, address: bytes, content: bytes) -> None:
        queue = self._queue
        if len(queue) >= _QUEUE_BYTES:
            self._write_pack()
        length = len(content)
        size = length.to_bytes(_LENGTH_BYTES, "big")  # raises before the queue grows
        queue += address
        queue += size
        self._objects[address] = (self._end + len(queue)) << 32 | length
        queue += content

    def _add_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        self._lines += f"{ledger_key.hex()} {round_seq} {address.hex()}\n".encode("ascii")

    def _write_pack(self) -> None:
        if not self._end:  # the first records make the directory, and proofs.idx beside the pack
            self.root.mkdir(parents=True, exist_ok=True)
            self._index_path.touch()
        self._end = _append(self._pack_path, self._queue, self._end)
        self._queue.clear()

    def commit(self) -> None:
        """Write the queued records to the pack in one write, then the queued
        index lines to ``proofs.idx`` in one write."""
        if self._queue or self._lines and not self._end:  # index lines alone make both files too
            self._write_pack()
        if self._lines:
            self._index_end = _append(self._index_path, self._lines, self._index_end)
            self._lines.clear()

    def close(self) -> None:
        """Commit, then unmap, even if the commit raises; the store is not
        used afterwards."""
        try:
            self.commit()
        finally:
            if self._map is not None:
                self._map.close()
                self._map = None

    def __enter__(self) -> DirectoryStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_lines(path: Path) -> tuple[list[bytes], int]:
    """The complete lines of ``path`` (none if it is missing), split at LF
    only, and their length, the committed length. A final line with no LF
    is an append that did not finish: it is skipped, and the file is left
    as it is."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    return data.split(b"\n")[:-1], data.rfind(b"\n") + 1


def _fields(line: bytes, decimal: int) -> list[str]:
    """The three fields of a journal or index ``line``, split at single
    spaces, if the line has the form the writer makes: lowercase hex, and at
    index ``decimal`` a decimal with no sign, underscore or leading zero.
    ValueError otherwise, so two different lines never decode alike. The
    caller decodes the fields, which refuses odd-length hex and a letter in
    the decimal."""
    fields = line.decode("ascii").split(" ")
    if (
        len(fields) != 3
        or line.translate(None, _LINE_BYTES)
        or fields[decimal][:1] == "0" != fields[decimal]  # a leading zero
    ):
        raise ValueError("not in the form the writer makes")
    return fields


def _append(path: Path, data: bytes, end: int) -> int:
    """Append ``data`` to ``path``, whose committed length is ``end``;
    returns the new one. The file is opened here for this one append and
    closed before the return. A torn tail past ``end`` is cut off first. A
    write that fails or stops short (a full disk) cuts the file back to
    ``end`` and raises OSError. Nothing is fsynced."""
    with open(path, "ab", buffering=0) as handle:
        fd = handle.fileno()
        if os.fstat(fd).st_size > end:  # a torn tail
            os.ftruncate(fd, end)
        try:
            if handle.write(data) != len(data):
                raise OSError(f"short write to {path}")
        except OSError:
            os.ftruncate(fd, end)
            raise
    return end + len(data)
