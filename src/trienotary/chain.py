"""Mock public blockchain: an append-only journal of notarization records.

Each record carries a round number, the trie root digest for that round,
and an optional note payload; digest plus note must fit the 1024-byte
capacity of a public-chain transaction note. The journal preserves exactly
the property the protocol needs from a real chain (an ordered, immutable,
publicly readable digest sequence) as a human-auditable text file:

    <seq> <hex trie_root> <hex note>

one record per line, LF endings, written strictly append-only through the
one reader and writer of every workdir file, ``store._read_lines`` and ``_append``.
A record decodes only from the form ``format_record`` writes (``store._fields``).
A file-backed ``Chain``, like ``DirectoryStore``, holds no open file: each
publish opens the journal in ``_append`` and closes it there. It is also a
single-writer building block: ``trienotary.workdir.Workdir`` holds the lock
that keeps it to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedArtifactError, NonContiguousSeqError, OversizeNoteError
from .store import _append, _fields, _read_lines

NOTE_CAPACITY = 1024


@dataclass(frozen=True)
class NotarizationRecord:
    seq: int
    trie_root: bytes
    note: bytes = b""


class Chain:
    """Append-only record journal; file-backed when ``path`` is given.

    ``digest_len``, when given, is the deployment's digest length, and a
    journal record whose trie root has another length does not decode.
    """

    def __init__(self, path=None, digest_len: int | None = None):
        self._path = None if path is None else Path(path)
        lines, self._end = ([], 0) if path is None else _read_lines(self._path)
        self._records = [
            _parse_record(self._path, n, line, digest_len) for n, line in enumerate(lines, 1)
        ]

    @property
    def height(self) -> int:
        return len(self._records)

    def publish(self, record: NotarizationRecord) -> int:
        """Append ``record`` at the current height; returns its sequence number."""
        if record.seq != self.height:
            raise NonContiguousSeqError(
                f"record seq {record.seq} does not match chain height {self.height}"
            )
        if len(record.trie_root) + len(record.note) > NOTE_CAPACITY:
            raise OversizeNoteError(
                f"digest plus note is {len(record.trie_root) + len(record.note)} bytes, "
                f"capacity is {NOTE_CAPACITY}"
            )
        if self._path is not None:
            line = (format_record(record) + "\n").encode("ascii")
            self._end = _append(self._path, line, self._end)
        self._records.append(record)
        return record.seq

    def read_roots(self) -> list[bytes]:
        """All published trie roots in sequence order."""
        return [record.trie_root for record in self._records]

    def records(self) -> list[NotarizationRecord]:
        return list(self._records)


def _parse_record(
    path: Path, number: int, line: bytes, digest_len: int | None
) -> NotarizationRecord:
    try:
        seq_str, root_hex, note_hex = _fields(line, 0)
        record = NotarizationRecord(int(seq_str), bytes.fromhex(root_hex), bytes.fromhex(note_hex))
        if digest_len is not None and len(record.trie_root) != digest_len:
            raise ValueError("trie root is not a digest")
    except ValueError:
        raise MalformedArtifactError(f"{path}:{number}: malformed chain record") from None
    if record.seq != number - 1:
        raise MalformedArtifactError(
            f"{path}:{number}: record seq {record.seq} is not its line index {number - 1}"
        )
    return record


def format_record(record: NotarizationRecord) -> str:
    return f"{record.seq} {record.trie_root.hex()} {record.note.hex()}"
