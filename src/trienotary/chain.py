"""Mock public blockchain: an append-only journal of notarization records.

Each record carries a round number, the trie root digest for that round,
and an optional note payload; digest plus note must fit the 1024-byte
capacity of a public-chain transaction note. The journal preserves exactly
the property the protocol needs from a real chain (an ordered, immutable,
publicly readable digest sequence) as a human-auditable text file:

    <seq> <hex trie_root> <hex note>

one record per line, LF endings, written strictly append-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedArtifactError, NonContiguousSeqError, OversizeNoteError

NOTE_CAPACITY = 1024


@dataclass(frozen=True)
class NotarizationRecord:
    seq: int
    trie_root: bytes
    note: bytes = b""


class Chain:
    """Append-only record journal; file-backed when ``path`` is given."""

    def __init__(self, path=None):
        self._records: list[NotarizationRecord] = []
        self._path: Path | None = None
        if path is not None:
            self._path = Path(path)
            if self._path.exists():
                for number, line in enumerate(self._path.read_bytes().splitlines(), 1):
                    self._records.append(_parse_record(self._path, number, line))

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
            with open(self._path, "a", encoding="ascii", newline="\n") as fh:
                fh.write(format_record(record) + "\n")
        self._records.append(record)
        return record.seq

    def read_roots(self) -> list[bytes]:
        """All published trie roots in sequence order."""
        return [record.trie_root for record in self._records]

    def records(self) -> list[NotarizationRecord]:
        return list(self._records)


def _parse_record(path: Path, number: int, line: bytes) -> NotarizationRecord:
    try:
        seq_str, root_hex, note_hex = line.decode("ascii").split(" ")
        record = NotarizationRecord(int(seq_str), bytes.fromhex(root_hex), bytes.fromhex(note_hex))
    except ValueError:
        raise MalformedArtifactError(f"{path}:{number}: malformed chain record") from None
    if record.seq != number - 1:
        raise MalformedArtifactError(
            f"{path}:{number}: record seq {record.seq} is not its line index {number - 1}"
        )
    return record


def format_record(record: NotarizationRecord) -> str:
    return f"{record.seq} {record.trie_root.hex()} {record.note.hex()}"
