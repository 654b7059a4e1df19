"""Append-only journal behavior and its file format."""

from __future__ import annotations

import pytest

from trienotary.chain import Chain, NotarizationRecord, format_record
from trienotary.crypto import SHA256
from trienotary.errors import NonContiguousSeqError, OversizeNoteError


def digest(tag: bytes) -> bytes:
    return SHA256.hash(tag)


def test_first_publish_is_seq_zero():
    chain = Chain()
    assert chain.publish(NotarizationRecord(0, digest(b"r0"))) == 0
    assert chain.height == 1


def test_read_roots_in_order():
    chain = Chain()
    roots = [digest(bytes([i])) for i in range(3)]
    for i, root in enumerate(roots):
        chain.publish(NotarizationRecord(i, root))
    assert chain.read_roots() == roots
    assert Chain().read_roots() == []


def test_note_capacity_boundary():
    chain = Chain()
    root = digest(b"r")
    chain.publish(NotarizationRecord(0, root, b"x" * (1024 - 32)))
    with pytest.raises(OversizeNoteError):
        chain.publish(NotarizationRecord(1, root, b"x" * (1024 - 32 + 1)))
    assert chain.height == 1  # rejected record not appended


def test_republish_at_existing_seq_rejected():
    chain = Chain()
    chain.publish(NotarizationRecord(0, digest(b"a")))
    with pytest.raises(NonContiguousSeqError):
        chain.publish(NotarizationRecord(0, digest(b"b")))
    with pytest.raises(NonContiguousSeqError):
        chain.publish(NotarizationRecord(2, digest(b"c")))


def test_reads_are_prefix_monotone():
    chain = Chain()
    snapshots = []
    for i in range(5):
        chain.publish(NotarizationRecord(i, digest(bytes([i]))))
        snapshots.append(chain.read_roots())
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later[: len(earlier)] == earlier


def test_file_backed_round_trip(tmp_path):
    path = tmp_path / "chain.log"
    chain = Chain(path)
    chain.publish(NotarizationRecord(0, digest(b"a"), b""))
    chain.publish(NotarizationRecord(1, digest(b"b"), b"\x01\x02"))
    reopened = Chain(path)
    assert reopened.records() == chain.records()
    reopened.publish(NotarizationRecord(2, digest(b"c")))
    assert Chain(path).height == 3


def test_journal_format_is_exact(tmp_path):
    path = tmp_path / "chain.log"
    chain = Chain(path)
    root = digest(b"a")
    chain.publish(NotarizationRecord(0, root, b"\xab"))
    assert path.read_bytes() == f"0 {root.hex()} ab\n".encode("ascii")
    assert format_record(NotarizationRecord(1, root)) == f"1 {root.hex()} "


def test_torn_final_line_is_skipped_and_loading_leaves_it(tmp_path):
    path = tmp_path / "chain.log"
    chain = Chain(path)
    records = [NotarizationRecord(i, digest(bytes([i])), b"\x07" * i) for i in range(3)]
    for record in records:
        chain.publish(record)
    complete = path.read_bytes()
    for cut in (1, 2, len(format_record(records[2])) + 1):  # the LF alone, then more
        path.write_bytes(complete[:-cut])
        assert Chain(path).records() == records[:2]
        assert path.read_bytes() == complete[:-cut]


def test_publish_cuts_a_torn_final_line_then_appends(tmp_path):
    path = tmp_path / "chain.log"
    chain = Chain(path)
    chain.publish(NotarizationRecord(0, digest(b"a")))
    complete = path.read_bytes()
    path.write_bytes(complete + b"1 " + digest(b"b").hex()[:9].encode("ascii"))
    reopened = Chain(path)
    record = NotarizationRecord(1, digest(b"c"), b"\x01")
    assert reopened.publish(record) == 1
    assert path.read_bytes() == complete + (format_record(record) + "\n").encode("ascii")
    assert Chain(path).records() == reopened.records()
