"""Content-addressed storage backends and the proof index."""

from __future__ import annotations

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienotary.crypto import SHA256
from trienotary.errors import (
    IntegrityError,
    MalformedArtifactError,
    NotFoundError,
    ProofIndexConflictError,
    TrienotaryError,
)
from trienotary.store import DirectoryStore, MemoryStore


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore(SHA256)
        return
    with DirectoryStore(tmp_path / "store", SHA256) as directory:
        yield directory


def test_put_get_round_trip(store):
    rng = random.Random(1)
    for size in (0, 1, 100, 1 << 20):
        content = rng.randbytes(size)
        address = store.put(content)
        assert address == SHA256.hash(content)
        assert store.get(address) == content


def test_put_is_idempotent(store):
    a = store.put(b"same bytes")
    b = store.put(b"same bytes")
    assert a == b
    if isinstance(store, MemoryStore):
        assert len(store) == 1


def test_puts_counts_every_call(store):
    for content in (b"a", b"a", b""):
        store.put(content)
    assert store.puts == 3


def test_empty_content_address(store):
    assert store.put(b"") == SHA256.hash(b"")


def test_unknown_address_not_found(store):
    with pytest.raises(NotFoundError):
        store.get(SHA256.hash(b"never stored"))
    assert SHA256.hash(b"never stored") not in store
    address = store.put(b"stored")
    assert address in store


def test_proof_index_round_trip(store):
    key = SHA256.hash(b"ledger-id")
    address = store.put(b"proof bytes")
    assert store.find_proof(key, 3) is None
    store.index_proof(key, 3, address)
    assert store.find_proof(key, 3) == address
    assert store.find_proof(key, 4) is None
    store.index_proof(key, 3, address)  # same registration is a no-op
    with pytest.raises(ProofIndexConflictError):
        store.index_proof(key, 3, store.put(b"different proof"))


def test_corruption_detected_and_never_undone(store):
    address = store.put(b"precious bytes")
    for _ in range(3):  # a second flip of the same byte would restore the object
        store.corrupt(address)
        with pytest.raises(IntegrityError):
            store.get(address)
        assert address not in store


def test_corrupt_unknown_address_not_found(store):
    with pytest.raises(NotFoundError):
        store.corrupt(SHA256.hash(b"never stored"))


def test_corrupt_empty_object_is_a_value_error(store):
    address = store.put(b"")
    with pytest.raises(ValueError, match="empty"):
        store.corrupt(address)
    assert store.get(address) == b""


def test_items_yields_raw_pairs_in_address_order(store):
    contents = [b"b", b"a", b"", b"c", b"a"]
    for content in contents:
        store.put(content)
    damaged = store.put(b"damaged")
    store.corrupt(damaged)
    pairs = list(store.items())
    assert [address for address, _ in pairs] == sorted(
        SHA256.hash(c) for c in {*contents, b"damaged"}
    )
    for address, content in pairs:
        assert address == damaged or content == store.get(address)
    assert dict(pairs)[damaged] != b"damaged"  # stored bytes, not verified


def test_directory_layout_and_index_format(tmp_path):
    root = tmp_path / "s"
    with DirectoryStore(root, SHA256) as store:
        address = store.put(b"x")
        store.put(b"x")  # already stored: nothing appended
        key = SHA256.hash(b"lid")
        store.index_proof(key, 0, address)
        store.index_proof(key, 2, address)
    hex_addr = address.hex()
    assert sorted(p.name for p in root.iterdir()) == ["objects.pack", "proofs.idx"]
    assert (root / "objects.pack").read_bytes() == address + (1).to_bytes(4, "big") + b"x"
    content = (root / "proofs.idx").read_bytes()
    assert content == (
        f"{key.hex()} 0 {hex_addr}\n{key.hex()} 2 {hex_addr}\n".encode("ascii")
    )


def test_directory_index_conflict_on_load_is_malformed(tmp_path):
    root = tmp_path / "s"
    with DirectoryStore(root, SHA256) as store:
        first, second = store.put(b"A"), store.put(b"B")
        key = SHA256.hash(b"lid")
        store.index_proof(key, 1, first)
    index = root / "proofs.idx"
    line = index.read_bytes()
    index.write_bytes(line + line)  # an identical repeat still loads
    with DirectoryStore(root, SHA256) as reopened:
        assert reopened.find_proof(key, 1) == first
    index.write_bytes(line + line + f"{key.hex()} 1 {second.hex()}\n".encode("ascii"))
    with pytest.raises(MalformedArtifactError, match="proofs.idx:3: conflicting"):
        DirectoryStore(root, SHA256)


def test_directory_store_reload(tmp_path):
    root = tmp_path / "s"
    with DirectoryStore(root, SHA256) as store:
        address = store.put(b"persisted")
        key = SHA256.hash(b"lid")
        store.index_proof(key, 1, address)
        with DirectoryStore(root, SHA256) as reopened:
            assert reopened.get(address) == b"persisted"
            assert reopened.find_proof(key, 1) == address


def test_first_pack_record_for_an_address_wins(tmp_path):
    address = SHA256.hash(b"payload")
    record = address + (7).to_bytes(4, "big") + b"payload"
    damaged = address + (7).to_bytes(4, "big") + b"Payload"
    (tmp_path / "objects.pack").write_bytes(damaged + record)  # a valid copy appended later
    with DirectoryStore(tmp_path, SHA256) as store:
        with pytest.raises(IntegrityError):
            store.get(address)
        assert store.put(b"payload") == address  # already present: nothing appended
    assert (tmp_path / "objects.pack").read_bytes() == damaged + record


def test_short_write_raises_and_leaves_no_silent_damage(tmp_path):
    class HalfWriter:  # a full disk: the write stops halfway
        def __init__(self, real):
            self.real = real

        def write(self, data):
            return self.real.write(data[: len(data) // 2])

        def fileno(self):
            return self.real.fileno()

    with DirectoryStore(tmp_path, SHA256) as store:
        first = store.put(b"first")
        size = (tmp_path / "objects.pack").stat().st_size
        real, store._pack_writer = store._pack_writer, HalfWriter(store._pack_writer)
        with pytest.raises(OSError):
            store.put(b"second")
        assert (tmp_path / "objects.pack").stat().st_size == size
        store._pack_writer = real
        second = store.put(b"second")
    with DirectoryStore(tmp_path, SHA256) as store:
        assert (store.get(first), store.get(second)) == (b"first", b"second")
        store.index_proof(first, 0, second)  # opens the writers
        store._index_writer = HalfWriter(store._index_writer)
        with pytest.raises(OSError):
            store.index_proof(first, 1, second)
        assert store.find_proof(first, 1) is None
        store._index_writer = store._index_writer.real
    with pytest.raises(MalformedArtifactError, match="proofs.idx:2:"):
        DirectoryStore(tmp_path, SHA256)


def test_directory_read_only_use_creates_nothing(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    with DirectoryStore(root, SHA256) as store:
        with pytest.raises(NotFoundError):
            store.get(SHA256.hash(b"x"))
        assert list(store.items()) == []
    assert list(root.iterdir()) == []


# ------------------------------------------------------- torn and hostile packs

HEADER_LEN = SHA256.output_len + 4
FRESH = bytes(70)  # longer than any drawn content, so never among them
contents_strategy = st.lists(st.binary(max_size=64), min_size=1, max_size=12)


def _fill(root: Path, contents) -> dict[bytes, int]:
    """Put ``contents`` into a new pack; returns content -> end of its record."""
    ends, end = {}, 0
    with DirectoryStore(root, SHA256) as store:
        for content in contents:
            store.put(content)
            if content not in ends:
                end += HEADER_LEN + len(content)
                ends[content] = end
    assert (root / "objects.pack").stat().st_size == end
    return ends


@settings(max_examples=150, deadline=None)
@given(contents=contents_strategy, data=st.data())
def test_cut_pack_keeps_complete_records_and_next_put_drops_the_tail(contents, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ends = _fill(root, contents)
        pack = root / "objects.pack"
        cut = data.draw(st.integers(0, pack.stat().st_size), label="cut")
        os.truncate(pack, cut)
        complete = {c for c, end in ends.items() if end <= cut}
        with DirectoryStore(root, SHA256) as store:
            for content in ends:
                if content in complete:
                    assert store.get(SHA256.hash(content)) == content
                else:
                    with pytest.raises(NotFoundError):
                        store.get(SHA256.hash(content))
            assert pack.stat().st_size == cut  # reading never edits the pack
            store.put(FRESH)
        tail = max((ends[c] for c in complete), default=0)
        assert pack.stat().st_size == tail + HEADER_LEN + len(FRESH)
        with DirectoryStore(root, SHA256) as store:
            assert [a for a, _ in store.items()] == sorted(
                SHA256.hash(c) for c in complete | {FRESH}
            )
            for content in complete | {FRESH}:
                assert store.get(SHA256.hash(content)) == content


@settings(max_examples=150, deadline=None)
@given(contents=contents_strategy, data=st.data())
def test_flipped_pack_byte_gives_original_content_or_a_classified_error(contents, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ends = _fill(root, contents)
        pack = root / "objects.pack"
        raw = bytearray(pack.read_bytes())
        if not raw:
            return
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[position] ^= data.draw(st.integers(1, 255), label="mask")
        pack.write_bytes(raw)
        with DirectoryStore(root, SHA256) as store:
            for content, end in ends.items():
                address = SHA256.hash(content)
                if end <= position:  # records before the flip read as written
                    assert store.get(address) == content
                    continue
                try:
                    assert store.get(address) == content
                except (NotFoundError, IntegrityError):
                    pass


# ------------------------------------------------- one contract, two backends

POOL = [b"", b"x", bytes(range(40))]  # drawn often, so puts repeat
KEYS = [SHA256.hash(b"k0"), SHA256.hash(b"k1")]
SLOTS = [(key, round_seq) for key in KEYS for round_seq in range(2)]
pooled = st.sampled_from(POOL)
store_ops = st.one_of(
    st.tuples(st.just("put"), pooled),
    st.tuples(st.just("get"), pooled),  # a content never put is an unknown address
    st.tuples(st.just("in"), pooled),
    st.tuples(st.just("corrupt"), pooled),
    st.tuples(st.just("index"), st.sampled_from(SLOTS), pooled),
    st.tuples(st.just("reopen")),
)


def _apply(store, op):
    """The result of one operation, or the type and message of its error."""
    name, *args = op
    try:
        if name == "put":
            return store.put(args[0])
        if name == "get":
            return store.get(SHA256.hash(args[0]))
        if name == "in":
            return SHA256.hash(args[0]) in store
        if name == "corrupt":
            return store.corrupt(SHA256.hash(args[0]))
        (key, round_seq), content = args
        return store.index_proof(key, round_seq, SHA256.hash(content))
    except (TrienotaryError, ValueError) as exc:
        return type(exc), str(exc)


def _state(store):
    return list(store.items()), [store.find_proof(*slot) for slot in SLOTS]


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(store_ops, max_size=30))
def test_both_backends_give_identical_results(ops):
    """One drawn sequence on both backends: every result and error is the
    same, and so are ``items()`` and every ``find_proof`` after each step."""
    memory = MemoryStore(SHA256)
    with tempfile.TemporaryDirectory() as tmp:
        directory = DirectoryStore(tmp, SHA256)
        try:
            for op in ops:
                if op == ("reopen",):
                    directory.close()
                    directory = DirectoryStore(tmp, SHA256)
                else:
                    assert _apply(directory, op) == _apply(memory, op), op
                assert _state(directory) == _state(memory), op
        finally:
            directory.close()
