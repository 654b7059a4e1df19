"""Content-addressed storage backends and the proof index."""

from __future__ import annotations

import gc
import os
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adversary import flip
from trienotary import store as store_module
from trienotary.chain import Chain, NotarizationRecord
from trienotary.crypto import SHA256
from trienotary.merkle import Ledger
from trienotary.notary import NotaryState, notarize_round
from trienotary.errors import (
    IntegrityError,
    MalformedArtifactError,
    NotFoundError,
    ProofIndexConflictError,
    TrienotaryError,
)
from trienotary.store import DirectoryStore, MemoryStore
from trienotary.trie import TrieParams


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


def test_corruption_is_detected(store):
    """A byte flipped in the stored bytes, the directory's pack edited under
    its live mapping: the read check catches it."""
    address = store.put(b"precious bytes")
    assert flip(store, address)
    with pytest.raises(IntegrityError):
        store.get(address)
    assert address not in store


def test_items_yields_raw_pairs_in_address_order(store):
    contents = [b"b", b"a", b"", b"c", b"a"]
    for content in contents:
        store.put(content)
    damaged = store.put(b"damaged")
    assert flip(store, damaged)
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
        store.commit()
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


def test_a_second_store_sees_only_the_last_commit(tmp_path):
    key = SHA256.hash(b"lid")
    with DirectoryStore(tmp_path, SHA256) as store:
        first = store.put(b"first")
        store.index_proof(key, 0, first)
        store.commit()
        second = store.put(b"second")
        store.index_proof(key, 1, second)
        assert (store.get(second), store.find_proof(key, 1)) == (b"second", second)
        with DirectoryStore(tmp_path, SHA256) as other:
            assert other.get(first) == b"first"
            assert second not in other
            assert (other.find_proof(key, 0), other.find_proof(key, 1)) == (first, None)
    with DirectoryStore(tmp_path, SHA256) as reopened:  # close committed the rest
        assert (reopened.get(second), reopened.find_proof(key, 1)) == (b"second", second)


def test_short_write_raises_and_leaves_no_silent_damage(tmp_path, appends):
    pack, index, journal = (tmp_path / name for name in WORKDIR_FILES)
    with DirectoryStore(tmp_path, SHA256) as store:
        first = store.put(b"first")
        store.index_proof(first, 0, first)
        store.commit()  # creates the files
        pack_size, index_size = pack.stat().st_size, index.stat().st_size
        second = store.put(b"second")
        appends.short = {"objects.pack"}
        with pytest.raises(OSError):
            store.commit()
        assert pack.stat().st_size == pack_size  # cut back to the last commit
        assert store.get(second) == b"second"  # still queued
        appends.short = set()
        store.index_proof(first, 1, second)
        appends.short = {"proofs.idx"}
        with pytest.raises(OSError):
            store.commit()  # the pack write is retried and lands; the index write stops short
        assert pack.stat().st_size == pack_size + HEADER_LEN + len(b"second")
        assert index.stat().st_size == index_size  # no torn line left behind
        assert store.find_proof(first, 1) == second  # still queued
        appends.short = set()
        store.commit()  # the retry
    with DirectoryStore(tmp_path, SHA256) as store:
        assert (store.get(first), store.get(second)) == (b"first", b"second")
        assert (store.find_proof(first, 0), store.find_proof(first, 1)) == (first, second)
    chain = Chain(journal)
    chain.publish(NotarizationRecord(0, first))
    journal_bytes = journal.read_bytes()
    appends.short = {"chain.log"}  # Chain.publish appends through store._append too
    with pytest.raises(OSError, match="short write"):
        chain.publish(NotarizationRecord(1, second))
    appends.short = set()
    assert journal.read_bytes() == journal_bytes  # no torn line left behind
    assert chain.height == 1
    assert chain.publish(NotarizationRecord(1, second)) == 1  # the retry
    assert Chain(journal).records() == chain.records()


def test_close_releases_everything_even_when_its_commit_fails(tmp_path, appends):
    store = DirectoryStore(tmp_path, SHA256)
    first = store.put(b"first")
    store.commit()
    assert store.get(first) == b"first"  # maps the pack
    store.put(b"second")
    appends.short = {"objects.pack"}
    with pytest.raises(OSError, match="short write"):
        store.close()
    assert store._map is None
    assert (tmp_path / "objects.pack").stat().st_size == HEADER_LEN + len(b"first")


def test_a_dropped_store_leaks_no_file(tmp_path):
    """A store dropped unclosed after a round and a read that maps the pack
    leaves no open file for the collector to warn about."""
    ledgers = {lid: Ledger.from_payloads(lid, [lid * 4], SHA256) for lid in (b"a", b"b")}
    store, chain = DirectoryStore(tmp_path, SHA256), Chain(tmp_path / "chain.log")
    notarize_round(NotaryState(TrieParams(2, 1, SHA256)), ledgers, store, chain)
    store.get(chain.read_roots()[-1])  # maps the pack
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del store, chain
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_full_queue_writes_records_early_and_index_lines_wait(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "_QUEUE_BYTES", 2 * HEADER_LEN)
    pack, index = tmp_path / "objects.pack", tmp_path / "proofs.idx"
    key = SHA256.hash(b"lid")
    with DirectoryStore(tmp_path, SHA256) as store:
        addresses = [store.put(bytes([i]) * 8) for i in range(3)]
        store.index_proof(key, 0, addresses[0])
        assert pack.read_bytes() == b"".join(  # the third record waits in the queue
            a + (8).to_bytes(4, "big") + bytes([i]) * 8 for i, a in enumerate(addresses[:2])
        )
        assert index.read_bytes() == b""
        assert store.get(addresses[0]) == bytes(8)  # read through the mapping
        store.commit()
        assert len(index.read_bytes().splitlines()) == 1
        assert store.get(addresses[2]) == b"\x02" * 8
    with DirectoryStore(tmp_path, SHA256) as store:
        assert [store.get(a) for a in addresses] == [bytes([i]) * 8 for i in range(3)]
        assert store.find_proof(key, 0) == addresses[0]


def test_index_lines_alone_make_the_directory_and_both_files(tmp_path):
    root, key, address = tmp_path / "s", SHA256.hash(b"lid"), SHA256.hash(b"never stored")
    with DirectoryStore(root, SHA256) as store:
        store.index_proof(key, 1, address)
    assert sorted(p.name for p in root.iterdir()) == ["objects.pack", "proofs.idx"]
    with DirectoryStore(root, SHA256) as store:
        assert store.find_proof(key, 1) == address


def test_directory_read_only_use_creates_nothing(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    with DirectoryStore(root, SHA256) as store:
        with pytest.raises(NotFoundError):
            store.get(SHA256.hash(b"x"))
        assert list(store.items()) == []
    assert list(root.iterdir()) == []


# ------------------------------------------------ torn workdir files, hostile packs

HEADER_LEN = SHA256.output_len + 4
FRESH = bytes(70)  # longer than any drawn content, so never among them
WORKDIR_FILES = ("objects.pack", "proofs.idx", "chain.log")
contents_strategy = st.lists(st.binary(max_size=64), min_size=1, max_size=12)


def _keep(store, chain, content) -> None:
    """Keep ``content`` in all three workdir files: as a pack record, as the
    index line of the slot (its address, 0) and as a chain record."""
    address = store.put(content)
    store.index_proof(address, 0, address)
    store.commit()
    chain.publish(NotarizationRecord(chain.height, address))


def _fill(root: Path, contents) -> dict[str, dict[bytes, int]]:
    """Keep each distinct content in a new workdir, one commit each;
    returns file name -> content -> end of its entry in that file."""
    ends = {name: {} for name in WORKDIR_FILES}
    chain = Chain(root / "chain.log")
    with DirectoryStore(root, SHA256) as store:
        for content in dict.fromkeys(contents):
            _keep(store, chain, content)
            for name, file_ends in ends.items():
                file_ends[content] = (root / name).stat().st_size
    return ends


def _held(root: Path, addresses) -> dict[str, list[bytes]]:
    """Per workdir file, the addresses of ``addresses`` it holds an entry
    for, in order; a pack record that does not read back intact raises."""
    with DirectoryStore(root, SHA256) as store:
        packed = [a for a in addresses if a in store._objects]
        for address in packed:
            store.get(address)
        return {
            "objects.pack": packed,
            "proofs.idx": [a for a in addresses if store.find_proof(a, 0) == a],
            "chain.log": Chain(root / "chain.log").read_roots(),
        }


@settings(max_examples=150, deadline=None)
@given(contents=contents_strategy, data=st.data())
def test_cut_pack_keeps_complete_records_and_next_put_drops_the_tail(contents, data):
    """Cut one workdir file, the pack, the index or the journal, at a drawn
    length: opening the workdir reads the entries that end within the cut
    and leaves the file as it is, and the next append cuts the rest off
    before it writes."""
    name = data.draw(st.sampled_from(WORKDIR_FILES), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ends = _fill(root, contents)[name]
        path = root / name
        original = path.read_bytes()
        cut = data.draw(st.integers(0, len(original)), label="cut")
        path.write_bytes(original[:cut])
        every = [SHA256.hash(c) for c in ends]
        held = {file: every for file in WORKDIR_FILES}
        held[name] = [SHA256.hash(c) for c, end in ends.items() if end <= cut]
        assert _held(root, every) == held
        assert path.read_bytes() == original[:cut]  # reading never edits the file
        with DirectoryStore(root, SHA256) as store:
            _keep(store, Chain(root / "chain.log"), FRESH)
        fresh = SHA256.hash(FRESH)
        entry = {
            "objects.pack": fresh + len(FRESH).to_bytes(4, "big") + FRESH,
            "proofs.idx": f"{fresh.hex()} 0 {fresh.hex()}\n".encode("ascii"),
            "chain.log": f"{len(held['chain.log'])} {fresh.hex()} \n".encode("ascii"),
        }[name]
        tail = max((end for end in ends.values() if end <= cut), default=0)
        assert path.read_bytes() == original[:tail] + entry
        assert _held(root, [*every, fresh]) == {
            file: [*addresses, fresh] for file, addresses in held.items()
        }


def test_torn_final_index_line_is_skipped_then_cut(tmp_path):
    key = SHA256.hash(b"lid")
    with DirectoryStore(tmp_path, SHA256) as store:
        addresses = [store.put(bytes([i])) for i in range(3)]
        for round_seq, address in enumerate(addresses):
            store.index_proof(key, round_seq, address)
    index = tmp_path / "proofs.idx"
    complete = index.read_bytes()
    torn = complete[:-30]  # inside the last line: its round 2 entry never finished
    index.write_bytes(torn)
    with DirectoryStore(tmp_path, SHA256) as store:
        assert [store.find_proof(key, r) for r in range(3)] == [*addresses[:2], None]
        assert index.read_bytes() == torn  # opening leaves the fragment
        store.index_proof(key, 2, addresses[2])
        store.index_proof(key, 3, addresses[0])
        store.commit()  # cuts the fragment off, then appends
    line = f"{key.hex()} 3 {addresses[0].hex()}\n".encode("ascii")
    assert index.read_bytes() == complete + line
    with DirectoryStore(tmp_path, SHA256) as store:
        assert [store.find_proof(key, r) for r in range(4)] == [*addresses, addresses[0]]


@settings(max_examples=150, deadline=None)
@given(contents=contents_strategy, data=st.data())
def test_flipped_pack_byte_gives_original_content_or_a_classified_error(contents, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ends = _fill(root, contents)["objects.pack"]
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
    st.tuples(st.just("commit")),
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
        if name == "corrupt":  # the same byte flip on both backends
            return flip(store, SHA256.hash(args[0]))
        if name == "commit":
            return store.commit()
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
