"""Notarization rounds: snapshots, proofs, trie versions, chain records."""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienotary import notary
from trienotary.audit import (
    CheckResult,
    Status,
    audit_ledger,
    decode_audit_proof,
    encode_audit_proof,
    make_audit_proof,
    verify_audit_proof,
)
from trienotary.chain import Chain
from trienotary.crypto import SHA256, SHA512
from trienotary.errors import LedgerTamperError, NoRemovalViolationError, OversizeNoteError
from trienotary.merkle import (
    ConsistencyProof,
    Ledger,
    decode_consistency_proof,
    encode_consistency_proof,
    ledger_root,
    root_at,
    verify_consistency,
)
from trienotary.notary import NotaryState, notarize_round, notarize_single
from trienotary.store import DirectoryStore, MemoryStore
from trienotary.trie import TrieParams, TrieVersion, associations, build, lookup, parse_node

ALG = SHA256
PARAMS = TrieParams(2, 1, ALG)


def fresh():
    return NotaryState(PARAMS), MemoryStore(ALG), Chain()


def test_minimal_round_with_one_empty_ledger():
    state, store, chain = fresh()
    ledgers = {b"only": Ledger(b"only", (), ALG)}
    state, record = notarize_round(state, ledgers, store, chain)
    assert chain.height == 1
    assert record.seq == 0
    assert record.note == b""
    version = TrieVersion(PARAMS, record.trie_root, store)
    assert lookup(version, ALG.hash(b"only")) == ledger_root(ledgers[b"only"])
    assert state.round == 1


def test_round_zero_chains_to_sentinel():
    state, store, chain = fresh()
    state, record = notarize_round(state, {b"a": Ledger(b"a", (), ALG)}, store, chain)
    root = parse_node(store.get(record.trie_root), PARAMS)
    assert root.prev_root == ALG.zero


def test_quiescent_round_changes_only_the_chain_link():
    state, store, chain = fresh()
    ledgers = {bytes([i]): Ledger.from_payloads(bytes([i]), [b"x"], ALG) for i in range(5)}
    state, first = notarize_round(state, ledgers, store, chain)
    proofs_before = dict(store._proofs)
    state, second = notarize_round(state, ledgers, store, chain)
    assert second.trie_root != first.trie_root
    assert store._proofs == proofs_before  # no digest change, no proofs
    new_root = parse_node(store.get(second.trie_root), PARAMS)
    old_root = parse_node(store.get(first.trie_root), PARAMS)
    assert new_root.prev_root == first.trie_root
    assert new_root.children == old_root.children


def test_registered_ledger_must_stay_in_snapshot():
    state, store, chain = fresh()
    ledgers = {b"a": Ledger(b"a", (), ALG), b"b": Ledger(b"b", (), ALG)}
    state, _ = notarize_round(state, ledgers, store, chain)
    with pytest.raises(NoRemovalViolationError):
        notarize_round(state, {b"a": ledgers[b"a"]}, store, chain)


def test_swapping_a_registered_ledger_for_a_new_one_is_a_removal():
    # same size as the registry, so a count cannot stand in for the check
    state, store, chain = fresh()
    ledgers = {b"a": Ledger(b"a", (), ALG), b"b": Ledger(b"b", (), ALG)}
    state, _ = notarize_round(state, ledgers, store, chain)
    swapped = {b"a": ledgers[b"a"], b"c": Ledger(b"c", (), ALG)}
    with pytest.raises(NoRemovalViolationError, match=b"b".hex()):
        notarize_round(state, swapped, store, chain)


def test_shrunk_ledger_rejected():
    state, store, chain = fresh()
    ledger = Ledger.from_payloads(b"a", [b"1", b"2", b"3"], ALG)
    state, _ = notarize_round(state, {b"a": ledger}, store, chain)
    shrunk = Ledger.from_payloads(b"a", [b"1"], ALG)
    with pytest.raises(LedgerTamperError):
        notarize_round(state, {b"a": shrunk}, store, chain)


def test_rewritten_history_rejected():
    state, store, chain = fresh()
    ledger = Ledger.from_payloads(b"a", [b"1", b"2"], ALG)
    state, _ = notarize_round(state, {b"a": ledger}, store, chain)
    rewritten = Ledger.from_payloads(b"a", [b"1", b"TAMPERED", b"3"], ALG)
    with pytest.raises(LedgerTamperError):
        notarize_round(state, {b"a": rewritten}, store, chain)


def test_rewrite_by_forking_a_superseded_version_rejected():
    state, store, chain = fresh()
    base = Ledger.from_payloads(b"a", [b"1", b"2", b"3"], ALG)
    state, _ = notarize_round(state, {b"a": base}, store, chain)
    state, _ = notarize_round(state, {b"a": base.append(b"4")}, store, chain)
    # ``base`` no longer ends its append chain, so this version must not
    # reuse the subtree heads cached for the notarized one.
    rewritten = base.append(b"TAMPERED")
    with pytest.raises(LedgerTamperError):
        notarize_round(state, {b"a": rewritten}, store, chain)


def forgeries(base: Ledger, honest: Ledger) -> dict[str, Ledger]:
    """Two rewrites of block 4 that grow to ``honest``'s length: a fork of
    ``base`` (3 blocks) and a new ``Ledger`` of ``honest``'s payloads with
    payload 4 replaced."""
    fork = base.append(b"3").append(b"X").append(b"5").append(b"6").append(b"7")
    payloads = [block.payload for block in honest.blocks]
    payloads[4] = b"X"
    return {"fork": fork, "rebuilt": Ledger(b"a", payloads, ALG)}


# ``notarized`` extends ``base`` on the same log, so once it is notarized
# that log remembers its 6-block root; each forgery is made only then.
@pytest.mark.parametrize("forgery", ["fork", "rebuilt"])
def test_round_rejects_a_rewrite_of_a_ledger_with_a_remembered_root(forgery):
    base = Ledger.from_payloads(b"a", [b"0", b"1", b"2"], ALG)
    notarized = base.append(b"3").append(b"4").append(b"5")
    honest = notarized.append(b"6").append(b"7")
    state, store, chain = fresh()
    state, _ = notarize_round(state, {b"a": base}, store, chain)
    state, _ = notarize_round(state, {b"a": notarized}, store, chain)
    kept, objects, proofs = dict(state.notarized), len(store), dict(store._proofs)
    before = (state.last_root, state.round, chain.records())
    with pytest.raises(LedgerTamperError, match="rewrote history before block 6"):
        notarize_round(state, {b"a": forgeries(base, honest)[forgery]}, store, chain)
    assert state.notarized == kept and state.notarized[b"a"] is notarized
    assert (state.last_root, state.round, chain.records()) == before
    assert (len(store), store._proofs) == (objects, proofs)
    state, _ = notarize_round(state, {b"a": honest}, store, chain)
    notarized = state.notarized[b"a"]
    assert (ledger_root(notarized), len(notarized)) == (ledger_root(honest), len(honest))


@pytest.mark.parametrize("forgery", ["fork", "rebuilt"])
def test_single_mode_rejects_a_rewrite_of_a_ledger_with_a_remembered_root(forgery):
    base = Ledger.from_payloads(b"a", [b"0", b"1", b"2"], ALG)
    notarized = base.append(b"3").append(b"4").append(b"5")
    honest = notarized.append(b"6").append(b"7")
    chain = Chain()
    first = notarize_single(base, None, chain)
    second = notarize_single(notarized, (first.trie_root, 3), chain)
    records = chain.records()
    with pytest.raises(LedgerTamperError, match="rewrote history before block 6"):
        notarize_single(forgeries(base, honest)[forgery], (second.trie_root, 6), chain)
    assert chain.records() == records
    third = notarize_single(honest, (second.trie_root, 6), chain)
    assert third.trie_root == ledger_root(honest)


def test_three_rounds_replay_oracle():
    """Every (ledger, changed round) pair gets a verifiable stored proof and
    every round's root lands on chain, reproducible from raw ledgers alone."""
    rng = random.Random(2024)
    state, store, chain = fresh()
    ledgers = {
        f"ledger-{i}".encode(): Ledger.from_payloads(
            f"ledger-{i}".encode(), [rng.randbytes(8)], ALG
        )
        for i in range(100)
    }
    history: list[dict[bytes, Ledger]] = []
    for _ in range(3):
        history.append(dict(ledgers))
        state, _ = notarize_round(state, dict(ledgers), store, chain)
        for lid in list(ledgers):
            for _ in range(rng.randint(0, 2)):
                ledgers[lid] = ledgers[lid].append(rng.randbytes(6))

    assert chain.height == 3
    roots = chain.read_roots()
    for round_seq, snapshot in enumerate(history):
        version = TrieVersion(PARAMS, roots[round_seq], store)
        for lid, ledger in snapshot.items():
            key = ALG.hash(lid)
            assert lookup(version, key) == ledger_root(ledger)
            if round_seq == 0:
                continue
            old, new = history[round_seq - 1][lid], ledger
            if ledger_root(old) == ledger_root(new):
                assert store.find_proof(key, round_seq) is None
            else:
                address = store.find_proof(key, round_seq)
                assert address is not None
                proof = decode_consistency_proof(store.get(address), ALG)
                assert proof.old_size == len(old)
                assert proof.new_size == len(new)
                assert verify_consistency(ledger_root(old), ledger_root(new), proof, ALG)


def test_new_ledger_mid_history_has_no_first_proof():
    state, store, chain = fresh()
    ledgers = {b"a": Ledger.from_payloads(b"a", [b"x"], ALG)}
    state, _ = notarize_round(state, dict(ledgers), store, chain)
    ledgers[b"b"] = Ledger.from_payloads(b"b", [b"y"], ALG)
    state, record = notarize_round(state, dict(ledgers), store, chain)
    assert store.find_proof(ALG.hash(b"b"), 1) is None
    version = TrieVersion(PARAMS, record.trie_root, store)
    assert lookup(version, ALG.hash(b"b")) == ledger_root(ledgers[b"b"])


def test_notarized_map_monotone_and_one_record_per_round():
    rng = random.Random(5)
    state, store, chain = fresh()
    ledgers: dict[bytes, Ledger] = {}
    for round_seq in range(6):
        for _ in range(rng.randint(1, 3)):
            lid = rng.randbytes(4)
            ledgers[lid] = Ledger.from_payloads(lid, [rng.randbytes(4)], ALG)
        previous_notarized = set(state.notarized)
        state, _ = notarize_round(state, dict(ledgers), store, chain)
        assert previous_notarized <= set(state.notarized)
        assert chain.height == round_seq + 1


def test_deterministic_replay_is_bitwise_identical(tmp_path):
    def run(workdir):
        workdir.mkdir()
        rng = random.Random(77)
        store = MemoryStore(ALG)
        chain = Chain(workdir / "chain.log")
        state = NotaryState(PARAMS)
        ledgers: dict[bytes, Ledger] = {
            bytes([i]): Ledger.from_payloads(bytes([i]), [rng.randbytes(5)], ALG)
            for i in range(10)
        }
        for _ in range(4):
            state, _ = notarize_round(state, dict(ledgers), store, chain)
            for lid in list(ledgers):
                if rng.random() < 0.5:
                    ledgers[lid] = ledgers[lid].append(rng.randbytes(5))
        return (workdir / "chain.log").read_bytes(), sorted(store._objects), store._proofs

    a = run(tmp_path / "one")
    b = run(tmp_path / "two")
    assert a == b


def test_failed_round_leaves_state_unchanged_and_retry_matches_clean_run():
    def start():
        state, store, chain = fresh()
        ledgers = {
            lid: Ledger.from_payloads(lid, [lid + b"-0", lid + b"-1"], ALG)
            for lid in (b"a", b"b", b"c")
        }
        state, _ = notarize_round(state, ledgers, store, chain)
        honest = {lid: ledger.append(lid + b"-2") for lid, ledger in ledgers.items()}
        return state, store, chain, ledgers, honest

    state, store, chain, ledgers, honest = start()
    notarized = dict(state.notarized)
    before = (state.last_root, state.round)
    # ``a`` is proved first; ``b``, second in id order, rewrites its history
    forged = {**honest, b"b": Ledger.from_payloads(b"b", [b"b-0", b"X", b"b-2"], ALG)}
    with pytest.raises(LedgerTamperError, match=b"b".hex()):
        notarize_round(state, forged, store, chain)
    assert state.notarized.keys() == notarized.keys()
    assert all(state.notarized[lid] is notarized[lid] for lid in notarized)
    assert all(state.notarized[lid] is ledgers[lid] for lid in ledgers)
    assert (state.last_root, state.round) == before
    assert chain.height == 1

    state, record = notarize_round(state, honest, store, chain)
    clean_state, clean_store, clean_chain, _, clean_honest = start()
    _, clean_record = notarize_round(clean_state, clean_honest, clean_store, clean_chain)
    assert record == clean_record
    assert list(store.items()) == list(clean_store.items())
    assert store._proofs == clean_store._proofs


def _backend(kind, workdir):
    return MemoryStore(ALG) if kind == "memory" else DirectoryStore(workdir, ALG)


def _stored(store, workdir):
    """What a store holds: its objects, its proof index and, on disk, the
    committed ``proofs.idx``."""
    store.commit()
    index = (workdir / "proofs.idx").read_bytes() if isinstance(store, DirectoryStore) else None
    return list(store.items()), dict(store._proofs), index


@pytest.mark.parametrize("kind", ["memory", "directory"])
def test_a_refused_round_indexes_no_proof_and_its_retry_matches_a_clean_run(tmp_path, kind):
    """Round 1 presents ``a`` grown by one block and ``b`` rewritten; ``a``
    grows once more before the retry, so the retry proves ``a`` with
    another proof than the refused attempt made."""

    def run(workdir, refuse):
        store, chain = _backend(kind, workdir), Chain()
        ledgers = {lid: Ledger.from_payloads(lid, [lid + b"-0"], ALG) for lid in (b"a", b"b")}
        state, _ = notarize_round(NotaryState(PARAMS), ledgers, store, chain)
        grown = ledgers[b"a"].append(b"a-1")
        if refuse:
            forged = {b"a": grown, b"b": Ledger.from_payloads(b"b", [b"X", b"b-1"], ALG)}
            with pytest.raises(LedgerTamperError, match=b"b".hex()):
                notarize_round(state, forged, store, chain)
        retry = {b"a": grown.append(b"a-2"), b"b": ledgers[b"b"]}
        _, record = notarize_round(state, retry, store, chain)
        return record, _stored(store, workdir)

    assert run(tmp_path / "refused", True) == run(tmp_path / "clean", False)


@pytest.mark.parametrize("kind", ["memory", "directory"])
def test_a_ledger_in_another_algorithm_is_refused_before_anything_is_stored(tmp_path, kind):
    store, chain = _backend(kind, tmp_path), Chain()
    a = Ledger(b"a", [b"0"], ALG)
    state, _ = notarize_round(NotaryState(PARAMS), {b"a": a}, store, chain)
    before = _stored(store, tmp_path)
    # ``a`` grows first in id order, so its proof would be stored first
    ledgers = {b"a": a.append(b"1"), b"b": Ledger(b"b", [b"0"], SHA512)}
    with pytest.raises(ValueError, match="hashed with sha512, not the trie's sha256"):
        notarize_round(state, ledgers, store, chain)
    assert _stored(store, tmp_path) == before


def test_a_round_keeps_its_input_state_and_holds_only_the_presented_ledgers():
    state, store, chain = fresh()
    ledgers = {bytes([i]): Ledger.from_payloads(bytes([i]), [b"x"], ALG) for i in range(6)}
    state, _ = notarize_round(state, dict(ledgers), store, chain)
    for lid in (b"\x01", b"\x04"):
        ledgers[lid] = ledgers[lid].append(b"y")
    ledgers[b"new"] = Ledger.from_payloads(b"new", [b"z"], ALG)
    notarized = dict(state.notarized)
    after, _ = notarize_round(state, ledgers, store, chain)
    assert state.notarized == notarized
    # the state's one map holds each presented id and ledger, and nothing else
    held = sorted(map(id, gc.get_referents(after.notarized)))
    assert held == sorted(map(id, [*ledgers, *ledgers.values()]))


def test_a_state_rebuilt_without_ledger_objects_steps_each_once_and_matches(monkeypatch):
    """The form a resume rebuilds: root and round, and each id mapped to a
    fresh ledger of its notarized payloads, not to the ledger object the
    round notarized. Its round steps every ledger, publishes no proof for
    an unchanged one, and gives what the kept state gives."""
    stepped, original = [], notary._step

    def step(ledger, old_digest, old_size):
        stepped.append(ledger.id)
        return original(ledger, old_digest, old_size)

    monkeypatch.setattr(notary, "_step", step)

    def run(rebuild):
        state, store, chain = fresh()
        ledgers = {bytes([i]): Ledger(bytes([i]), [bytes([i])], ALG) for i in range(6)}
        state, _ = notarize_round(state, dict(ledgers), store, chain)
        if rebuild:
            notarized = {
                lid: Ledger(lid, [block.payload for block in ledger.blocks], ALG)
                for lid, ledger in state.notarized.items()
            }
            state = NotaryState(
                PARAMS, last_root=state.last_root, round=state.round, notarized=notarized
            )
        for lid in (b"\x01", b"\x04"):
            ledgers[lid] = ledgers[lid].append(b"y")
        stepped.clear()
        after, record = notarize_round(state, ledgers, store, chain)
        states = {lid: (ledger_root(ledger), len(ledger)) for lid, ledger in after.notarized.items()}
        return sorted(stepped), (states, after.last_root, record), _stored(store, None)

    kept_steps, kept, kept_stored = run(False)
    rebuilt_steps, rebuilt, rebuilt_stored = run(True)
    assert kept_steps == [b"\x01", b"\x04"]
    assert rebuilt_steps == [bytes([i]) for i in range(6)]
    assert (rebuilt, rebuilt_stored) == (kept, kept_stored)
    assert sorted(rebuilt_stored[1]) == sorted((ALG.hash(lid), 1) for lid in (b"\x01", b"\x04"))


def test_state_fields_after_params_are_keyword_only():
    """A stale positional call would read ``{}`` as "no root"; it raises."""
    with pytest.raises(TypeError):
        NotaryState(PARAMS, {}, 3)
    with pytest.raises(TypeError):
        NotaryState(PARAMS, ALG.zero)
    fields = [field.name for field in dataclasses.fields(NotaryState)]
    assert fields == ["params", "last_root", "round", "notarized"]


def test_the_old_digest_holds_after_the_notarized_ledgers_root_memos_moved():
    """Between rounds an audit with disclosed data and a ``root_at`` at every
    size, largest first, leave no notarized ledger's log remembering its
    notarized root. The next round still refuses a fork, leaving the state
    and the store as they were, and a round of grown ledgers then gives
    what an undisturbed run gives."""

    def run(disturb):
        state, store, chain = fresh()
        ledgers = {
            bytes([i]): Ledger(bytes([i]), [bytes([i, j]) for j in range(i + 1)], ALG)
            for i in range(5)
        }
        state, _ = notarize_round(state, dict(ledgers), store, chain)
        ledgers[b"\x02"] = ledgers[b"\x02"].append(b"y")
        state, _ = notarize_round(state, dict(ledgers), store, chain)
        if disturb:
            report = audit_ledger(b"\x03", ledgers[b"\x03"], chain.read_roots(), store, PARAMS)
            assert report.exit_code == 0
            for ledger in state.notarized.values():
                for size in reversed(range(len(ledger) + 1)):
                    root_at(ledger, size)
        grown = {
            lid: ledger.append(b"z") if lid in (b"\x01", b"\x02", b"\x03") else ledger
            for lid, ledger in ledgers.items()
        }
        payloads = [block.payload for block in ledgers[b"\x04"].blocks]
        payloads[1] = b"X"
        forged = {**grown, b"\x04": Ledger(b"\x04", [*payloads, b"z"], ALG)}
        kept, before = dict(state.notarized), (state.last_root, state.round, chain.records())
        stored = _stored(store, None)
        with pytest.raises(LedgerTamperError, match="rewrote history before block 5"):
            notarize_round(state, forged, store, chain)
        assert state.notarized == kept
        assert (state.last_root, state.round, chain.records()) == before
        assert _stored(store, None) == stored
        _, record = notarize_round(state, grown, store, chain)
        return record, _stored(store, None)

    assert run(True) == run(False)


def _start_directory_run(workdir):
    """Round 0 of a seeded history on a DirectoryStore and file chain in ``workdir``."""
    rng = random.Random(5)
    ledgers = {bytes([i]): Ledger.from_payloads(bytes([i]), [rng.randbytes(5)], ALG) for i in range(8)}
    store, chain = DirectoryStore(workdir, ALG), Chain(workdir / "chain.log")
    state, _ = notarize_round(NotaryState(PARAMS), dict(ledgers), store, chain)
    return rng, ledgers, store, chain, state


def _append_to_all(rng, ledgers):
    """Every ledger appends, so the next round publishes proofs."""
    return {lid: ledger.append(rng.randbytes(5)) for lid, ledger in ledgers.items()}


def test_directory_round_commits_pack_then_index_then_journal(tmp_path, appends):
    log = appends.log
    rng, ledgers, store, chain, state = _start_directory_run(tmp_path)
    with store:
        for _ in range(4):
            ledgers = _append_to_all(rng, ledgers)
            log.clear()
            state, _ = notarize_round(state, ledgers, store, chain)
            assert log == ["objects.pack", "proofs.idx", "chain.log"]


def test_failed_commit_raises_before_publish_and_retry_matches_clean_run(tmp_path, appends):
    def files(workdir):
        return [(workdir / name).read_bytes() for name in ("objects.pack", "proofs.idx", "chain.log")]

    def run(workdir, tear):
        workdir.mkdir()
        rng, ledgers, store, chain, state = _start_directory_run(workdir)
        with store:
            for _ in range(2):
                ledgers = _append_to_all(rng, ledgers)
                before = files(workdir)
                for name in ("objects.pack", "proofs.idx") if tear else ():
                    appends.short = {name}
                    with pytest.raises(OSError, match="short write"):
                        notarize_round(state, ledgers, store, chain)
                    appends.short = set()
                    assert files(workdir)[1:] == before[1:]  # no index line, no journal line
                    assert chain.height == state.round
                state, _ = notarize_round(state, ledgers, store, chain)
        return files(workdir)

    assert run(tmp_path / "torn", True) == run(tmp_path / "clean", False)


def test_a_crash_at_any_byte_of_a_commit_keeps_audits_passing_and_resumes(tmp_path):
    """Cut round 3's appends, taken in commit order (pack, then index, then
    journal), after every byte: every ledger's audit of the reopened
    workdir passes, and re-running the round from the saved state leaves
    all three files as a run that never stopped does."""
    names = ("objects.pack", "proofs.idx", "chain.log")
    rng = random.Random(7)
    ids = [f"ledger-{i}".encode() for i in range(6)]
    ledgers = {lid: Ledger.from_payloads(lid, [rng.randbytes(8)], ALG) for lid in ids}
    workdir, crashed = tmp_path / "clean", tmp_path / "crashed"
    state = NotaryState(PARAMS)
    with DirectoryStore(workdir, ALG) as store:
        chain = Chain(workdir / "chain.log")
        for _ in range(3):
            state, _ = notarize_round(state, dict(ledgers), store, chain)
            for lid in rng.sample(sorted(ledgers), 3):  # half the ledgers grow
                ledgers[lid] = ledgers[lid].append(rng.randbytes(8))
        committed = [(workdir / name).read_bytes() for name in names]
        notarize_round(state, ledgers, store, chain)
    final = [(workdir / name).read_bytes() for name in names]
    appends = [whole[len(part) :] for part, whole in zip(committed, final)]
    assert [part + tail for part, tail in zip(committed, appends)] == final
    crashed.mkdir()
    for cut in range(sum(map(len, appends))):
        left = cut
        for name, part, tail in zip(names, committed, appends):
            (crashed / name).write_bytes(part + tail[:left])
            left = max(0, left - len(tail))
        with DirectoryStore(crashed, ALG) as store:
            chain = Chain(crashed / "chain.log")
            for lid in ledgers:
                report = audit_ledger(lid, None, chain.read_roots(), store, PARAMS)
                assert report.exit_code == 0, (cut, lid)
            notarize_round(state, ledgers, store, chain)
        assert [(crashed / name).read_bytes() for name in names] == final, cut


def test_fresh_objects_with_same_blocks_only_rechain_then_cost_nothing(merkle_hashes):
    state, store, chain = fresh()
    payloads = [bytes([i]) for i in range(6)]
    ids = [bytes([i]) for i in range(8)]
    state, first = notarize_round(
        state, {lid: Ledger.from_payloads(lid, payloads, ALG) for lid in ids}, store, chain
    )
    again = {lid: Ledger.from_payloads(lid, payloads, ALG) for lid in ids}
    objects, proofs = len(store), dict(store._proofs)
    merkle_hashes()
    state, second = notarize_round(state, again, store, chain)
    assert merkle_hashes() > 0  # each fresh object's digest is recomputed
    assert store._proofs == proofs
    assert len(store) == objects + 1  # a rechain writes only the new root
    new_root = parse_node(store.get(second.trie_root), PARAMS)
    assert new_root.prev_root == first.trie_root
    assert new_root.children == parse_node(store.get(first.trie_root), PARAMS).children

    state, _ = notarize_round(state, again, store, chain)
    assert merkle_hashes() == 0
    assert store._proofs == proofs


# ------------------------------------------------------------ empty ledgers

def test_a_ledger_registered_empty_grows_and_audits():
    state, store, chain = fresh()
    ledgers = {b"e": Ledger(b"e", (), ALG), b"f": Ledger.from_payloads(b"f", [b"y"], ALG)}
    state, _ = notarize_round(state, dict(ledgers), store, chain)
    for round_seq in range(1, 4):
        ledgers[b"e"] = ledgers[b"e"].append(bytes([round_seq]))
        state, _ = notarize_round(state, dict(ledgers), store, chain)
    growth = store.get(store.find_proof(ALG.hash(b"e"), 1))
    assert decode_consistency_proof(growth, ALG) == ConsistencyProof(0, 1, ())
    roots = chain.read_roots()
    report = audit_ledger(b"e", ledgers[b"e"], roots, store, PARAMS)
    assert all(check.status is Status.PASS for check in report.checks().values()), report
    bundle = make_audit_proof(b"e", len(roots) - 1, roots, store, PARAMS)
    replayed = verify_audit_proof(decode_audit_proof(encode_audit_proof(bundle)), b"e", roots)
    assert replayed.exit_code == 0
    assert replayed.history == report.history


def test_single_mode_growth_from_empty_carries_a_proof_of_no_hashes():
    chain = Chain()
    empty = Ledger(b"e", (), ALG)
    first = notarize_single(empty, None, chain)
    grown = empty.append(b"x").append(b"y")
    second = notarize_single(grown, (ALG.hash(b""), 0), chain)
    proof = decode_consistency_proof(second.note, ALG)
    assert proof == ConsistencyProof(0, 2, ())
    assert verify_consistency(first.trie_root, second.trie_root, proof, ALG)


def test_a_size_zero_proof_for_a_rewritten_value_does_not_verify():
    # The final round rewrites ledger a's value, which was notarized
    # non-empty, and indexes a size-0 proof for the change: the empty tree's
    # proof says nothing about a ledger that already held blocks.
    state, store, chain = fresh()
    ledgers = {lid: Ledger.from_payloads(lid, [lid], ALG) for lid in (b"a", b"b")}
    for _ in range(3):
        state, _ = notarize_round(state, dict(ledgers), store, chain)
    roots = chain.read_roots()
    last, key = len(roots) - 1, ALG.hash(b"a")
    assoc = associations(TrieVersion(PARAMS, roots[last], store))
    assoc[key] = ALG.hash(b"forged")
    forged = encode_consistency_proof(ConsistencyProof(0, 2, ()))
    store.index_proof(key, last, store.put(forged))
    roots[last] = build(PARAMS, assoc, roots[last - 1], store).root_digest
    report = audit_ledger(b"a", None, roots, store, PARAMS)
    assert report.no_forks == CheckResult(
        Status.FAIL, last, "published consistency proof does not verify"
    )
    assert report.exit_code == 1


@settings(max_examples=100, deadline=None)
@given(start=st.integers(0, 5), steps=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_single_mode_publishes_what_a_one_ledger_round_stores(start, steps):
    """Both procedures run one step: at every step the single record's root
    is the digest the round published for it, and its note is the proof the round
    indexed, or empty where it indexed none."""
    payloads = [bytes([i]) for i in range(start)]
    # one ledger object per procedure, so neither reads what the other hashed
    in_round, single = Ledger(b"solo", payloads, ALG), Ledger(b"solo", payloads, ALG)
    key = ALG.hash(b"solo")
    state, store, chain = fresh()
    single_chain = Chain()
    prev = None
    for round_seq, grow in enumerate([0, *steps]):
        for _ in range(grow):
            payload = bytes([len(in_round)])
            in_round, single = in_round.append(payload), single.append(payload)
        state, _ = notarize_round(state, {b"solo": in_round}, store, chain)
        record = notarize_single(single, prev, single_chain)
        assert record.trie_root == lookup(TrieVersion(PARAMS, state.last_root, store), key)
        address = store.find_proof(key, round_seq)
        assert record.note == (b"" if address is None else store.get(address))
        prev = (record.trie_root, len(single))


# ------------------------------------------------------------ single ledger

def test_single_mode_first_record_has_empty_note():
    chain = Chain()
    ledger = Ledger.from_payloads(b"solo", [b"a"], ALG)
    record = notarize_single(ledger, None, chain)
    assert record.seq == 0
    assert record.note == b""
    assert record.trie_root == ledger_root(ledger)


def test_single_mode_note_carries_verifiable_proof():
    chain = Chain()
    ledger = Ledger.from_payloads(b"solo", [bytes([i]) for i in range(4)], ALG)
    first = notarize_single(ledger, None, chain)
    for i in range(4, 8):
        ledger = ledger.append(bytes([i]))
    second = notarize_single(ledger, (first.trie_root, 4), chain)
    proof = decode_consistency_proof(second.note, ALG)
    assert (proof.old_size, proof.new_size) == (4, 8)
    assert len(second.note) <= 1024
    assert verify_consistency(first.trie_root, second.trie_root, proof, ALG)


def test_single_mode_detects_rewrite():
    chain = Chain()
    ledger = Ledger.from_payloads(b"solo", [b"a", b"b"], ALG)
    first = notarize_single(ledger, None, chain)
    rewritten = Ledger.from_payloads(b"solo", [b"a", b"X", b"c"], ALG)
    with pytest.raises(LedgerTamperError):
        notarize_single(rewritten, (first.trie_root, 2), chain)


def test_single_mode_oversize_proof_rejected():
    # with 64-byte digests, the proof for 1 -> 2^15 blocks plus the root
    # digest is 1040 bytes and no longer fits the note capacity
    from trienotary.crypto import SHA512

    chain = Chain()
    payloads = [i.to_bytes(2, "big") for i in range(2 ** 15)]
    first_version = Ledger.from_payloads(b"big", payloads[:1], SHA512)
    first = notarize_single(first_version, None, chain)
    big = Ledger.from_payloads(b"big", payloads, SHA512)
    with pytest.raises(OversizeNoteError):
        notarize_single(big, (first.trie_root, 1), chain)
    assert chain.height == 1


def test_annual_record_count_is_rounds_not_ledgers():
    state, store, chain = fresh()
    ledgers = {bytes([i]): Ledger.from_payloads(bytes([i]), [b"x"], ALG) for i in range(25)}
    for _ in range(365):
        state, _ = notarize_round(state, dict(ledgers), store, chain)
    assert chain.height == 365
