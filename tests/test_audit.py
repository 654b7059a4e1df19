"""The external audit: honest completeness, fault soundness, offline proofs."""

from __future__ import annotations

import random

import pytest

from harness import (
    History,
    inject_chain_mismatch,
    inject_fork,
    inject_node_corruption,
    inject_proof_corruption,
    inject_removal,
    run_history,
)
from trienotary.audit import (
    Status,
    audit_ledger,
    decode_audit_proof,
    encode_audit_proof,
    make_audit_proof,
    verify_audit_proof,
)
from trienotary.chain import Chain
from trienotary.crypto import SHA256
from trienotary.errors import CannotConstructError
from trienotary.merkle import Ledger, ledger_root, prove_consistency, root_at
from trienotary.store import MemoryStore
from trienotary.trie import TrieParams

ALG = SHA256


def audit(history: History, ledger_id: bytes, chain: Chain | None = None, claimed="ledger"):
    chain = chain or history.chain
    if claimed == "ledger":
        claimed = history.ledgers.get(ledger_id)
    return audit_ledger(
        ledger_id, claimed, chain.read_roots(), history.store, history.params
    )


# ------------------------------------------------------------- completeness

@pytest.mark.parametrize("seed", range(8))
def test_honest_history_passes_every_check(seed):
    rng = random.Random(seed)
    history = run_history(
        seed,
        n_ledgers=rng.randint(1, 6),
        rounds=rng.randint(1, 6),
        params=TrieParams(rng.choice([2, 4, 8]), rng.choice([1, 2, 4]), ALG),
        late_joiners=rng.randint(0, 1),
    )
    for lid in history.ledgers:
        report = audit(history, lid)
        assert report.verdict is Status.PASS, (lid, report.checks())
        assert report.exit_code == 0
        assert not report.uncovered_rounds


def test_late_joiner_has_null_prefix_history():
    history = run_history(3, n_ledgers=2, rounds=4, late_joiners=1)
    late = next(lid for lid in history.ledgers if lid.startswith(b"late-"))
    report = audit(history, late)
    assert report.verdict is Status.PASS
    first_value = next(i for i, v in enumerate(report.history) if v is not None)
    assert first_value > 0
    assert all(v is None for v in report.history[:first_value])
    assert all(v is not None for v in report.history[first_value:])


def test_never_notarized_id_claim_fails():
    history = run_history(4, n_ledgers=2, rounds=2)
    report = audit(history, b"ghost", claimed=ALG.hash(b"some digest"))
    assert all(v is None for v in report.history)
    assert report.disclosed_data_match.status is Status.FAIL
    assert report.no_removal.status is Status.PASS


def test_claimed_none_skips_disclosure_check():
    history = run_history(5, n_ledgers=2, rounds=2)
    report = audit(history, b"ledger-0", claimed=None)
    assert report.disclosed_data_match.status is Status.NOT_CHECKED
    assert report.verdict is Status.PASS


def _two_round_history_with_gap() -> tuple[History, bytes, int, int]:
    """Two notarized sizes with unnotarized states strictly between them."""
    from trienotary.notary import NotaryState, notarize_round

    lid = b"solo"
    params = TrieParams(2, 1, ALG)
    store = MemoryStore(ALG)
    chain = Chain()
    state = NotaryState(params)
    ledger = Ledger.from_payloads(lid, [b"b0", b"b1"], ALG)
    state, _ = notarize_round(state, {lid: ledger}, store, chain)
    for i in range(2, 6):
        ledger = ledger.append(b"b%d" % i)
    state, _ = notarize_round(state, {lid: ledger}, store, chain)
    history = History(params, store, chain, {lid: ledger})
    history.snapshots = [
        {lid: Ledger.from_payloads(lid, [b"b0", b"b1"], ALG)},
        {lid: ledger},
    ]
    history.assocs = [
        {ALG.hash(lid): root_at(ledger, 2)},
        {ALG.hash(lid): ledger_root(ledger)},
    ]
    return history, lid, 2, 6


def test_stale_claimed_digest_fails_without_bridge():
    history, lid, old_size, new_size = _two_round_history_with_gap()
    between = old_size + 2
    claimed = root_at(history.ledgers[lid], between)
    report = audit(history, lid, claimed=claimed)
    assert report.disclosed_data_match.status is Status.FAIL
    assert report.verdict is Status.FAIL
    # a notarized digest itself is accepted without extra proofs
    report = audit(history, lid, claimed=root_at(history.ledgers[lid], old_size))
    assert report.disclosed_data_match.status is Status.PASS


def test_claimed_digest_bridged_by_shared_proofs():
    history, lid, old_size, new_size = _two_round_history_with_gap()
    final = history.ledgers[lid]
    between = old_size + 2
    claimed = root_at(final, between)
    bridge = (
        prove_consistency(final, old_size, between),
        prove_consistency(final, between, new_size),
    )
    report = audit_ledger(
        lid, claimed, history.chain.read_roots(), history.store, history.params,
        extra_proofs=bridge,
    )
    assert report.disclosed_data_match.status is Status.PASS
    assert report.verdict is Status.PASS
    # one-sided sharing is not enough: the next value must also be covered
    report = audit_ledger(
        lid, claimed, history.chain.read_roots(), history.store, history.params,
        extra_proofs=bridge[:1],
    )
    assert report.disclosed_data_match.status is Status.FAIL


# ---------------------------------------------------------------- soundness

def test_removed_key_flags_no_removal():
    history = run_history(10, n_ledgers=3, rounds=3)
    tampered = inject_removal(history, b"ledger-1")
    report = audit(history, b"ledger-1", chain=tampered, claimed=None)
    assert report.no_removal.status is Status.FAIL
    assert report.no_removal.round == 2
    assert report.exit_code == 1


def test_forked_value_flags_no_forks():
    rng = random.Random(11)
    history = run_history(11, n_ledgers=3, rounds=3, p_append=1.0)
    tampered = inject_fork(history, b"ledger-2", rng)
    report = audit(history, b"ledger-2", chain=tampered, claimed=None)
    assert report.no_forks.status is Status.FAIL
    assert report.exit_code == 1


def test_chain_mismatch_flags_chain_match():
    rng = random.Random(12)
    history = run_history(12, n_ledgers=2, rounds=4)
    tampered = inject_chain_mismatch(history, rng)
    report = audit(history, b"ledger-0", chain=tampered, claimed=None)
    assert report.chain_match.status is Status.FAIL
    assert report.exit_code == 1


def test_corrupted_node_is_inconclusive_never_pass():
    history = run_history(13, n_ledgers=3, rounds=3)
    inject_node_corruption(history, b"ledger-0")
    report = audit(history, b"ledger-0", claimed=None)
    assert report.verdict is Status.INCONCLUSIVE
    assert report.exit_code == 2
    assert report.unresolved_rounds


def test_corrupted_proof_is_inconclusive_never_pass():
    history = run_history(14, n_ledgers=2, rounds=4, p_append=1.0)
    inject_proof_corruption(history, b"ledger-1")
    report = audit(history, b"ledger-1", claimed=None)
    assert report.verdict is Status.INCONCLUSIVE
    assert report.no_forks.status is Status.INCONCLUSIVE


def test_duplicate_key_leaf_flags_alternative_histories():
    # handcrafted malicious trie: an internal root referencing a leaf whose
    # two tuples carry the same key (unparseable as a canonical node)
    params = TrieParams(2, 1, ALG)
    store = MemoryStore(ALG)
    lid = b"victim"
    key = ALG.hash(lid)
    bad_leaf = bytes([0x02, 1]) + key + ALG.hash(b"v1") + key + ALG.hash(b"v2")
    leaf_addr = store.put(bad_leaf)
    other = bytearray(key)
    other[0] ^= 0x80  # sibling under the opposite first bit
    sibling = store.put(bytes([0x02, 0]) + bytes(other) + ALG.hash(b"x"))
    first_label = key[0] >> 7
    children = sorted([(first_label, leaf_addr), (1 - first_label, sibling)])
    bitmap = (0x80 >> children[0][0]) | (0x80 >> children[1][0])
    root = store.put(
        bytes([0x03, bitmap]) + children[0][1] + children[1][1] + ALG.zero
    )
    report = audit_ledger(lid, None, [root], store, params)
    assert report.no_alternative_histories.status is Status.FAIL
    assert report.exit_code == 1


def test_overdeep_malicious_trie_fails_instead_of_crashing():
    # a lineage of unary internal nodes deeper than the key has bits: the
    # search must flag it as malformed, not raise
    from trienotary.trie import InternalNode, serialize_node
    from trienotary.crypto import label_at, max_depth

    params = TrieParams(2, 1, ALG)
    store = MemoryStore(ALG)
    lid = b"victim"
    key = ALG.hash(lid)
    current = store.put(serialize_node(InternalNode(((0, ALG.hash(b"dummy")),)), params))
    for depth in range(max_depth(32, 2) - 1, 0, -1):
        node = InternalNode(((label_at(key, depth, 2), current),))
        current = store.put(serialize_node(node, params))
    root_node = InternalNode(((label_at(key, 0, 2), current),), prev_root=ALG.zero)
    root = store.put(serialize_node(root_node, params))
    report = audit_ledger(lid, None, [root], store, params)
    assert report.no_alternative_histories.status is Status.FAIL
    assert report.exit_code == 1


def test_indexed_proof_with_missing_object_is_inconclusive():
    history = run_history(16, n_ledgers=2, rounds=3, p_append=1.0)
    key = history.key_of(b"ledger-0")
    for round_seq in range(1, history.chain.height):
        address = history.store.find_proof(key, round_seq)
        if address is not None:
            del history.store._objects[address]
            break
    report = audit(history, b"ledger-0", claimed=None)
    assert report.no_forks.status is Status.INCONCLUSIVE
    assert report.exit_code == 2


def test_missing_storage_is_inconclusive_not_fail():
    history = run_history(15, n_ledgers=2, rounds=2)
    empty = MemoryStore(ALG)
    report = audit_ledger(
        b"ledger-0", None, history.chain.read_roots(), empty, history.params
    )
    assert report.verdict is Status.INCONCLUSIVE
    assert report.chain_match.status is Status.INCONCLUSIVE


# ------------------------------------------------------------- audit proofs

def test_single_round_proof_contains_just_the_root_leaf():
    history = run_history(20, n_ledgers=1, rounds=1)
    proof = make_audit_proof(
        b"ledger-0", 0, history.chain.read_roots(), history.store, history.params
    )
    assert len(proof.nodes) == 1
    assert ALG.hash(proof.nodes[0]) == history.chain.read_roots()[0]
    report = verify_audit_proof(proof, b"ledger-0", history.chain.read_roots())
    assert report.verdict is Status.PASS


@pytest.mark.parametrize("seed", range(6))
def test_verify_matches_storage_audit(seed):
    rng = random.Random(1000 + seed)
    history = run_history(
        1000 + seed,
        n_ledgers=rng.randint(1, 5),
        rounds=rng.randint(1, 5),
        params=TrieParams(rng.choice([2, 4]), rng.choice([1, 2]), ALG),
        late_joiners=rng.randint(0, 1),
    )
    roots = history.chain.read_roots()
    for lid in history.ledgers:
        direct = audit_ledger(lid, None, roots, history.store, history.params)
        proof = make_audit_proof(lid, len(roots) - 1, roots, history.store, history.params)
        offline = verify_audit_proof(proof, lid, roots)
        assert offline.verdict is direct.verdict
        assert offline.history == direct.history
        assert offline.checks().keys() == direct.checks().keys()
        for name, check in offline.checks().items():
            assert check.status is direct.checks()[name].status, name


def test_static_proof_scoping_after_chain_extension():
    history = run_history(21, n_ledgers=2, rounds=2)
    roots_then = history.chain.read_roots()
    proof = make_audit_proof(
        b"ledger-0", 1, roots_then, history.store, history.params
    )
    # chain grows by two rounds after the proof was built (same seed replays
    # the identical prefix)
    extended = run_history(21, n_ledgers=2, rounds=4)
    roots_now = extended.chain.read_roots()
    assert roots_now[:2] == roots_then
    report = verify_audit_proof(proof, b"ledger-0", roots_now)
    assert report.covered_rounds == 2
    assert report.uncovered_rounds == (2, 3)
    assert report.verdict is Status.PASS  # covered rounds still verify


def test_proof_for_wrong_ledger_fails():
    history = run_history(22, n_ledgers=2, rounds=2)
    roots = history.chain.read_roots()
    proof = make_audit_proof(b"ledger-0", 1, roots, history.store, history.params)
    report = verify_audit_proof(proof, b"ledger-1", roots)
    assert report.verdict is Status.FAIL


def test_cannot_construct_from_incomplete_storage():
    history = run_history(23, n_ledgers=3, rounds=3)
    inject_node_corruption(history, b"ledger-0")
    with pytest.raises(CannotConstructError):
        make_audit_proof(
            b"ledger-0", 2, history.chain.read_roots(), history.store, history.params
        )


def test_proof_size_grows_linearly_with_rounds():
    sizes = {}
    for rounds in (2, 6, 10):
        history = run_history(24, n_ledgers=3, rounds=rounds, p_append=0.0)
        proof = make_audit_proof(
            b"ledger-0",
            rounds - 1,
            history.chain.read_roots(),
            history.store,
            history.params,
        )
        sizes[rounds] = len(encode_audit_proof(proof))
    step_one = sizes[6] - sizes[2]
    step_two = sizes[10] - sizes[6]
    assert step_one > 0
    assert step_two == step_one  # quiescent ledger: one re-chained root per round


def test_bundle_encoding_round_trip():
    history = run_history(25, n_ledgers=3, rounds=3, p_append=1.0)
    roots = history.chain.read_roots()
    proof = make_audit_proof(b"ledger-1", 2, roots, history.store, history.params)
    blob = encode_audit_proof(proof)
    assert decode_audit_proof(blob) == proof
    with pytest.raises(ValueError):
        decode_audit_proof(blob[:-3])
    with pytest.raises(ValueError):
        decode_audit_proof(blob + b"\x00")


def test_single_byte_corruption_of_bundle_never_passes_cleanly():
    history = run_history(26, n_ledgers=2, rounds=2, p_append=1.0)
    roots = history.chain.read_roots()
    proof = make_audit_proof(b"ledger-0", 1, roots, history.store, history.params)
    blob = encode_audit_proof(proof)
    baseline = verify_audit_proof(proof, b"ledger-0", roots)
    assert baseline.verdict is Status.PASS
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 0x01
        try:
            decoded = decode_audit_proof(bytes(mutated))
        except ValueError:
            continue  # undecodable bundle reads as inconclusive downstream
        report = verify_audit_proof(decoded, b"ledger-0", roots)
        # a flip may shrink the claimed coverage; it must never produce a
        # clean pass over the original scope
        clean_pass = (
            report.verdict is Status.PASS
            and report.covered_rounds == baseline.covered_rounds
        )
        assert not clean_pass, position


# ------------------------------------------------------------- fetch counts

class _CountingStore(MemoryStore):
    def __init__(self, alg):
        super().__init__(alg)
        self.gets: list[bytes] = []

    def get(self, address: bytes) -> bytes:
        self.gets.append(address)
        return super().get(address)


def test_audit_and_prove_fetch_each_distinct_object_once(monkeypatch):
    """200 ledgers x 50 rounds (r=4, k=2): one get per distinct address.

    Before the key-path walker and its per-run memo, auditing ledger-17
    made 268 gets for 225 distinct addresses and parsed 250 nodes.
    """
    from trienotary import audit as audit_module
    from trienotary import trie as trie_module

    history = run_history(7, n_ledgers=200, rounds=50, params=TrieParams(4, 2, ALG),
                          p_append=0.3)
    store = _CountingStore(ALG)
    store._objects, store._proofs = history.store._objects, history.store._proofs
    roots = history.chain.read_roots()
    parsed = []
    real_parse = trie_module.parse_node

    def counting_parse(data, params):
        parsed.append(data)
        return real_parse(data, params)

    for module in (audit_module, trie_module):
        monkeypatch.setattr(module, "parse_node", counting_parse)

    report = audit_ledger(b"ledger-17", None, roots, store, history.params)
    assert report.verdict is Status.PASS
    audit_gets, store.gets = store.gets, []
    proof = make_audit_proof(b"ledger-17", len(roots) - 1, roots, store, history.params)

    assert len(audit_gets) == 225
    assert len(set(audit_gets)) == 225
    assert len(audit_gets) == len(proof.nodes) + len(proof.proofs)
    assert store.gets == audit_gets
    assert len(parsed) == 2 * len(roots)  # each version root, once per run
    assert {ALG.hash(data) for data in parsed} == set(roots)
