"""The external audit: honest completeness, fault soundness, offline proofs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adversary import flip, inject
from harness import CountingStore, History, run_history
from trienotary.audit import (
    AuditReport,
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
from trienotary.errors import CannotConstructError
from trienotary.merkle import (
    ConsistencyProof,
    InclusionProof,
    Ledger,
    prove_consistency,
    root_at,
)
from trienotary.store import MemoryStore
from trienotary.trie import (
    InternalNode,
    LeafNode,
    TrieParams,
    TrieVersion,
    build,
    parse_node,
    search_path,
)

ALG = SHA256


def audit(history: History, ledger_id: bytes, roots: list[bytes] | None = None, claimed="ledger"):
    roots = roots or history.chain.read_roots()
    if claimed == "ledger":
        claimed = history.ledgers.get(ledger_id)
    return audit_ledger(ledger_id, claimed, roots, history.store, history.params)


def forged_roots(history: History, kind: str, ledger_id=None, rng=None) -> list[bytes]:
    """The trie roots the adversary publishes after fault ``kind`` on ``history``."""
    records = inject(kind, history.params, history.store, history.chain.records(), ledger_id, rng)
    return [record.trie_root for record in records]


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


def test_claimed_ledger_in_another_algorithm_is_refused():
    history = run_history(5, n_ledgers=2, rounds=2)
    payloads = [block.payload for block in history.ledgers[b"ledger-0"].blocks]
    other = Ledger.from_payloads(b"ledger-0", payloads, SHA512)
    with pytest.raises(ValueError, match="claimed ledger uses sha512, the deployment sha256"):
        audit(history, b"ledger-0", claimed=other)
    bundle = make_audit_proof(
        b"ledger-0", 1, history.chain.read_roots(), history.store, history.params
    )
    with pytest.raises(ValueError, match="claimed ledger uses sha512"):
        verify_audit_proof(bundle, b"ledger-0", history.chain.read_roots(), claimed=other)


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
    return History(params, store, chain, {lid: ledger}), lid, 2, 6


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
    roots = forged_roots(history, "remove-key", b"ledger-1")
    report = audit(history, b"ledger-1", roots, claimed=None)
    assert report.no_removal.status is Status.FAIL
    assert report.no_removal.round == 2
    assert report.exit_code == 1


def test_forked_value_flags_no_forks():
    rng = random.Random(11)
    history = run_history(11, n_ledgers=3, rounds=3, p_append=1.0)
    roots = forged_roots(history, "fork-value", b"ledger-2", rng)
    report = audit(history, b"ledger-2", roots, claimed=None)
    assert report.no_forks.status is Status.FAIL
    assert report.exit_code == 1


def test_chain_mismatch_flags_chain_match():
    rng = random.Random(12)
    history = run_history(12, n_ledgers=2, rounds=4)
    roots = forged_roots(history, "chain-mismatch", rng=rng)
    report = audit(history, b"ledger-0", roots, claimed=None)
    assert report.chain_match.status is Status.FAIL
    assert report.exit_code == 1


def test_corrupted_node_is_inconclusive_never_pass():
    history = run_history(13, n_ledgers=3, rounds=3)
    inject("corrupt-node", history.params, history.store, history.chain.records(), b"ledger-0")
    report = audit(history, b"ledger-0", claimed=None)
    assert report.verdict is Status.INCONCLUSIVE
    assert report.exit_code == 2
    assert report.unresolved_rounds


def test_corrupted_proof_is_inconclusive_never_pass():
    history = run_history(14, n_ledgers=2, rounds=4, p_append=1.0)
    inject("corrupt-proof", history.params, history.store, history.chain.records(), b"ledger-1")
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


def _unary_trie(params: TrieParams, key: bytes, value: bytes, depth: int, store) -> bytes:
    """The root of a one-version lineage: unary internal nodes at depths
    0..depth-1 on ``key``'s labels (label 0 past its last full label), over
    a leaf holding ``key``."""
    from trienotary.crypto import label_at, max_depth
    from trienotary.trie import InternalNode, LeafNode, serialize_node

    current = store.put(serialize_node(LeafNode(((key, value),)), params))
    last = max_depth(len(key), params.r)
    for d in range(depth - 1, -1, -1):
        label = label_at(key, d, params.r) if d < last else 0
        node = InternalNode(((label, current),), params.alg.zero if d == 0 else None)
        current = store.put(serialize_node(node, params))
    return current


@pytest.mark.parametrize("alg", [SHA256, SHA512], ids=lambda alg: alg.name)
@pytest.mark.parametrize("r", [2, 4, 8, 16, 32, 64, 128, 256])
def test_the_walk_reads_the_keys_last_full_label_and_no_further(r, alg):
    """A hostile trie exactly as deep as the key has full labels decides the
    key at its leaf, so the walk took the last full label, also where the
    label width leaves bits over; one level deeper is malformed."""
    from trienotary.crypto import max_depth

    params = TrieParams(r, 1, alg)
    store = MemoryStore(alg)
    lid = b"victim"
    key = alg.hash(lid)
    value = alg.hash(b"value")
    deepest = max_depth(len(key), r)

    root = _unary_trie(params, key, value, deepest, store)
    report = audit_ledger(lid, None, [root], store, params)
    assert report.exit_code == 0, report.checks()
    assert report.history == (value,)

    root = _unary_trie(params, key, value, deepest + 1, store)
    report = audit_ledger(lid, None, [root], store, params)
    assert report.no_alternative_histories == CheckResult(
        Status.FAIL, 0, "malformed node: trie deeper than the key has bits"
    )
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


class UnreadableStore(MemoryStore):
    """MemoryStore whose ``get`` of one address raises an OSError."""

    unreadable = None

    def get(self, address: bytes) -> bytes:
        if address == self.unreadable:
            raise OSError(5, "Input/output error")
        return super().get(address)


GAP = CheckResult(Status.INCONCLUSIVE, 2, "history has gaps")
# the checks a gap in the newest round gives, the same for a missing and
# a corrupted object: an audit cannot tell the two apart
READ_GAPS = {
    "node": {
        "chain_match": CheckResult(Status.PASS),
        "no_alternative_histories": CheckResult(
            Status.INCONCLUSIVE, 2, "value unresolved in storage"
        ),
        "no_removal": GAP,
        "no_forks": GAP,
        "disclosed_data_match": CheckResult(
            Status.INCONCLUSIVE, 2, "digest unmatched but history has gaps"
        ),
    },
    "proof": {
        "chain_match": CheckResult(Status.PASS),
        "no_alternative_histories": CheckResult(Status.PASS),
        "no_removal": CheckResult(Status.PASS),
        "no_forks": CheckResult(
            Status.INCONCLUSIVE, 2, "no consistency proof retrievable for a value change"
        ),
        "disclosed_data_match": CheckResult(Status.PASS),
    },
}


@pytest.mark.parametrize("target", sorted(READ_GAPS))
@pytest.mark.parametrize("damage", ["missing", "corrupted", "unreadable"])
def test_only_a_missing_or_corrupted_object_reads_as_a_gap(target, damage):
    """A node or a proof missing from storage or failing its read check is
    a gap the checks report, and no bundle is built; any other read error
    escapes the audit and the bundle build."""
    history = run_history(16, n_ledgers=2, rounds=3, p_append=1.0)
    store = UnreadableStore(ALG)
    store._objects, store._proofs = history.store._objects, history.store._proofs
    roots = history.chain.read_roots()
    ledger, key = history.ledgers[b"ledger-0"], history.key_of(b"ledger-0")
    if target == "node":  # the node below the newest root on the key's path
        path = search_path(TrieVersion(history.params, roots[-1], store), key)
        address = ALG.hash(path[1][0])
    else:  # the proof of the newest round's value change
        address = store.find_proof(key, 2)
    if damage == "missing":
        del store._objects[address]
    elif damage == "corrupted":
        assert flip(store, address)
    else:
        store.unreadable = address

    if damage == "unreadable":
        with pytest.raises(OSError, match="Input/output error"):
            audit_ledger(b"ledger-0", ledger, roots, store, history.params)
        with pytest.raises(OSError, match="Input/output error"):
            make_audit_proof(b"ledger-0", 2, roots, store, history.params)
        return
    report = audit_ledger(b"ledger-0", ledger, roots, store, history.params)
    assert report.checks() == READ_GAPS[target]
    with pytest.raises(CannotConstructError, match="public storage is missing data"):
        make_audit_proof(b"ledger-0", 2, roots, store, history.params)


def test_missing_storage_is_inconclusive_not_fail():
    history = run_history(15, n_ledgers=2, rounds=2)
    empty = MemoryStore(ALG)
    report = audit_ledger(
        b"ledger-0", None, history.chain.read_roots(), empty, history.params
    )
    assert report.verdict is Status.INCONCLUSIVE
    assert report.chain_match.status is Status.INCONCLUSIVE


def _unresolved(digest: bytes, round_seq: int) -> CheckResult:
    detail = f"version root {digest.hex()[:16]}… unresolved in storage"
    return CheckResult(Status.INCONCLUSIVE, round_seq, detail)


MISMATCH = "traversed root does not match the published digest"


@pytest.mark.parametrize("case", [
    "missing root", "garbage root", "non-root node", "lineage ends early",
    "chain shorter than lineage", "one forged record", "two forged records",
    "forged record and missing older root",
])
def test_root_walk_outcomes_are_pinned(case):
    """chain_match (status, round, detail) for each outcome of the root walk.

    A walk fault (unresolved, malformed, not a root, lineage length)
    outranks a mismatch; of several mismatches the newest is reported.
    """
    history = run_history(30, n_ledgers=2, rounds=4)
    store = history.store
    roots = history.chain.read_roots()
    chain = list(roots)
    forged = ALG.hash(b"forged")
    if case == "missing root":
        del store._objects[roots[1]]
        expected = _unresolved(roots[1], 1)
    elif case == "garbage root":
        chain[3] = store.put(b"garbage")
        expected = CheckResult(Status.FAIL, 3, "malformed version root: unknown node tag 0x67")
    elif case == "non-root node":
        chain[3] = store.put(bytes([0x02, 0]) + ALG.hash(b"key") + ALG.hash(b"value"))
        expected = CheckResult(Status.FAIL, 3, "version root is not a root node")
    elif case == "lineage ends early":
        chain.insert(0, forged)
        expected = CheckResult(Status.FAIL, 1, "lineage ends after 4 versions, chain has 5")
    elif case == "chain shorter than lineage":
        del chain[0]
        expected = CheckResult(Status.FAIL, 0, "lineage has more versions than chain records")
    elif case == "one forged record":
        chain[1] = forged
        expected = CheckResult(Status.FAIL, 1, MISMATCH)
    elif case == "two forged records":
        chain[0] = chain[2] = forged
        expected = CheckResult(Status.FAIL, 2, MISMATCH)
    else:
        chain[2] = forged
        del store._objects[roots[0]]
        expected = _unresolved(roots[0], 0)
    report = audit_ledger(b"ledger-0", None, chain, store, history.params)
    assert report.chain_match == expected


@pytest.mark.parametrize("kind", ["remove-key", "fork-value", "chain-mismatch"])
@pytest.mark.parametrize("seed", range(3))
def test_verify_matches_storage_audit_under_faults(kind, seed):
    rng = random.Random(40 + seed)
    history = run_history(
        40 + seed,
        n_ledgers=rng.randint(2, 5),
        rounds=rng.randint(2, 5),
        params=TrieParams(rng.choice([2, 4]), rng.choice([1, 2]), ALG),
        p_append=1.0,
    )
    lid = b"ledger-1"
    roots = forged_roots(history, kind, lid, rng)
    claimed = history.ledgers[lid]
    direct = audit_ledger(lid, claimed, roots, history.store, history.params)
    assert direct.verdict is Status.FAIL
    proof = make_audit_proof(lid, len(roots) - 1, roots, history.store, history.params)
    offline = verify_audit_proof(proof, lid, roots, claimed)
    assert offline.checks() == direct.checks()  # status, round and detail
    assert offline == direct  # history and unresolved rounds too


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
    inject("corrupt-node", history.params, history.store, history.chain.records(), b"ledger-0")
    with pytest.raises(CannotConstructError):
        make_audit_proof(
            b"ledger-0", 2, history.chain.read_roots(), history.store, history.params
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1 << 16),
    fault=st.sampled_from([None, "corrupt-node", "corrupt-proof", "fork-value"]),
    data=st.data(),
)
def test_make_audit_proof_refuses_exactly_when_the_storage_audit_is_inconclusive(
    seed, fault, data
):
    """The three entry points run one engine: the bundle is refused exactly
    when the storage audit of the same rounds has an inconclusive check,
    and otherwise the bundle's check reports what that audit reports."""
    history = run_history(seed, n_ledgers=3, rounds=3, p_append=0.7)
    lid = data.draw(st.sampled_from(sorted(history.ledgers)), label="ledger")
    records = history.chain.records()
    if fault is not None:
        try:
            records = inject(fault, history.params, history.store, records, lid)
        except ValueError:  # no stored proof to corrupt: the history stays honest
            pass
    roots = [record.trie_root for record in records]
    up_to_round = data.draw(st.integers(0, len(roots) - 1), label="up_to_round")
    covered = roots[: up_to_round + 1]
    report = audit_ledger(lid, None, covered, history.store, history.params)
    inconclusive = any(c.status is Status.INCONCLUSIVE for c in report.checks().values())
    try:
        proof = make_audit_proof(lid, up_to_round, roots, history.store, history.params)
    except CannotConstructError:
        assert inconclusive
        return
    assert not inconclusive
    assert verify_audit_proof(proof, lid, covered) == report


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

def test_audit_and_prove_fetch_each_distinct_object_once(monkeypatch):
    """200 ledgers x 50 rounds (r=4, k=2): one get per distinct address.

    Before the key-path walker and its per-run memo, auditing ledger-17
    made 268 gets for 225 distinct addresses and parsed 250 nodes.
    """
    from trienotary import audit as audit_module
    from trienotary import trie as trie_module

    history = run_history(7, n_ledgers=200, rounds=50, params=TrieParams(4, 2, ALG),
                          p_append=0.3)
    store = CountingStore(ALG)
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


# ------------------------------------------------------------------ records

_PASS, _GAP = CheckResult(Status.PASS), CheckResult(Status.INCONCLUSIVE, 2, "history has gaps")
# per record: every field, in order, and the fields that have defaults
RECORDS = {
    "LeafNode": (LeafNode, {"entries": ((b"k" * 32, b"v" * 32),), "prev_root": bytes(32)},
                 {"prev_root": None}),
    "InternalNode": (InternalNode, {"children": ((0, b"a" * 32), (3, b"b" * 32)),
                                    "prev_root": None}, {"prev_root": None}),
    "ConsistencyProof": (ConsistencyProof, {"old_size": 3, "new_size": 7, "path": (b"p" * 32,)},
                         {}),
    "CheckResult": (CheckResult, {"status": Status.FAIL, "round": 3, "detail": "x"},
                    {"round": None, "detail": ""}),
    "AuditReport": (AuditReport, {
        "ledger_key": b"k" * 32, "chain_match": _PASS, "no_alternative_histories": _PASS,
        "no_removal": _PASS, "no_forks": _GAP, "disclosed_data_match": _PASS,
        "history": (None, b"v" * 32, None), "unresolved_rounds": (2,), "covered_rounds": 3,
        "uncovered_rounds": (4,),
    }, {"uncovered_rounds": ()}),
}


@pytest.mark.parametrize("cls, fields, defaults", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable_values_compared_by_field(cls, fields, defaults):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    twin = cls(**fields)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    bare = cls(**{name: value for name, value in fields.items() if name not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_a_check_prints_and_records_of_two_kinds_never_compare_equal():
    assert str(CheckResult(Status.FAIL, 3, "x")) == "fail (round 3): x"
    rng, params = random.Random(5), TrieParams(4, 2, ALG)
    store = MemoryStore(ALG)
    build(params, {rng.randbytes(32): rng.randbytes(32) for _ in range(40)}, None, store)
    nodes = [parse_node(data, params) for _, data in store.items()]
    leaves = [node for node in nodes if isinstance(node, LeafNode)]
    internals = [node for node in nodes if isinstance(node, InternalNode)]
    assert leaves and internals and len(leaves) + len(internals) == len(nodes)
    assert all(leaf != node and node != leaf for leaf in leaves for node in internals)
    path = (b"p" * 32, b"q" * 32)
    consistency, inclusion = ConsistencyProof(3, 7, path), InclusionProof(3, 7, path)
    assert consistency != inclusion and inclusion != consistency
