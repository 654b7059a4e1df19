"""Merkle ledger: roots, consistency proofs, inclusion proofs.

The reference oracle in this file recomputes every subtree head directly
from the recursive tree definition, with no sharing of code with the
package, and consistency paths are enumerated from the recursive subproof
definition. Package output is cross-checked against both.
"""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digest_counts
from trienotary import merkle
from trienotary.chain import Chain
from trienotary.crypto import SHA256, SHA512
from trienotary.errors import InvalidRangeError
from trienotary.merkle import (
    Block,
    ConsistencyProof,
    InclusionProof,
    Ledger,
    _Log,
    decode_consistency_proof,
    encode_consistency_proof,
    ledger_root,
    prove_consistency,
    prove_inclusion,
    read_ledger,
    root_at,
    verify_consistency,
    verify_inclusion,
    write_ledger,
)
from trienotary.notary import NotaryState, notarize_round, notarize_single
from trienotary.store import MemoryStore
from trienotary.trie import TrieParams

ALG = SHA256


# ---------------------------------------------------------------- reference

def ref_head(leaves: list[bytes], lo: int, hi: int, memo: dict | None = None) -> bytes:
    """Subtree head straight from the definition; leaves are leaf hashes.

    ``memo``, kept per leaf list, caches heads by range, so checking every
    prefix and proof of a ledger hashes each subtree once.
    """
    if hi == lo:
        return ALG.hash(b"")
    if hi - lo == 1:
        return leaves[lo]
    if memo is not None and (lo, hi) in memo:
        return memo[lo, hi]
    k = 1
    while 2 * k < hi - lo:
        k *= 2
    left = ref_head(leaves, lo, lo + k, memo)
    right = ref_head(leaves, lo + k, hi, memo)
    head = ALG.hash(b"\x01" + left + right)
    if memo is not None:
        memo[lo, hi] = head
    return head


def ref_subproof(
    leaves: list[bytes], m: int, lo: int, hi: int, complete: bool, memo: dict | None = None
) -> list[bytes]:
    if m == hi - lo:
        return [] if complete else [ref_head(leaves, lo, hi, memo)]
    k = 1
    while 2 * k < hi - lo:
        k *= 2
    if m <= k:
        return ref_subproof(leaves, m, lo, lo + k, complete, memo) + [
            ref_head(leaves, lo + k, hi, memo)
        ]
    return ref_subproof(leaves, m - k, lo + k, hi, False, memo) + [
        ref_head(leaves, lo, lo + k, memo)
    ]


def ref_path(leaves: list[bytes], i: int, lo: int, hi: int, memo: dict | None = None) -> list[bytes]:
    """Inclusion path of leaf ``i`` within [lo, hi), leaf to root."""
    if hi - lo == 1:
        return []
    k = 1
    while 2 * k < hi - lo:
        k *= 2
    if i - lo < k:
        return ref_path(leaves, i, lo, lo + k, memo) + [ref_head(leaves, lo + k, hi, memo)]
    return ref_path(leaves, i, lo + k, hi, memo) + [ref_head(leaves, lo, lo + k, memo)]


def make_ledger(n: int, tag: bytes = b"") -> Ledger:
    return Ledger.from_payloads(b"test-ledger", [tag + bytes([i]) for i in range(n)], ALG)


def leaf_hashes(ledger: Ledger) -> list[bytes]:
    return [ALG.hash(b"\x00" + block.block_hash) for block in ledger.blocks]


# ------------------------------------------------------------------- roots

def test_empty_root_is_hash_of_empty_string():
    assert ledger_root(make_ledger(0)) == ALG.hash(b"")


def test_single_leaf_root():
    ledger = make_ledger(1)
    assert ledger_root(ledger) == ALG.hash(b"\x00" + ledger.blocks[0].block_hash)


def test_three_leaf_root_structure():
    ledger = make_ledger(3)
    l0, l1, l2 = leaf_hashes(ledger)
    expected = ALG.hash(b"\x01" + ALG.hash(b"\x01" + l0 + l1) + l2)
    assert ledger_root(ledger) == expected


@pytest.mark.parametrize("n", range(9))
def test_roots_match_reference_up_to_eight(n):
    ledger = make_ledger(n)
    assert ledger_root(ledger) == ref_head(leaf_hashes(ledger), 0, n)


def test_transparency_log_test_vectors():
    # Well-known third-party vectors for this construction, with the raw
    # leaf inputs hashed under the 0x00 leaf prefix.
    inputs = [
        b"",
        b"\x00",
        b"\x10",
        b"\x20\x21",
        b"\x30\x31",
        b"\x40\x41\x42\x43",
        b"\x50\x51\x52\x53\x54\x55\x56\x57",
        b"\x60\x61\x62\x63\x64\x65\x66\x67\x68\x69\x6a\x6b\x6c\x6d\x6e\x6f",
    ]
    leaves = [ALG.hash(b"\x00" + data) for data in inputs]
    assert ref_head(leaves, 0, 1) == bytes.fromhex(
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
    )
    assert ref_head(leaves, 0, 2) == bytes.fromhex(
        "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125"
    )
    assert ref_head(leaves, 0, 8) == bytes.fromhex(
        "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328"
    )


def test_append_changes_root():
    ledger = make_ledger(0)
    seen = {ledger_root(ledger)}
    for i in range(20):
        ledger = ledger.append(bytes([i]))
        root = ledger_root(ledger)
        assert root not in seen
        seen.add(root)


def test_block_hash_binds_index():
    a = Ledger.from_payloads(b"x", [b"p", b"q"], ALG)
    b = Ledger.from_payloads(b"x", [b"q", b"p"], ALG)
    assert ledger_root(a) != ledger_root(b)


# ------------------------------------------------------------- consistency

def test_identity_consistency():
    ledger = make_ledger(5)
    proof = prove_consistency(ledger, 5, 5)
    assert proof.path == ()
    root = ledger_root(ledger)
    assert verify_consistency(root, root, proof, ALG)


def test_one_to_two_path_is_second_leaf_hash():
    ledger = make_ledger(2)
    proof = prove_consistency(ledger, 1, 2)
    assert list(proof.path) == [leaf_hashes(ledger)[1]]


def test_power_of_two_doubling_starts_with_sibling_head():
    ledger = make_ledger(8)
    proof = prove_consistency(ledger, 4, 8)
    assert proof.path[0] == ref_head(leaf_hashes(ledger), 4, 8)


def test_paths_match_recursive_definition_small():
    for n in range(1, 9):
        ledger = make_ledger(n)
        leaves = leaf_hashes(ledger)
        for m in range(1, n + 1):
            proof = prove_consistency(ledger, m, n)
            assert list(proof.path) == ref_subproof(leaves, m, 0, n, True), (m, n)


def test_round_trip_all_pairs_up_to_64():
    ledger = make_ledger(64)
    leaves = leaf_hashes(ledger)
    for n in range(1, 65):
        new_root = ref_head(leaves, 0, n)
        for m in range(1, n + 1):
            old_root = ref_head(leaves, 0, m)
            proof = prove_consistency(ledger, m, n)
            assert len(proof.path) <= math.ceil(math.log2(n)) + 1 if n > 1 else True
            assert verify_consistency(old_root, new_root, proof, ALG), (m, n)


def test_consistency_rejects_single_byte_corruption():
    ledger = make_ledger(16)
    for n in (1, 2, 3, 7, 8, 11, 16):
        new_root = root_at(ledger, n)
        for m in range(1, n + 1):
            old_root = root_at(ledger, m)
            proof = prove_consistency(ledger, m, n)
            for i, elem in enumerate(proof.path):
                for pos in range(len(elem)):
                    bad = bytearray(elem)
                    bad[pos] ^= 0x01
                    mutated = ConsistencyProof(
                        m, n, proof.path[:i] + (bytes(bad),) + proof.path[i + 1:]
                    )
                    assert not verify_consistency(old_root, new_root, mutated, ALG)
            for pos in range(len(old_root)):
                bad = bytearray(old_root)
                bad[pos] ^= 0xFF
                assert not verify_consistency(bytes(bad), new_root, proof, ALG)
                bad2 = bytearray(new_root)
                bad2[pos] ^= 0xFF
                assert not verify_consistency(old_root, bytes(bad2), proof, ALG)


def test_consistency_rejects_truncated_or_padded_paths():
    ledger = make_ledger(12)
    proof = prove_consistency(ledger, 5, 12)
    old_root, new_root = root_at(ledger, 5), root_at(ledger, 12)
    assert verify_consistency(old_root, new_root, proof, ALG)
    shorter = ConsistencyProof(5, 12, proof.path[:-1])
    longer = ConsistencyProof(5, 12, proof.path + (ALG.hash(b"junk"),))
    assert not verify_consistency(old_root, new_root, shorter, ALG)
    assert not verify_consistency(old_root, new_root, longer, ALG)


def test_consistency_rejects_bad_sizes():
    ledger = make_ledger(4)
    root = ledger_root(ledger)
    assert not verify_consistency(root, root, ConsistencyProof(0, 4, ()), ALG)
    assert not verify_consistency(root, root, ConsistencyProof(5, 4, ()), ALG)
    assert not verify_consistency(root, root, ConsistencyProof(4, 4, (root,)), ALG)


@settings(max_examples=200, deadline=None)
@given(
    new_size=st.integers(0, 2**63),
    path=st.lists(st.binary(min_size=32, max_size=32), max_size=3),
    old_root=st.one_of(st.just(ALG.hash(b"")), st.binary(min_size=32, max_size=32)),
    new_root=st.one_of(st.just(ALG.hash(b"")), st.binary(min_size=32, max_size=32)),
)
def test_a_proof_from_size_zero_holds_iff_empty_and_from_the_empty_root(
    new_size, path, old_root, new_root
):
    # the empty tree is a prefix of every tree, so the new root is not read
    proof = ConsistencyProof(0, new_size, tuple(path))
    expected = not path and old_root == ALG.hash(b"")
    assert verify_consistency(old_root, new_root, proof, ALG) is expected


def test_prove_consistency_range_errors():
    ledger = make_ledger(4)
    with pytest.raises(InvalidRangeError):
        prove_consistency(ledger, 0, 3)
    with pytest.raises(InvalidRangeError):
        prove_consistency(ledger, 3, 2)
    with pytest.raises(InvalidRangeError):
        prove_consistency(ledger, 2, 5)


def test_prefix_soundness_random_ledgers():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.randint(1, 64)
        payloads = [rng.randbytes(rng.randint(0, 40)) for _ in range(n)]
        ledger = Ledger.from_payloads(b"rnd", payloads, ALG)
        sizes = sorted(rng.sample(range(1, n + 1), min(n, 6)))
        for m in sizes:
            proof = prove_consistency(ledger, m, n)
            assert verify_consistency(root_at(ledger, m), root_at(ledger, n), proof, ALG)
            assert len(proof.path) <= math.ceil(math.log2(n)) + 1 if n > 1 else True


def test_consistency_proof_encoding_round_trip():
    ledger = make_ledger(13)
    proof = prove_consistency(ledger, 6, 13)
    blob = encode_consistency_proof(proof)
    assert decode_consistency_proof(blob, ALG) == proof
    with pytest.raises(ValueError):
        decode_consistency_proof(blob[:-5], ALG)


# --------------------------------------------------------------- inclusion

def test_single_leaf_inclusion():
    ledger = make_ledger(1)
    proof = prove_inclusion(ledger, 0)
    assert proof.path == ()
    assert verify_inclusion(ledger_root(ledger), ledger.blocks[0].block_hash, proof, ALG)


def test_inclusion_round_trip_up_to_64():
    ledger = make_ledger(64)
    for n in (1, 2, 3, 5, 8, 21, 33, 64):
        sub = make_ledger(n)
        root = ledger_root(sub)
        for index in range(n):
            proof = prove_inclusion(sub, index)
            assert len(proof.path) <= math.ceil(math.log2(n)) if n > 1 else True
            assert verify_inclusion(root, sub.blocks[index].block_hash, proof, ALG)


def test_inclusion_wrong_position_or_hash_fails():
    ledger = make_ledger(8)
    root = ledger_root(ledger)
    proof = prove_inclusion(ledger, 3)
    assert not verify_inclusion(root, ledger.blocks[4].block_hash, proof, ALG)
    moved = InclusionProof(4, 8, proof.path)
    assert not verify_inclusion(root, ledger.blocks[3].block_hash, moved, ALG)
    for i, elem in enumerate(proof.path):
        bad = bytearray(elem)
        bad[0] ^= 0x01
        mutated = InclusionProof(3, 8, proof.path[:i] + (bytes(bad),) + proof.path[i + 1:])
        assert not verify_inclusion(root, ledger.blocks[3].block_hash, mutated, ALG)


def test_inclusion_index_out_of_range():
    with pytest.raises(InvalidRangeError):
        prove_inclusion(make_ledger(3), 3)


# ------------------------------------------------ stored heads vs oracle

def check_against_reference(ledger: Ledger) -> None:
    """Every prefix root and every proof of ``ledger`` matches the definition."""
    n = len(ledger)
    leaves = [ALG.hash(b"\x00" + block.block_hash) for block in ledger.blocks]
    memo: dict = {}
    roots = [root_at(ledger, m) for m in range(n + 1)]
    assert roots == [ref_head(leaves, 0, m, memo) for m in range(n + 1)]
    for new_size in range(1, n + 1):
        for old_size in range(1, new_size + 1):
            proof = prove_consistency(ledger, old_size, new_size)
            assert list(proof.path) == ref_subproof(leaves, old_size, 0, new_size, True, memo)
            assert verify_consistency(roots[old_size], roots[new_size], proof, ALG)
    for index in range(n):
        proof = prove_inclusion(ledger, index)
        assert list(proof.path) == ref_path(leaves, index, 0, n, memo)
        assert verify_inclusion(roots[n], ledger.blocks[index].block_hash, proof, ALG)


# An op picks a version by index (clamped, so large picks mean the newest)
# and either appends to it, asks for its root (filling its head store at
# that point), or rebuilds a prefix of it as a fresh Ledger of its payloads.
# Appending to a version that is no longer the newest forks its history.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "root", "rebuild"]),
        st.integers(0, 60),
        st.binary(max_size=3),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(st.binary(max_size=3), max_size=6), ops=_OPS, data=st.data())
def test_stored_heads_match_reference_across_forks(initial, ops, data):
    versions = [Ledger.from_payloads(b"hyp", initial, ALG)]
    for op, pick, payload in ops:
        base = versions[min(pick, len(versions) - 1)]
        if op == "append":
            versions.append(base.append(payload))
        elif op == "root":
            ledger_root(base)
        else:
            prefix = base.blocks[:pick % (len(base) + 1)]
            versions.append(Ledger(b"hyp", [block.payload for block in prefix], ALG))
    for i in data.draw(st.permutations(range(len(versions)))):
        check_against_reference(versions[i])


# The log remembers the last root it computed. An op
# appends to a version that ends its log (the log grows in place) or to
# one that does not (a fork, a new log), or asks a version for a root, a
# consistency proof or an inclusion proof at sizes x and y, clamped to its
# length. Sizes stay small so that versions of one log, and a fork and its
# parent, are asked about the same prefixes and leaves.
_MEMO_OPS = st.lists(
    st.tuples(
        st.sampled_from(["extend", "fork", "root", "ledger_root", "consistency", "inclusion"]),
        st.integers(0, 60),
        st.integers(0, 12),
        st.integers(0, 12),
        st.binary(min_size=1, max_size=2),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(initial=st.lists(st.binary(max_size=3), max_size=6), ops=_MEMO_OPS)
def test_memo_answers_like_a_fresh_ledger(initial, ops):
    # (ledger, its payloads, whether it ends its log)
    versions = [(Ledger.from_payloads(b"memo", initial, ALG), list(initial), True)]
    for op, pick, x, y, payload in ops:
        if op in ("extend", "fork"):
            picks = [i for i, version in enumerate(versions) if version[2] == (op == "extend")]
            if picks:
                i = picks[pick % len(picks)]
                ledger, payloads, _ = versions[i]
                versions[i] = (ledger, payloads, False)
                child, payloads = ledger.append(payload), payloads + [payload]
                versions.append((child, payloads, True))
                if op == "fork":
                    # A fork of the version before a log's last one has
                    # that log's length, and must not take its root.
                    fresh = Ledger.from_payloads(b"memo", payloads, ALG)
                    assert ledger_root(child) == ledger_root(fresh)
            continue
        ledger, payloads, _ = versions[pick % len(versions)]
        fresh = Ledger.from_payloads(b"memo", payloads, ALG)
        n = len(ledger)
        if op == "root":
            assert root_at(ledger, min(x, n)) == root_at(fresh, min(x, n))
        elif op == "ledger_root":
            assert ledger_root(ledger) == ledger_root(fresh)
        elif n and op == "consistency":
            old_size, new_size = sorted((1 + min(x, n - 1), 1 + min(y, n - 1)))
            assert prove_consistency(ledger, old_size, new_size) == prove_consistency(
                fresh, old_size, new_size
            )
        elif n:
            assert prove_inclusion(ledger, min(x, n - 1)) == prove_inclusion(fresh, min(x, n - 1))


def test_fork_of_filled_version_keeps_both_children_correct():
    # Both children complete the pair (6, 7), so a shared store would
    # hand the second child the first one's head.
    parent = make_ledger(7)
    ledger_root(parent)
    first = parent.append(b"first")
    second = parent.append(b"second")
    ledger_root(first)
    assert ledger_root(second) != ledger_root(first)
    for ledger in (second, first, parent):
        check_against_reference(ledger)


def test_append_to_the_newest_version_copies_nothing():
    ledger = Ledger.from_payloads(b"long", [i.to_bytes(4, "big") for i in range(20_000)], ALG)
    # The first append grows the block list's spare capacity, as a list
    # append may; the next one fits in it.
    ledger = ledger.append(b"first")
    tracemalloc.start()
    try:
        grown = ledger.append(b"second")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096  # a copy of the 20,001 block references would be 160 KB
    assert len(grown) == 20_002 and len(ledger) == 20_001


def ref_block(index: int, payload: bytes) -> Block:
    return Block(index, payload, ALG.hash(index.to_bytes(8, "big") + payload))


# An op picks a version as above and either appends to it (a fork when it
# is not the newest) or rebuilds it whole as a fresh Ledger of its payloads.
_BLOCK_OPS = st.lists(
    st.tuples(st.sampled_from(["append", "rebuild"]), st.integers(0, 40), st.binary(max_size=3)),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(st.binary(max_size=3), max_size=6), ops=_BLOCK_OPS)
def test_blocks_match_reference_across_forks_and_rebuilds(initial, ops):
    versions = [(Ledger.from_payloads(b"blk", initial, ALG), list(initial))]
    for op, pick, payload in ops:
        ledger, payloads = versions[min(pick, len(versions) - 1)]
        if op == "append":
            versions.append((ledger.append(payload), payloads + [payload]))
        else:
            versions.append((Ledger(b"blk", payloads, ALG), payloads))
    for ledger, payloads in versions:
        assert ledger.blocks == tuple(ref_block(i, p) for i, p in enumerate(payloads))
        assert ledger_root(Ledger(b"blk", payloads, ALG)) == ledger_root(ledger)


def test_a_long_ledger_adds_no_object_per_block():
    payloads = [i.to_bytes(4, "big") for i in range(10_000)]
    gc.collect()
    before = len(gc.get_objects())
    ledger = Ledger.from_payloads(b"layout", payloads, ALG)
    ledger_root(ledger)
    assert len(gc.get_objects()) - before <= 5  # a Block per block added 10,000


def test_a_long_ledger_keeps_under_100_bytes_per_block():
    payloads = [i.to_bytes(4, "big") for i in range(10_000)]
    tracemalloc.start()
    try:
        ledger = Ledger.from_payloads(b"layout", payloads, ALG)
        ledger_root(ledger)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One payload reference, one leaf head and the stored heads: about
    # 77 B. A Block object with its own hash and index kept about 190 B.
    assert retained / len(ledger) < 100


def test_a_ledger_appended_once_and_notarized_twice_keeps_under_800_bytes():
    n = 2000
    gc.collect()
    tracemalloc.start()
    try:
        ledgers = {b"l%d" % i: Ledger(b"l%d" % i, [b"p%d" % i], ALG) for i in range(n)}
        store, chain = MemoryStore(ALG), Chain()
        state, _ = notarize_round(NotaryState(TrieParams(4, 2, ALG)), ledgers, store, chain)
        ledgers = {lid: ledger.append(b"next") for lid, ledger in ledgers.items()}
        state, _ = notarize_round(state, ledgers, store, chain)
        del ledgers, store, chain
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # What the ledgers and the state keep, ids and payloads included: about
    # 720 B per ledger. A log that also remembered the last two leaf heads
    # it hashed, with their indexes, kept about 880 B.
    assert len(state.notarized) == n
    assert retained / n < 800


# -------------------------------------------------------------- hash counts

# (n, first fill, root_at(n) again, a cold root_at(n - 1),
#  prove_consistency(n // 2, n), prove_inclusion(0)). The load stored every
# leaf head, so the first root is the n - 1 pairings that join the leaves
# into it. The repeated root is the one the log remembers. The cold one
# makes popcount(n - 1) - 1 folds of the heads covering n - 1 leaves, the
# last of them a stored leaf head. A proof hashes only the folds of a
# range cut at its new size: none at n = 10, whose cut ranges are single
# leaves and complete subtrees.
@pytest.mark.parametrize(
    "n, fill, root, cold_root, consistency, inclusion",
    [(10, 9, 0, 1, 0, 0), (1000, 999, 0, 7, 4, 4)],
)
def test_hashes_on_a_filled_ledger_are_logarithmic(
    merkle_hashes, n, fill, root, cold_root, consistency, inclusion
):
    ledger = Ledger.from_payloads(b"count", [i.to_bytes(4, "big") for i in range(n)], ALG)
    merkle_hashes()
    ledger_root(ledger)
    assert merkle_hashes() == fill
    root_at(ledger, n)
    assert merkle_hashes() == root
    root_at(ledger, n - 1)
    assert merkle_hashes() == cold_root
    prove_consistency(ledger, n // 2, n)
    assert merkle_hashes() == consistency
    prove_inclusion(ledger, 0)
    assert merkle_hashes() == inclusion
    assert max(root, cold_root, consistency, inclusion) <= math.log2(n) ** 2


# Per changed ledger grown from n to n + 1 blocks: at the append, the
# block's hash and the new leaf's head, which the log stores; in the round,
# one head per complete subtree the new leaf ends (the trailing zero bits
# of n + 1) and popcount(n + 1) - 1 folds of the complete heads covering
# n + 1 leaves into the new root. The append-only check costs none: its
# root_at(n) is the root last round's ledger_root left in the log. Nor
# does the proof from n to n + 1: it is stored heads, leaf heads among
# them. So 1 + 1 + 0 + 2 = 4 at n = 10, 1 + 1 + 2 + 1 = 5 at n = 11,
# 1 + 1 + 0 + 6 = 8 at n = 1000 and 1 + 1 + 1 + 6 = 9 at n = 1001.
# A ledger presented again as the object notarized last round costs none.
@pytest.mark.parametrize("n, per_ledger", [(10, 4), (11, 5), (1000, 8), (1001, 9)])
def test_round_hashes_per_changed_ledger(merkle_hashes, n, per_ledger):
    payloads = [i.to_bytes(4, "big") for i in range(n)]
    ledgers = {lid: Ledger.from_payloads(lid, payloads, ALG) for lid in (b"a", b"b", b"c")}
    untouched = {lid: Ledger.from_payloads(lid, payloads, ALG) for lid in (b"d", b"e")}
    state, store, chain = NotaryState(TrieParams(2, 1, ALG)), MemoryStore(ALG), Chain()
    state, _ = notarize_round(state, {**ledgers, **untouched}, store, chain)
    merkle_hashes()
    grown = {lid: ledger.append(b"next") for lid, ledger in ledgers.items()}
    notarize_round(state, {**grown, **untouched}, store, chain)
    assert merkle_hashes() == per_ledger * len(grown)


def test_single_mode_hashes_for_a_one_block_append(merkle_hashes):
    # As per changed ledger in a round: the block and the new leaf at the
    # append, no hash for the check, one fold per set bit of 1000, and no
    # hash for the proof.
    ledger = Ledger.from_payloads(b"one", [i.to_bytes(4, "big") for i in range(1000)], ALG)
    chain = Chain()
    first = notarize_single(ledger, None, chain)
    merkle_hashes()
    notarize_single(ledger.append(b"next"), (first.trie_root, 1000), chain)
    assert merkle_hashes() == 8


# ------------------------------------------------ a level-at-a-time fill

@contextmanager
def hashes_by_entry():
    """Counts the digests made inside the block by entry point, filled in
    when it ends: HashAlg.hash calls under "hash", items of
    HashAlg.hash_each calls under "hash_each"."""
    by_entry = Counter()
    with digest_counts() as counts:
        try:
            yield by_entry
        finally:
            for (_, entry), count in counts.items():
                by_entry[entry] += count


@contextmanager
def counted_hashes():
    """Counts every digest made inside the block: each HashAlg.hash call
    and each item of a HashAlg.hash_each call."""
    calls = [0]
    with digest_counts() as counts:
        try:
            yield calls
        finally:
            calls[0] = counts.total()


def ref_fill(self, size):
    """``_Log.fill`` leaf by leaf: each pair of stored leaf heads hashed on
    its own, its head pushed up every level it completes."""
    if size < 2:
        return self
    levels = self.levels = self.levels or [bytearray()]
    step = self.step
    for t in range(len(levels[0]) // step * 2 + 1, size, 2):
        head = self.alg.hash(b"\x01" + self.leaves[(t - 1) * step:(t + 1) * step])
        for level in levels:
            level += head
            if len(level) // step & 1:
                break
            head = self.alg.hash(b"\x01" + level[-2 * step:])
        else:
            levels.append(bytearray(head))
    return self


@contextmanager
def leaf_by_leaf():
    fill = _Log.fill
    _Log.fill = ref_fill
    try:
        yield
    finally:
        _Log.fill = fill


def ref_levels(leaves: list[bytes], filled: int, memo: dict) -> list[bytes]:
    """Heads of every complete, aligned subtree of 2**j >= 2 leaves within
    the first ``filled`` leaves, one bytes string per height."""
    out, j = [], 1
    while filled >> j:
        width = 1 << j
        out.append(b"".join(
            ref_head(leaves, i * width, (i + 1) * width, memo) for i in range(filled >> j)
        ))
        j += 1
    return out


# An op picks a version and either asks it for a root, a consistency proof
# or an inclusion proof at sizes drawn as fractions of its length, or
# appends 1-40 blocks to it, which forks its log unless it is the newest
# version. Each op runs twice, on the ledger and on a twin whose log fills
# leaf by leaf.
_FILL_OPS = st.lists(
    st.tuples(
        st.sampled_from(["root", "consistency", "inclusion", "append"]),
        st.integers(0, 60),
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(1, 40),
    ),
    max_size=10,
)


# Passes of 2 and 6 leaves split loads and fills the way 4,096 splits a
# long export.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 1100), ops=_FILL_OPS, batch=st.sampled_from([2, 6, 4096]))
def test_a_level_at_a_time_fill_matches_a_leaf_by_leaf_one(n, ops, batch):
    with mock.patch.object(merkle, "_BATCH", batch):
        check_fill(n, ops)


def check_fill(n, ops):
    payloads = [i.to_bytes(2, "big") for i in range(n)]
    versions = [tuple(Ledger.from_payloads(b"f", payloads, ALG) for _ in range(2))]
    for op, pick, x, y, count in ops:
        ledger, twin = versions[pick % len(versions)]
        size = len(ledger)
        if op == "append":
            grown = [(size + i).to_bytes(3, "big") for i in range(count)]
            with counted_hashes() as calls:
                for payload in grown:
                    ledger = ledger.append(payload)
            with counted_hashes() as twin_calls, leaf_by_leaf():
                for payload in grown:
                    twin = twin.append(payload)
            versions.append((ledger, twin))
            # each append hashes its block and its leaf
            assert calls == twin_calls == [2 * count]
            continue
        # every leaf of the log, which versions longer than this one share
        leaves = [
            ALG.hash(b"\x00" + ref_block(i, p).block_hash)
            for i, p in enumerate(ledger._log.payloads)
        ]
        memo: dict = {}
        if op == "root":
            m = round(x * size)
            call = lambda target: root_at(target, m)
            expected = ref_head(leaves, 0, m, memo)
        elif size and op == "consistency":
            m, new_size = sorted((1 + round(x * (size - 1)), 1 + round(y * (size - 1))))
            call = lambda target: prove_consistency(target, m, new_size)
            expected = ConsistencyProof(m, new_size, tuple(
                ref_subproof(leaves, m, 0, new_size, True, memo)
            ))
        elif size:
            index = round(x * (size - 1))
            call = lambda target: prove_inclusion(target, index)
            expected = InclusionProof(index, size, tuple(ref_path(leaves, index, 0, size, memo)))
        else:
            continue
        with counted_hashes() as calls:
            assert call(ledger) == expected
        with counted_hashes() as twin_calls, leaf_by_leaf():
            assert call(twin) == expected
        assert calls == twin_calls
        filled = len(twin._log.levels[0]) // ALG.output_len * 2 if twin._log.levels else 0
        assert [bytes(level) for level in ledger._log.levels or ()] == ref_levels(
            leaves, filled, memo
        )
        assert ledger._log.leaves == b"".join(leaves)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 1100))
def test_a_loaded_ledger_costs_three_hashes_per_block_less_one(n):
    # one per block, one per leaf, and one per head of the n - 1 pairings
    # that join the leaves into the root
    with counted_hashes() as calls:
        ledger_root(Ledger.from_payloads(b"n", [i.to_bytes(2, "big") for i in range(n)], ALG))
    assert calls == [3 * n - 1]


# Of those 3n - 1 digests, a cold load makes only these through ``hash``:
# the head of the fill's first pair (1) and the folds of the root's
# popcount(n) complete heads (popcount(n) - 1). That is popcount(n) <=
# bit_length(n), so O(log n): 6 at n = 1,000 and 5 at n = 5,000, which
# takes two passes. Every block, leaf head and other subtree head goes
# through ``hash_each``.
@pytest.mark.parametrize("n", [1000, 5000])
def test_a_cold_load_hashes_its_passes_in_batches(n):
    with hashes_by_entry() as counts:
        ledger_root(Ledger.from_payloads(b"cold", [i.to_bytes(4, "big") for i in range(n)], ALG))
    assert counts.total() == 3 * n - 1
    assert counts["hash"] == bin(n).count("1") <= n.bit_length()


def test_a_long_load_holds_little_short_lived_memory():
    payloads = [i.to_bytes(4, "big") for i in range(30_000)]
    tracemalloc.start()
    try:
        ledger = Ledger.from_payloads(b"peak", payloads, ALG)
        ledger_root(ledger)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Passes of at most 4,096 blocks or leaves peak about 0.5 MB above
    # what the ledger keeps; one pass over all of them, about 3.6 MB here.
    assert peak - retained < 1_000_000


# ------------------------------------------- proofs read by the bits of a range

def ref_split(n: int) -> int:
    """Largest power of two smaller than n (so k < n <= 2k)."""
    return 1 << ((n - 1).bit_length() - 1)


def ref_log_head(self, lo, hi):
    """``_Log.head`` as a list of pieces, largest first, folded from the right."""
    if lo == hi:
        return self.alg.hash(b"")
    pieces = []
    step = self.step
    while lo < hi:
        j = (hi - lo).bit_length() - 1
        at = (lo >> j) * step
        pieces.append(bytes((self.levels[j - 1] if j else self.leaves)[at:at + step]))
        lo += 1 << j
    head = pieces.pop()
    while pieces:
        head = self.alg.hash(b"\x01" + pieces.pop() + head)
    return head


def ref_log_subproof(self, m, lo, hi, complete):
    """``_Log.subproof`` as the RFC 9162 recursion, on the log's heads."""
    if m == hi - lo:
        return [] if complete else [ref_log_head(self, lo, hi)]
    k = ref_split(hi - lo)
    if m <= k:
        return ref_log_subproof(self, m, lo, lo + k, complete) + [ref_log_head(self, lo + k, hi)]
    return ref_log_subproof(self, m - k, lo + k, hi, False) + [ref_log_head(self, lo, lo + k)]


def ref_log_path(self, i, lo, hi):
    """``_Log.path`` as the RFC 9162 recursion, on the log's heads."""
    if hi - lo == 1:
        return []
    k = ref_split(hi - lo)
    if i - lo < k:
        return ref_log_path(self, i, lo, lo + k) + [ref_log_head(self, lo + k, hi)]
    return ref_log_path(self, i, lo + k, hi) + [ref_log_head(self, lo, lo + k)]


@contextmanager
def recursive_proofs():
    """``_Log`` reads heads and proofs through the recursive forms above."""
    saved = _Log.head, _Log.subproof, _Log.path
    _Log.head = ref_log_head
    _Log.subproof = lambda self, m, n: ref_log_subproof(self, m, 0, n, True)
    _Log.path = lambda self, index, level, n: ref_log_path(self, index, 0, n)
    try:
        yield
    finally:
        _Log.head, _Log.subproof, _Log.path = saved


def edge(ledger: Ledger) -> int:
    return ledger._log.root_size


# Ops as for the fill oracle above; each runs on the ledger and on a twin
# whose log reads heads and proofs through the recursion.
@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 1100), ops=_FILL_OPS)
def test_heads_and_proofs_read_by_bits_match_the_recursion(n, ops):
    payloads = [i.to_bytes(2, "big") for i in range(n)]
    versions = [tuple(Ledger.from_payloads(b"b", payloads, ALG) for _ in range(2))]
    for op, pick, x, y, count in ops:
        ledger, twin = versions[pick % len(versions)]
        size = len(ledger)
        if op == "append":
            for payload in [(size + i).to_bytes(3, "big") for i in range(count)]:
                ledger, twin = ledger.append(payload), twin.append(payload)
            versions.append((ledger, twin))
            continue
        if op == "root":
            m = round(x * size)
            call = lambda target: root_at(target, m)
        elif size and op == "consistency":
            m, new_size = sorted((1 + round(x * (size - 1)), 1 + round(y * (size - 1))))
            call = lambda target: prove_consistency(target, m, new_size)
        elif size:
            index = round(x * (size - 1))
            call = lambda target: prove_inclusion(target, index)
        else:
            continue
        with counted_hashes() as calls:
            got = call(ledger)
        with counted_hashes() as twin_calls, recursive_proofs():
            expected = call(twin)
        assert got == expected
        assert calls == twin_calls
        assert edge(ledger) == edge(twin)


def test_proofs_leave_no_cyclic_garbage():
    # A round proves every changed ledger; garbage that only the cyclic
    # collector can free would make rounds pay for collections.
    ledger = Ledger.from_payloads(b"gc", [bytes([i]) for i in range(37)], ALG)
    gc.collect()
    gc.disable()
    try:
        prove_consistency(ledger, 11, 37)
        prove_inclusion(ledger, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------ export files

def test_ledger_export_import_round_trip(tmp_path):
    rng = random.Random(9)
    payloads = [rng.randbytes(rng.randint(0, 30)) for _ in range(7)]
    ledger = Ledger.from_payloads(b"movement-7", payloads, SHA512)
    path = tmp_path / "l.ledger"
    write_ledger(ledger, path)
    loaded = read_ledger(path)
    assert loaded.id == ledger.id
    assert loaded.alg is SHA512
    assert [b.payload for b in loaded.blocks] == payloads
    assert ledger_root(loaded) == ledger_root(ledger)


# Each append picks any version, the newest of its log or not, so forks
# and superseded versions, whose log holds more payloads than they do, are
# both exported.
@settings(max_examples=60, deadline=None)
@given(
    ledger_id=st.binary(max_size=4),
    alg=st.sampled_from([SHA256, SHA512]),
    initial=st.lists(st.binary(max_size=4), max_size=5),
    appends=st.lists(st.tuples(st.integers(0, 30), st.binary(max_size=4)), max_size=12),
)
def test_every_version_reads_back_from_its_export(
    tmp_path_factory, ledger_id, alg, initial, appends
):
    versions = [Ledger(ledger_id, initial, alg)]
    for pick, payload in appends:
        versions.append(versions[min(pick, len(versions) - 1)].append(payload))
    path = tmp_path_factory.mktemp("export") / "version.ledger"
    for ledger in versions:
        write_ledger(ledger, path)
        loaded = read_ledger(path)
        assert (loaded.id, loaded.alg, loaded.blocks, ledger_root(loaded)) == (
            ledger.id, ledger.alg, ledger.blocks, ledger_root(ledger)
        )


def test_ledger_export_header_names_algorithm(tmp_path):
    ledger = Ledger.from_payloads(b"x", [b""], SHA256)
    path = tmp_path / "x.ledger"
    write_ledger(ledger, path)
    first = path.read_text().splitlines()[0]
    assert first == "ledger v1 alg=sha256 enc=hex id=78"


def test_an_undecodable_payload_line_is_named_by_its_number(tmp_path):
    path = tmp_path / "bad.ledger"
    ledger = Ledger.from_payloads(b"bad", [bytes([i]) for i in range(8)], SHA256)
    write_ledger(ledger, path)
    lines = path.read_text().splitlines()
    lines[4] = lines[7] = "0g"  # payloads 3 and 6, on lines 5 and 8
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        read_ledger(path)
    assert str(raised.value) == f"{path}: line 5 is not hex"


def test_an_export_in_base64_is_refused(tmp_path):
    # ledger b"b64" holding b"abc" and b"", exported in base64
    path = tmp_path / "b64.ledger"
    path.write_text("ledger v1 alg=sha256 enc=base64 id=623634\nYWJj\n\n")
    with pytest.raises(ValueError) as raised:
        read_ledger(path)
    assert str(raised.value).endswith("line 1 is not a ledger export header")


def test_ledger_export_empty_payload_round_trip(tmp_path):
    ledger = Ledger.from_payloads(b"e", [b"", b"abc", b""], SHA256)
    path = tmp_path / "e.ledger"
    write_ledger(ledger, path)
    loaded = read_ledger(path)
    assert [b.payload for b in loaded.blocks] == [b"", b"abc", b""]
