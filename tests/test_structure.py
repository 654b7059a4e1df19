"""Vectorized measurements must agree exactly with the stored-trie walk."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienotary.crypto import SHA256, SHA512
from trienotary.errors import DuplicateKeyError, KeyExhaustedError
from trienotary.store import MemoryStore
from trienotary.structure import keys_to_array, measure_keys
from trienotary.trie import TrieParams, build, stats


def rand_keys(rng: random.Random, n: int, length: int = 32) -> list[bytes]:
    out = set()
    while len(out) < n:
        out.add(rng.randbytes(length))
    return list(out)


def build_stats(params: TrieParams, keys: list[bytes]):
    assoc = {key: params.alg.hash(key) for key in keys}
    return stats(build(params, assoc, None, MemoryStore(params.alg)))


@pytest.mark.parametrize("r,k", [(2, 1), (2, 2), (2, 8), (4, 1), (4, 3), (8, 8), (16, 2), (256, 1)])
def test_measurements_equal_stored_trie_stats(r, k):
    rng = random.Random(r * 100 + k)
    params = TrieParams(r, k, SHA256)
    for n in (1, 2, 3, k, k + 1, 17, 100, 400):
        keys = rand_keys(rng, max(n, 1))
        fast = measure_keys(params, keys)
        slow = build_stats(params, keys)
        assert fast == slow, (r, k, n)


def test_measurements_with_clustered_keys():
    # shared prefixes force deep unary chains; exercises run nesting
    rng = random.Random(7)
    prefix = rng.randbytes(6)
    keys = list({prefix + rng.randbytes(26) for _ in range(64)})
    keys += rand_keys(rng, 10)
    for r, k in ((2, 1), (8, 2)):
        params = TrieParams(r, k, SHA256)
        assert measure_keys(params, keys) == build_stats(params, keys)


def test_measurements_sha512():
    rng = random.Random(11)
    params = TrieParams(4, 2, SHA512)
    keys = rand_keys(rng, 50, 64)
    assert measure_keys(params, keys) == build_stats(params, keys)


def test_single_key():
    m = measure_keys(TrieParams(2, 1, SHA256), [SHA256.hash(b"one")])
    assert (m.nodes_count, m.path_len_min, m.path_len_max) == (1, 1, 1)
    assert m.total_size_bytes == 98


def test_duplicate_keys_rejected():
    key = SHA256.hash(b"dup")
    with pytest.raises(DuplicateKeyError):
        measure_keys(TrieParams(2, 1, SHA256), [key, key])


def test_accepts_prepacked_array():
    rng = random.Random(3)
    keys = rand_keys(rng, 40)
    arr = keys_to_array(keys, 32)
    assert isinstance(arr, np.ndarray)
    params = TrieParams(8, 2, SHA256)
    assert measure_keys(params, arr) == measure_keys(params, keys)


def test_order_independence():
    rng = random.Random(4)
    keys = rand_keys(rng, 120)
    params = TrieParams(4, 4, SHA256)
    reference = measure_keys(params, keys)
    for _ in range(5):
        rng.shuffle(keys)
        assert measure_keys(params, keys) == reference


def test_depth_scaling_is_logarithmic():
    rng = random.Random(12)
    params = TrieParams(2, 1, SHA256)
    avg = {}
    for exponent in (10, 11, 12):
        keys = rand_keys(rng, 1 << exponent)
        avg[exponent] = measure_keys(params, keys).path_len_avg
    # doubling n adds one level, within statistical slack
    assert avg[11] - avg[10] == pytest.approx(1.0, abs=0.35)
    assert avg[12] - avg[11] == pytest.approx(1.0, abs=0.35)


def _sharing(base: bytes, cut: int, tail: bytes) -> bytes:
    """A key whose first ``cut`` bits are base's, whose next bit is not, and
    whose remaining bits are tail's."""
    shift = 8 * len(base) - cut - 1
    head = (int.from_bytes(base, "big") >> shift ^ 1) << shift
    return (head | int.from_bytes(tail, "big") & ((1 << shift) - 1)).to_bytes(len(base), "big")


def _outcome(measure, params, keys):
    try:
        return measure(params, keys)
    except KeyExhaustedError:
        return KeyExhaustedError


@settings(max_examples=200, deadline=None)
@given(
    alg=st.sampled_from([SHA256, SHA512]),
    r=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
    k=st.integers(1, 8),
    data=st.data(),
)
def test_measurements_at_word_edges(alg, r, k, data):
    # prefixes shared up to, across and just past each 64-bit word edge; zero
    # bytes inside and at the end of keys, where a byte-string sort could go
    # wrong; and all-ones runs after the first differing bit, which round up
    # to the next power of two in a float
    length = alg.output_len
    edges = [0, 63, 64, 65, 127, 128, 191, 192, 255] + ([511] if length == 64 else [])
    any_bytes = st.one_of(
        st.sampled_from([bytes(length), b"\xff" * length]),
        st.binary(min_size=length, max_size=length),
    )
    base = data.draw(any_bytes, label="base")
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(edges), any_bytes), min_size=1, max_size=8))
    keys = list({base} | {_sharing(base, cut, tail) for cut, tail in drawn})
    params = TrieParams(r, k, alg)
    assert _outcome(measure_keys, params, keys) == _outcome(build_stats, params, keys)


@pytest.mark.parametrize(
    "r,exhausted",
    [(2, False), (4, False), (8, True), (16, False), (32, True), (64, True), (128, True), (256, False)],
)
def test_last_bit_pair_exhausts_iff_label_width_leaves_bits_over(r, exhausted):
    # when the label width does not divide 256, the last bit lies beyond the
    # last whole label, so keys differing only there cannot be separated
    base = SHA256.hash(b"last bit")
    keys = [base, (int.from_bytes(base, "big") ^ 1).to_bytes(32, "big")]
    params = TrieParams(r, 1, SHA256)
    if exhausted:
        for measure in (measure_keys, build_stats):
            with pytest.raises(KeyExhaustedError):
                measure(params, keys)
    else:
        assert measure_keys(params, keys) == build_stats(params, keys)
