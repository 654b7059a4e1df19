"""Vectorized shape measurements of the trie induced by a key set.

The trie's structure is a pure function of (r, k, key set): once keys are
sorted, every subtree covers a contiguous slice, and the nodes at depth d
are exactly the maximal runs of equal d-label prefixes nested inside
internal nodes of depth d-1 (the root, at depth 0, holds every key). One
array fixes those runs, as an LCP array fixes the trie of a sorted string
set: the number of leading bits each pair of adjacent sorted keys shares.
A run at depth d splits wherever that count is below d+1 labels. That
makes the full set of measurements that ``trie.stats`` extracts from a
stored version computable level by level with numpy run-length
operations, without hashing or materializing a single node, which is
what makes multi-million-key parameter sweeps practical.

``measure_keys`` returns the same ``Measurements`` that building the trie
and calling ``trie.stats`` on it would produce (the equivalence is pinned
by tests). It is two steps: ``shared_prefixes`` checks the keys and builds
their array, and ``measure_shared`` runs the level loop over it, so a
sweep over (r, k) builds each key set's array once.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicateKeyError, KeyExhaustedError
from .trie import Measurements, TrieParams, _paper_leaf_header_bits


def keys_to_array(keys, key_len: int) -> np.ndarray:
    """Pack an iterable of equal-length byte keys into an (n, key_len) uint8 array."""
    if isinstance(keys, np.ndarray):
        if keys.ndim != 2 or keys.shape[1] != key_len or keys.dtype != np.uint8:
            raise ValueError(f"expected a (n, {key_len}) uint8 array, got {keys.shape} {keys.dtype}")
        return keys
    joined = b"".join(keys)
    if len(joined) % key_len:
        raise ValueError("keys are not all of the configured digest length")
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, key_len)


def _shared_prefix_bits(arr: np.ndarray) -> np.ndarray:
    """Sort the keys as byte strings; entry i is the number of leading bits
    that sorted keys i and i+1 share (the full key length for a duplicate)."""
    key_len = arr.shape[1]
    words = arr[np.argsort(arr.view(f"S{key_len}")[:, 0])].view(">u8")
    shared = np.full(len(arr) - 1, 8 * key_len, dtype=np.int64)
    # last word first, so the first word in which a pair differs decides
    for j in range(words.shape[1] - 1, -1, -1):
        diff = words[1:, j] ^ words[:-1, j]
        # bit lengths from float exponents, exact on 32-bit halves
        hi_len = np.frexp((diff >> np.uint64(32)).astype(np.float64))[1]
        lo_len = np.frexp((diff & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
        bit_len = np.where(hi_len > 0, hi_len + 32, lo_len)
        shared = np.where(diff != 0, 64 * (j + 1) - bit_len, shared)
    return shared


def measure_keys(params: TrieParams, keys) -> Measurements:
    """Measurements of the trie that ``trie.build`` would produce over ``keys``."""
    return measure_shared(params, shared_prefixes(keys, params.alg.output_len))


def shared_prefixes(keys, key_len: int) -> np.ndarray:
    """The shared-prefix array of a set of ``key_len``-byte keys, which
    depends on no trie parameter, so a sweep computes it once per key set.

    Raises ``ValueError`` for an empty set and ``DuplicateKeyError`` for a
    repeated key."""
    arr = keys_to_array(keys, key_len)
    if arr.shape[0] == 0:
        raise ValueError("cannot measure an empty key set")
    shared = _shared_prefix_bits(arr)
    if (shared == 8 * key_len).any():
        raise DuplicateKeyError("duplicate search key in measured set")
    return shared


def measure_shared(params: TrieParams, shared: np.ndarray) -> Measurements:
    """``measure_keys`` over the keys whose ``shared_prefixes`` array is
    ``shared``, built for keys of ``params.alg``'s digest length."""
    key_len = params.alg.output_len
    n = len(shared) + 1
    w = params.r.bit_length() - 1
    digest_len = key_len
    digest_bits = 8 * key_len
    bitmap_len = params.bitmap_len
    header_bits = _paper_leaf_header_bits(params.k)
    max_levels = (8 * key_len) // w

    nodes_count = 0
    total_bytes = 0
    paper_bits = 0
    depth_min: int | None = None
    depth_max = 0
    depth_sum = 0
    path_bytes_sum = 0

    # per-level run state: start index, node flag, and accumulated byte size
    # of the ancestors of each node run
    starts = np.zeros(1, dtype=np.int64)
    is_node = np.ones(1, dtype=bool)
    prefix_bytes = np.zeros(1, dtype=np.int64)
    depth = 0

    while True:
        sizes = np.diff(starts, append=n)
        leaf_runs = is_node & (sizes <= params.k)
        internal_runs = is_node & (sizes > params.k)
        root_extra = digest_len if depth == 0 else 0

        if leaf_runs.any():
            leaf_sizes = sizes[leaf_runs]
            leaf_keys = int(leaf_sizes.sum())
            count = int(leaf_runs.sum())
            nodes_count += count
            total_bytes += count * (2 + root_extra) + 2 * digest_len * leaf_keys
            paper_bits += count * header_bits + digest_bits * leaf_keys
            path_len = depth + 1
            depth_min = path_len if depth_min is None else min(depth_min, path_len)
            depth_max = max(depth_max, path_len)
            depth_sum += path_len * leaf_keys
            leaf_node_bytes = 2 + root_extra + 2 * digest_len * leaf_sizes
            path_bytes_sum += int(
                (leaf_sizes * (prefix_bytes[leaf_runs] + leaf_node_bytes)).sum()
            )

        if not internal_runs.any():
            break
        if depth >= max_levels:
            raise KeyExhaustedError(
                f"keys not separable within {max_levels} labels of {w} bits"
            )

        child_changed = shared < (depth + 1) * w
        child_starts = np.flatnonzero(np.concatenate(([True], child_changed)))
        parents = np.searchsorted(starts, child_starts, side="right") - 1
        child_counts = np.bincount(parents, minlength=len(starts))

        popcounts = child_counts[internal_runs]
        count = int(internal_runs.sum())
        nodes_count += count
        internal_node_bytes = 1 + bitmap_len + root_extra + digest_len * popcounts
        total_bytes += int(internal_node_bytes.sum())
        paper_bits += count * params.r + digest_bits * int(popcounts.sum())

        # children of internal runs become next level's node runs
        child_is_node = internal_runs[parents]
        internal_prefix = np.zeros(len(starts), dtype=np.int64)
        internal_prefix[internal_runs] = prefix_bytes[internal_runs] + internal_node_bytes
        child_prefix = internal_prefix[parents]

        starts = child_starts
        is_node = child_is_node
        prefix_bytes = child_prefix
        depth += 1

    return Measurements(
        n_keys=n,
        nodes_count=nodes_count,
        path_len_min=depth_min or 0,
        path_len_max=depth_max,
        path_len_avg=depth_sum / n,
        total_size_bytes=total_bytes,
        total_size_paper_bits=paper_bits,
        avg_path_size_bytes=path_bytes_sum / n,
    )
