"""Fixtures and helpers shared by the test modules."""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from trienotary.crypto import HashAlg


@contextmanager
def digest_counts():
    """Counts the digests made inside the block by (calling module, entry
    point): each HashAlg.hash call under "hash", each item of a
    HashAlg.hash_each call under "hash_each"."""
    counts = Counter()
    original, original_each = HashAlg.hash, HashAlg.hash_each

    def counted(alg, data):
        counts[sys._getframe(1).f_globals["__name__"], "hash"] += 1
        return original(alg, data)

    def counted_each(alg, items):
        digests = original_each(alg, items)
        counts[sys._getframe(1).f_globals["__name__"], "hash_each"] += len(digests)
        return digests

    HashAlg.hash, HashAlg.hash_each = counted, counted_each
    try:
        yield counts
    finally:
        HashAlg.hash, HashAlg.hash_each = original, original_each


@pytest.fixture
def merkle_hashes():
    """Counts the digests made from the merkle module: each call returns
    the count since the last one."""
    with digest_counts() as counts:

        def taken() -> int:
            count = counts["trienotary.merkle", "hash"] + counts["trienotary.merkle", "hash_each"]
            counts.clear()
            return count

        yield taken
