"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from trienotary.crypto import HashAlg


@pytest.fixture
def merkle_hashes(monkeypatch):
    """Counts the digests made from the merkle module: each HashAlg.hash
    call and each item of a HashAlg.hash_each call."""
    counts = Counter()
    original, original_each = HashAlg.hash, HashAlg.hash_each

    def counted(alg, data):
        counts[sys._getframe(1).f_globals["__name__"]] += 1
        return original(alg, data)

    def counted_each(alg, items):
        digests = original_each(alg, items)
        counts[sys._getframe(1).f_globals["__name__"]] += len(digests)
        return digests

    monkeypatch.setattr(HashAlg, "hash", counted)
    monkeypatch.setattr(HashAlg, "hash_each", counted_each)

    def taken() -> int:
        count = counts["trienotary.merkle"]
        counts.clear()
        return count

    return taken
