"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from trienotary.crypto import HashAlg


@pytest.fixture
def merkle_hashes(monkeypatch):
    """Counts HashAlg.hash calls made from the merkle module."""
    counts = Counter()
    original = HashAlg.hash

    def counted(alg, data):
        counts[sys._getframe(1).f_globals["__name__"]] += 1
        return original(alg, data)

    monkeypatch.setattr(HashAlg, "hash", counted)

    def taken() -> int:
        count = counts["trienotary.merkle"]
        counts.clear()
        return count

    return taken
