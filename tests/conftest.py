"""Fixtures and helpers shared by the test modules."""

from __future__ import annotations

import io
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from trienotary import store as store_module
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


class _HalfFile(io.FileIO):
    """A workdir file on a full disk: each write stops halfway."""

    def write(self, data):
        return super().write(data[: len(data) // 2])


class Appends:
    """Stands in for ``open`` in ``trienotary.store``, where ``_append`` opens
    every workdir file it writes: ``log`` gets the file name of each append,
    in order, and an append to a file named in ``short`` stops halfway."""

    def __init__(self):
        self.log: list[str] = []
        self.short: set[str] = set()

    def open(self, path, mode="r", *args, **kwargs):
        if "a" in mode:
            name = Path(path).name
            self.log.append(name)
            if name in self.short:
                return _HalfFile(path, mode)
        return open(path, mode, *args, **kwargs)


@pytest.fixture
def appends(monkeypatch):
    """The workdir appends of the test, logged and breakable (``Appends``)."""
    helper = Appends()
    monkeypatch.setattr(store_module, "open", helper.open, raising=False)
    return helper
