"""Hash selection and key bit extraction."""

from __future__ import annotations

import random

import pytest

from trienotary.crypto import (
    SHA256,
    SHA512,
    algorithm,
    algorithm_by_wire_id,
    key_labels,
    label_at,
    label_width,
    max_depth,
)
from trienotary.errors import KeyExhaustedError

# FIPS 180 empty-string vectors.
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)
SHA512_EMPTY = bytes.fromhex(
    "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
    "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
)


def test_empty_string_vectors():
    assert SHA256.hash(b"") == SHA256_EMPTY
    assert SHA512.hash(b"") == SHA512_EMPTY


def test_hash_is_deterministic_and_sized():
    for alg in (SHA256, SHA512):
        out = alg.hash(b"some data")
        assert out == alg.hash(b"some data")
        assert len(out) == alg.output_len
    assert SHA256.hash(b"a") != SHA256.hash(b"b")


def test_algorithm_lookup():
    assert algorithm("sha256") is SHA256
    assert algorithm("SHA-512") is SHA512
    with pytest.raises(ValueError):
        algorithm("md5")
    # Audit-proof bundles carry these ids; they are part of the wire format.
    assert algorithm_by_wire_id(1) is SHA256
    assert algorithm_by_wire_id(2) is SHA512
    with pytest.raises(ValueError):
        algorithm_by_wire_id(0)


def test_zero_sentinel():
    assert SHA256.zero == b"\x00" * 32
    assert len(SHA512.zero) == 64


def test_label_at_binary():
    key = bytes([0b10110000]) + b"\x00" * 31
    assert label_at(key, 0, 2) == 1
    assert label_at(key, 1, 2) == 0
    assert label_at(key, 2, 2) == 1


def test_label_at_quaternary():
    key = bytes([0b10110000]) + b"\x00" * 31
    assert label_at(key, 0, 4) == 2
    assert label_at(key, 1, 4) == 3


def test_label_at_zero_key():
    key = b"\x00" * 32
    for r in (2, 4, 8, 16, 32, 64, 128, 256):
        for depth in (0, 1, max_depth(32, r) - 1):
            assert label_at(key, depth, r) == 0


def test_label_at_crosses_byte_boundaries():
    # 4-bit labels at odd depths straddle byte edges for w not dividing 8.
    key = bytes([0xAB, 0xCD, 0xEF])
    assert [label_at(key, d, 16) for d in range(6)] == [0xA, 0xB, 0xC, 0xD, 0xE, 0xF]
    assert [label_at(key, d, 8) for d in range(8)] == [5, 2, 7, 4, 6, 7, 5, 7]


def test_label_concatenation_reconstructs_prefix():
    rng = random.Random(7)
    for r in (2, 4, 8, 16, 256):
        w = label_width(r)
        key = rng.randbytes(32)
        key_bits = int.from_bytes(key, "big")
        for depth_count in (1, 3, max_depth(32, r)):
            acc = 0
            for d in range(depth_count):
                acc = (acc << w) | label_at(key, d, r)
            assert acc == key_bits >> (256 - depth_count * w)


def test_label_at_total_over_valid_range_then_exhausts():
    key = bytes(range(32))
    for r in (2, 8, 256):
        depths = max_depth(32, r)
        for d in range(depths):
            assert 0 <= label_at(key, d, r) < r
        with pytest.raises(KeyExhaustedError):
            label_at(key, depths, r)


def test_key_labels_are_label_at_for_every_depth():
    rng = random.Random(7)
    for r in (2, 4, 8, 16, 32, 64, 128, 256):
        for length in (32, 64, 3):
            key = rng.randbytes(length)
            assert key_labels(key, r) == tuple(
                label_at(key, d, r) for d in range(max_depth(length, r))
            )


def test_label_width_validation():
    for bad in (0, 1, 3, 6, 512):
        with pytest.raises(ValueError):
            label_width(bad)
    assert label_width(2) == 1
    assert label_width(256) == 8
