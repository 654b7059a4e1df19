"""Hash-function selection and bit extraction over digests.

Every digest in the system (node references, search keys, ledger roots)
comes from one hash algorithm fixed per deployment, through one of its two
entry points: ``HashAlg.hash`` for one input, ``HashAlg.hash_each`` for a
pass of independent inputs (a ledger's blocks, a level of Merkle heads, a
bundle's nodes), which pays the method call once per pass. Digests are plain
``bytes`` of the algorithm's output length; the all-zero digest is reserved
as the "no previous version" sentinel and never occurs as a real hash
output in practice.

Search keys are digests read as bit strings, most-significant bit first:
the log2(r)-bit chunk at a trie depth selects the outgoing edge there, and
``label_width`` gives that width and validates r. The trie's walks,
``trie._Builder`` and ``trie.KeyPath``, read a key as one integer and take
each label by a shift and a mask. ``label_at`` and ``max_depth`` compute
the same labels one chunk at a time; no library path calls them, and they
are the oracles the trie and key-path tests compare those walks against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from .errors import KeyExhaustedError


@dataclass(frozen=True)
class HashAlg:
    """A named cryptographic hash with a fixed output length in bytes.

    ``wire_id`` is the one-byte algorithm id written into audit-proof
    bundles. ``hash`` and ``hash_each`` are the only hashing entry points
    of the library: ``hash_each(items)`` is ``[hash(x) for x in items]``
    in one call.
    """

    name: str
    output_len: int
    wire_id: int
    _new: Callable = field(init=False, repr=False, compare=False)
    # the reserved all-zero sentinel digest, built once
    zero: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Bound once: hashlib.new looks the name up on every call.
        object.__setattr__(self, "_new", getattr(hashlib, self.name))
        object.__setattr__(self, "zero", bytes(self.output_len))

    def hash(self, data: bytes) -> bytes:
        return self._new(data).digest()

    def hash_each(self, items) -> list[bytes]:
        """The digest of each input, in order."""
        new = self._new
        return [new(x).digest() for x in items]

    @property
    def bit_length(self) -> int:
        return 8 * self.output_len


SHA256 = HashAlg("sha256", 32, 1)
SHA512 = HashAlg("sha512", 64, 2)

_REGISTRY = (SHA256, SHA512)
_BY_NAME = {alg.name: alg for alg in _REGISTRY}
_BY_WIRE_ID = {alg.wire_id: alg for alg in _REGISTRY}
ALGORITHM_NAMES = tuple(_BY_NAME)


def algorithm(name: str) -> HashAlg:
    """Look up a supported algorithm by its exact name, "sha256" or "sha512"."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unsupported hash algorithm: {name!r}") from None


def algorithm_by_wire_id(wire_id: int) -> HashAlg:
    """Look up a supported algorithm by its audit-bundle id."""
    try:
        return _BY_WIRE_ID[wire_id]
    except KeyError:
        raise ValueError(f"unknown hash algorithm id {wire_id}") from None


def label_width(r: int) -> int:
    """Bits per edge label for arity ``r``; validates r is a power of two in [2, 256]."""
    if r < 2 or r > 256 or r & (r - 1):
        raise ValueError(f"arity must be a power of two in [2, 256], got {r}")
    return r.bit_length() - 1


def max_depth(key_len: int, r: int) -> int:
    """Number of full labels extractable from a ``key_len``-byte key."""
    return (8 * key_len) // label_width(r)


def label_at(key: bytes, depth: int, r: int) -> int:
    """Edge label at ``depth`` for a key walked in log2(r)-bit chunks, MSB first.

    Raises KeyExhaustedError when the requested chunk runs past the end of
    the key, which signals a full-length key prefix collision upstream.
    """
    w = label_width(r)
    start = depth * w
    if depth < 0 or start + w > 8 * len(key):
        raise KeyExhaustedError(
            f"label {depth} needs bits [{start}, {start + w}) of a {8 * len(key)}-bit key"
        )
    # A label spans at most two bytes (w <= 8).
    byte0, bit0 = divmod(start, 8)
    window = int.from_bytes(key[byte0:byte0 + 2].ljust(2, b"\x00"), "big")
    return (window >> (16 - bit0 - w)) & (r - 1)

