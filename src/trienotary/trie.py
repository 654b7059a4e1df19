"""Authenticated, partially persistent r-ary bitwise trie.

The trie maps fixed-length search keys (hashes of ledger identifiers) to
value digests (ledger state digests). Edges are labeled with log2(r)-bit
chunks of the key, most-significant chunk first; a subtree holding at most
``k`` tuples collapses into a leaf. The shape is therefore a pure function
of (r, k, key set): building the same association set in any order yields
byte-identical nodes.

Nodes are canonically serialized and addressed by their hash, so an
internal node's child references are digests and the root digest
authenticates the entire state, Merkle-style. Versioning is by path
copying: an update re-emits only the nodes on changed paths, the new root
records the previous root's digest, and every old node stays resolvable,
which makes all historical versions readable (partial persistence). Keys
are never deleted.

Wire format (one byte-aligned canonical layout per node)::

    tag 0x01  internal       bitmap[ceil(r/8)]  child digests ascending
    tag 0x02  leaf           count-1 (1 byte)   key||value tuples ascending
    tag 0x03  root-internal  as internal, then prev-root digest
    tag 0x04  root-leaf      as leaf, then prev-root digest

Bitmap bit i (label i) lives at byte i//8, mask 0x80 >> (i % 8). The
all-zero prev-root digest marks the first version of a lineage.

``parse_node`` decodes a node into a ``LeafNode`` or an ``InternalNode``,
and ``serialize_node`` encodes one. Both records are tuples
(``typing.NamedTuple``), built at tuple cost, compared by field and
copied with ``_replace``; a real leaf never equals a real internal node,
as their pairs hold key bytes and integer labels respectively.

``KeyPath`` is the single key-path walk: ``lookup``, ``search_path`` and
the audit all descend through it. It reads node bytes in place, checked
by the same framing rules as ``parse_node``, without building node objects.

The writer (``build``, ``update``, ``rechain``) reads the nodes it patches
through ``_frame`` too. ``build`` and ``update`` are one write entry,
``_write``, and one recursion: build writes into an empty subtree, update
into the stored root. Both take one input rule: a mapping, every key
and value a digest, and a key mapped to None, an attempted deletion,
raises DeletionNotSupportedError. An internal node is spliced, never
encoded: its stored bytes, or an empty body with no bitmap bit, get each
changed child's digest overwritten at the offset its bitmap gives and
each new child's digest inserted with its bitmap bit set. Only leaves
are encoded, by ``serialize_node``, which checks their order; a stored
leaf's tuples are merged with the changes first. ``rechain`` puts a new
prev-root behind the root's body. Each key is read as an integer once per
call, so a label is a shift and a mask. ``update`` reads only the nodes
on the changed keys' paths, and rejects a stored node that breaks the
wire format or could not sit where it was found with MalformedNodeError.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .crypto import HashAlg, label_width
from .errors import (
    CanonicalizationError,
    DeletionNotSupportedError,
    KeyExhaustedError,
    MalformedNodeError,
    MissingNodeError,
    NotFoundError,
)
from .store import ObjectStore

TAG_INTERNAL = 0x01
TAG_LEAF = 0x02
TAG_ROOT_INTERNAL = 0x03
TAG_ROOT_LEAF = 0x04

@dataclass(frozen=True)
class TrieParams:
    """Trie shape parameters, fixed for the lifetime of a lineage."""

    r: int
    k: int
    alg: HashAlg
    # derived once, read per node framed: bytes of a digest and of an
    # internal node's child bitmap, and the bitmap bits of labels >= r
    digest_len: int = field(init=False, repr=False, compare=False)
    bitmap_len: int = field(init=False, repr=False, compare=False)
    spare_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a float or bool k passes the range check and fails far later
        if type(self.r) is not int or type(self.k) is not int:
            raise ValueError(f"r and k must be integers, got r={self.r!r} k={self.k!r}")
        label_width(self.r)  # validates r
        if not 1 <= self.k <= 256:
            raise ValueError(f"k must be in [1, 256], got {self.k}")
        bitmap_len = (self.r + 7) // 8
        object.__setattr__(self, "digest_len", self.alg.output_len)
        object.__setattr__(self, "bitmap_len", bitmap_len)
        # labels >= r are the low 8 * bitmap_len - r bits of the bitmap
        object.__setattr__(self, "spare_bits", (1 << (8 * bitmap_len - self.r)) - 1)


class LeafNode(NamedTuple):
    """Up to k (key, value) tuples, strictly ascending by key.

    ``prev_root`` is None for non-root leaves; a root leaf carries the
    previous version's root digest (all-zero for the first version).
    A tuple, built at tuple cost: compared and hashed by its fields,
    copied with ``_replace``.
    """

    entries: tuple[tuple[bytes, bytes], ...]
    prev_root: bytes | None = None

    def value_of(self, key: bytes) -> bytes | None:
        for entry_key, value in self.entries:
            if entry_key == key:
                return value
        return None


class InternalNode(NamedTuple):
    """(label, child digest) pairs, strictly ascending by label.

    A tuple like ``LeafNode``: compared and hashed by its fields, copied
    with ``_replace``.
    """

    children: tuple[tuple[int, bytes], ...]
    prev_root: bytes | None = None

    def child(self, label: int) -> bytes | None:
        for child_label, digest in self.children:
            if child_label == label:
                return digest
        return None


Node = LeafNode | InternalNode


@dataclass(frozen=True)
class TrieVersion:
    """One notarized trie state: parameters, root digest, and node resolver."""

    params: TrieParams
    root_digest: bytes
    store: ObjectStore


@dataclass(frozen=True)
class Measurements:
    """Size and depth statistics of one trie version.

    ``total_size_bytes`` and ``avg_path_size_bytes`` account nodes in the
    wire format above. ``total_size_paper_bits`` uses the tighter
    accounting typical of size analyses of this structure: r bitmap bits
    per internal node, a ceil(log2(k))-bit tuple-count header plus one
    value digest per tuple for leaves, digest-sized child references, and
    no tags or prev-root field. Path lengths count nodes, root included.
    """

    n_keys: int
    nodes_count: int
    path_len_min: int
    path_len_max: int
    path_len_avg: float
    total_size_bytes: int
    total_size_paper_bits: int
    avg_path_size_bytes: float


# ------------------------------------------------------------ serialization

def serialize_node(node: Node, params: TrieParams) -> bytes:
    """Canonical byte serialization; raises CanonicalizationError on invalid nodes."""
    digest_len = params.digest_len
    if node.prev_root is not None and len(node.prev_root) != digest_len:
        raise CanonicalizationError("prev-root digest has wrong length")
    if isinstance(node, LeafNode):
        if not 1 <= len(node.entries) <= params.k:
            raise CanonicalizationError(
                f"leaf holds {len(node.entries)} tuples, allowed 1..{params.k}"
            )
        parts = [
            bytes([TAG_LEAF if node.prev_root is None else TAG_ROOT_LEAF]),
            bytes([len(node.entries) - 1]),
        ]
        prev_key = None
        for key, value in node.entries:
            if len(key) != digest_len or len(value) != digest_len:
                raise CanonicalizationError("tuple key/value has wrong length")
            if prev_key is not None and key <= prev_key:
                raise CanonicalizationError("leaf tuples not strictly ascending")
            prev_key = key
            parts.append(key)
            parts.append(value)
    else:
        if not node.children:
            raise CanonicalizationError("internal node has no children")
        bitmap = bytearray(params.bitmap_len)
        parts = [bytes([TAG_INTERNAL if node.prev_root is None else TAG_ROOT_INTERNAL]), b""]
        prev_label = -1
        for label, digest in node.children:
            if not prev_label < label < params.r:
                raise CanonicalizationError("child labels not strictly ascending in [0, r)")
            if len(digest) != digest_len:
                raise CanonicalizationError("child digest has wrong length")
            prev_label = label
            bitmap[label >> 3] |= 0x80 >> (label & 7)
            parts.append(digest)
        parts[1] = bytes(bitmap)
    if node.prev_root is not None:
        parts.append(node.prev_root)
    return b"".join(parts)


def _frame(data: bytes, params: TrieParams) -> tuple[int, int, int]:
    """Check everything that makes ``data`` a canonical node.

    Returns ``(tag, body_end, shape)``: ``body_end`` is where the prev-root
    field starts (the length of a non-root node), and ``shape`` is the
    tuple count of a leaf or, for an internal node, its bitmap as a
    big-endian integer (label i is bit ``8 * bitmap_len - 1 - i``). Raises
    MalformedNodeError on any deviation. This is the one definition of node
    validity; ``parse_node``, ``KeyPath`` and the writer all rely on it.

    The tag returned is one of the four ``TAG_`` values, so callers tell
    node kinds apart by arithmetic: odd tags are internal nodes, and tags
    above TAG_LEAF are roots.
    """
    if not data:
        raise MalformedNodeError("empty node")
    tag = data[0]
    if not TAG_INTERNAL <= tag <= TAG_ROOT_LEAF:
        raise MalformedNodeError(f"unknown node tag 0x{tag:02x}")
    digest_len = params.digest_len
    body_end = len(data)
    if tag > TAG_LEAF:
        body_end -= digest_len
        if body_end <= 0:
            raise MalformedNodeError("root node shorter than its prev-root field")
    if tag & 1:
        bitmap_end = 1 + params.bitmap_len
        if body_end < bitmap_end:
            raise MalformedNodeError("internal node shorter than its bitmap")
        # a one-byte bitmap (r <= 8) is its byte: slicing it out and
        # converting costs as much as every other check of the node
        bitmap = data[1] if bitmap_end == 2 else int.from_bytes(data[1:bitmap_end], "big")
        if not bitmap:
            raise MalformedNodeError("internal node has no children")
        if bitmap & params.spare_bits:
            raise MalformedNodeError("bitmap marks a label outside [0, r)")
        if body_end != bitmap_end + bitmap.bit_count() * digest_len:
            raise MalformedNodeError("internal length does not match its bitmap")
        return tag, body_end, bitmap
    if body_end < 2:
        raise MalformedNodeError("leaf too short")
    count = data[1] + 1
    if count > params.k:
        raise MalformedNodeError(f"leaf holds {count} tuples, limit {params.k}")
    stride = 2 * digest_len
    if body_end != 2 + count * stride:
        raise MalformedNodeError("leaf length does not match its tuple count")
    for offset in range(2 + stride, body_end, stride):
        if data[offset:offset + digest_len] <= data[offset - stride:offset - digest_len]:
            raise MalformedNodeError("leaf tuples not strictly ascending")
    return tag, body_end, count


def _leaf_entries(data: bytes, body_end: int, params: TrieParams) -> list[tuple[bytes, bytes]]:
    """The (key, value) tuples of a leaf framed by ``_frame``, in stored order."""
    digest_len = params.digest_len
    return [
        (data[at:at + digest_len], data[at + digest_len:at + 2 * digest_len])
        for at in range(2, body_end, 2 * digest_len)
    ]


def _children(data: bytes, bitmap: int, params: TrieParams) -> list[tuple[int, bytes]]:
    """The (label, child digest) pairs of an internal node framed by ``_frame``."""
    digest_len = params.digest_len
    offset = 1 + params.bitmap_len
    last = 8 * params.bitmap_len - 1
    children = []
    while bitmap:
        high = bitmap.bit_length() - 1  # the highest set bit holds the lowest label
        bitmap ^= 1 << high
        children.append((last - high, data[offset:offset + digest_len]))
        offset += digest_len
    return children


def parse_node(data: bytes, params: TrieParams) -> Node:
    """Inverse of serialize_node; raises MalformedNodeError on any deviation."""
    tag, body_end, shape = _frame(data, params)
    prev_root = data[body_end:] or None
    # both fields are given, so tuple.__new__ builds the record without the
    # NamedTuple's generated __new__, a Python frame per node parsed
    if tag & 1:
        return tuple.__new__(InternalNode, (tuple(_children(data, shape, params)), prev_root))
    return tuple.__new__(LeafNode, (tuple(_leaf_entries(data, body_end, params)), prev_root))


# ------------------------------------------------------------- construction

def _sorted_pairs(assoc, params: TrieParams) -> list[tuple[bytes, bytes]]:
    items = list(assoc.items())
    digest_len = params.digest_len
    for key, value in items:
        if value is None:
            raise DeletionNotSupportedError(f"key {key.hex()} maps to None; keys cannot be removed")
        if len(key) != digest_len or len(value) != digest_len:
            raise ValueError("keys and values must be digests of the configured length")
    items.sort(key=itemgetter(0))
    return items


def _key_ints(pairs: list[tuple[bytes, bytes]]) -> list[int]:
    return [int.from_bytes(key, "big") for key, _ in pairs]


class _Builder:
    """Writes the nodes of one build or update through one recursion.

    ``write`` places sorted pairs into the subtree at a digest, where None
    is an empty subtree. In an empty subtree, at most k pairs make a leaf
    and more make an internal node spliced into an empty body. A stored
    leaf overflowing with the merged changes is rewritten as an empty
    subtree. So no writer builds an ``InternalNode``, and the digests and
    the order of store reads and writes are those of encoding every
    written node afresh.

    ``ints`` holds the search keys of the pairs being placed, read as
    big-endian integers, so the label at a depth is a shift and a mask.
    The pairs under one node share the labels above it and are sorted, so
    each child's run of pairs ends where the integers reach the next
    label, found by bisection; the last run needs none.

    One internal node written costs what its wire format and its checks
    need: one ``store.get`` (which re-hashes the bytes) and one ``_frame``
    of a stored node, one copy of its bytes, one overwrite or insert per
    changed child, the tag byte only for a root and the bitmap only when
    a label was added, and one ``store.put``. A leaf costs the same read
    and check, its merge and one ``serialize_node``.
    """

    def __init__(self, params: TrieParams, store: ObjectStore):
        self.params = params
        self.get = store.get
        self.put = store.put
        self.k = params.k
        self.width = label_width(params.r)
        self.bits = params.alg.bit_length
        self.digest_len = params.digest_len
        self.bitmap_len = params.bitmap_len
        self.bitmap_end = 1 + params.bitmap_len
        self.top = 8 * params.bitmap_len - 1  # the bit of label 0
        self.mask = params.r - 1
        self.empty = bytes([TAG_INTERNAL]) + bytes(params.bitmap_len)  # a body with no child

    def write(
        self,
        digest: bytes | None,
        pairs: list[tuple[bytes, bytes]],
        ints: list[int],
        lo: int,
        hi: int,
        depth: int,
        prev_root: bytes | None,
    ) -> bytes:
        """Write the subtree at ``digest`` (None: empty) with sorted
        pairs[lo:hi] placed in it; returns the new subtree's digest.

        A stored node is read through ``_frame``; a node that breaks the
        wire format, or could not sit at this depth of the pairs' path,
        raises MalformedNodeError.
        """
        params = self.params
        digest_len = self.digest_len
        if digest is None:
            if hi - lo <= self.k:
                return self.put(serialize_node(LeafNode(tuple(pairs[lo:hi]), prev_root), params))
            data = self.empty
            body_end = len(data)
            shape = 0
        else:
            try:
                data = self.get(digest)
            except NotFoundError:
                raise MissingNodeError(f"node {digest.hex()} not resolvable") from None
            tag, body_end, shape = _frame(data, params)
            if depth and tag > TAG_LEAF:
                raise MalformedNodeError("root-tagged node below the root")
            if not tag & 1:  # a leaf
                above = self.bits - depth * self.width  # key bits below this node's labels
                prefix = ints[lo] >> above
                merged = {}
                for at in range(2, body_end, 2 * digest_len):
                    key = data[at:at + digest_len]
                    if int.from_bytes(key, "big") >> above != prefix:
                        raise MalformedNodeError("leaf key off the path to its node")
                    merged[key] = data[at + digest_len:at + 2 * digest_len]
                merged.update(pairs[lo:hi])
                entries = sorted(merged.items())
                if len(entries) <= self.k:
                    return self.put(serialize_node(LeafNode(tuple(entries), prev_root), params))
                n = len(entries)
                return self.write(None, entries, _key_ints(entries), 0, n, depth, prev_root)
        shift = self.bits - (depth + 1) * self.width  # brings the label at depth low
        if shift < 0:
            if digest is not None:
                raise MalformedNodeError("trie deeper than the key has bits")
            raise KeyExhaustedError(
                f"{hi - lo} keys share all {depth * self.width} label bits at depth {depth}"
            )
        # Patch a copy of the node: a changed child's digest is overwritten
        # where it stands, and a new label sets its bitmap bit and inserts
        # a digest at its offset. Offsets come from the stored bitmap by
        # popcount. A stored non-root node already carries its tag.
        bitmap_end = self.bitmap_end
        top = self.top
        mask = self.mask
        bitmap = shape
        out = bytearray(data)
        grown = 0  # labels arrive ascending: every insert so far lies ahead
        last = ints[hi - 1] >> shift
        i = lo
        while i < hi:
            prefix = ints[i] >> shift
            j = hi if prefix == last else bisect_left(ints, (prefix + 1) << shift, i + 1, hi)
            bit = top - (prefix & mask)
            offset = bitmap_end + (shape >> bit >> 1).bit_count() * digest_len
            at = offset + grown
            if shape >> bit & 1:
                child = data[offset:offset + digest_len]
                out[at:at + digest_len] = self.write(child, pairs, ints, i, j, depth + 1, None)
            else:
                bitmap |= 1 << bit
                out[at:at] = self.write(None, pairs, ints, i, j, depth + 1, None)
                grown += digest_len
            i = j
        if bitmap != shape:  # a label was added
            if bitmap_end == 2:  # a one-byte bitmap (r <= 8) is its byte
                out[1] = bitmap
            else:
                out[1:bitmap_end] = bitmap.to_bytes(self.bitmap_len, "big")
        if prev_root is not None:
            out[0] = TAG_ROOT_INTERNAL
            out[body_end + grown:] = prev_root  # replaces a stored root's prev-root field
        return self.put(bytes(out))


def _write(
    params: TrieParams, store: ObjectStore, root: bytes | None, assoc, prev_root: bytes
) -> TrieVersion:
    """The one write entry of ``build`` and ``update``: place ``assoc`` into
    the subtree at ``root`` (None: empty) and chain the result to
    ``prev_root``."""
    pairs = _sorted_pairs(assoc, params)
    if not pairs:
        raise ValueError("a trie write needs at least one association")
    builder = _Builder(params, store)
    digest = builder.write(root, pairs, _key_ints(pairs), 0, len(pairs), 0, prev_root)
    return TrieVersion(params, digest, store)


def build(params: TrieParams, assoc, prev_root: bytes | None, store: ObjectStore) -> TrieVersion:
    """Construct a trie version over the full association set.

    ``assoc`` is a mapping of search key to value digest; the resulting
    structure does not depend on its iteration order. All nodes are
    emitted to ``store``; ``prev_root`` (the all-zero sentinel for a first
    version) is embedded in the root node.
    """
    return _write(params, store, None, assoc, params.alg.zero if prev_root is None else prev_root)


def update(prev: TrieVersion, changes) -> TrieVersion:
    """New version with ``changes``, a mapping of search key to value
    digest (inserts and value updates), applied.

    Equivalent, node for node, to rebuilding the merged association set
    from scratch with the previous root digest chained in, but only the
    paths touched by ``changes`` are re-emitted; every other node is shared
    with ``prev``, whose own nodes all remain resolvable.

    Mapping a key to None is an attempted deletion and is rejected, as it
    is by ``build``.
    """
    return _write(prev.params, prev.store, prev.root_digest, changes, prev.root_digest)


def rechain(prev: TrieVersion) -> TrieVersion:
    """New version with identical content whose root chains to ``prev``.

    Covers notarization rounds in which no ledger digest changed: only the
    root node is re-emitted, its body kept byte for byte and its prev-root
    field replaced by ``prev``'s root digest.
    """
    data = _load(prev.store, prev.root_digest)
    tag, body_end, _ = _frame(data, prev.params)
    root_tag = tag if tag > TAG_LEAF else tag + 2  # 0x01 -> 0x03, 0x02 -> 0x04
    root = prev.store.put(bytes([root_tag]) + data[1:body_end] + prev.root_digest)
    return TrieVersion(prev.params, root, prev.store)


# ------------------------------------------------------------------ queries

UNRESOLVED = object()  # walk outcome: storage could not answer, or a node is malformed
_ABSENT = (None, "")


class KeyPath:
    """The single walk down one search key's path, over node bytes.

    ``lookup``, ``search_path`` and the audit all descend through this
    class. The key is held as one integer, and the label at a depth is a
    shift and a mask taken when the walk reaches that depth, as in
    ``_Builder``; so a walk costs the nodes it reads, not the key's bit
    length, and one instance serves every version walked for that key. A
    node at or past depth ``max_depth(len(key), r)`` would need bits the
    key lacks, and ends the walk unresolved. Each node is
    checked by the same framing rules as ``parse_node``; an internal node
    yields only the child the key needs (found by popcount over the
    bitmap) and a leaf is scanned in place, so no node objects are built.

    ``walk_each`` is the one walk loop: it walks several version roots in
    one call, one after another, sharing one memo, so the audit pays the
    call and the set-up of the walk once per run, not once per round.
    ``walk`` is that call over a single root.
    """

    def __init__(self, params: TrieParams, key: bytes):
        self.params = params
        self.key = key
        self.number = int.from_bytes(key, "big")
        self.width = label_width(params.r)
        self.first_shift = 8 * len(key) - self.width  # brings the label at depth 0 low

    def walk(self, data: bytes, fetch, memo: dict | None = None, path: list | None = None):
        """Decide the key from the root node ``data`` downwards.

        ``fetch(digest)`` returns a child's bytes, or None when storage
        cannot provide them. Returns ``(outcome, detail)``: the outcome is
        the key's value, None when the key is absent, or UNRESOLVED; detail
        names the malformation behind an UNRESOLVED outcome, else "".

        ``memo`` maps (child digest, depth) to the result of a walk that
        already passed through that child. The walk stops at such a child
        and returns that result; otherwise it records its own result for
        every child it fetched. ``path``, when given, collects (node bytes,
        label taken) per node visited, the label None for the deciding node.
        """
        return self.walk_each((data,), fetch, memo, path)[0]

    def walk_each(self, roots, fetch, memo: dict | None = None, path: list | None = None) -> list:
        """``walk`` over each root node in ``roots``, in order, with one
        ``memo`` shared by all of them (a fresh one when None): one
        ``(outcome, detail)`` per root. The fetches, and the results, are
        those of one ``walk`` call per root sharing that memo."""
        if memo is None:
            memo = {}
        params = self.params
        key = self.key
        number = self.number
        width = self.width
        mask = params.r - 1
        first_shift = self.first_shift
        digest_len = params.digest_len
        stride = 2 * digest_len
        bitmap_end = 1 + params.bitmap_len
        top = 8 * params.bitmap_len - 1
        results = []
        for data in roots:
            shift = first_shift
            depth = 0
            trail = []
            while True:
                try:
                    tag, body_end, shape = _frame(data, params)
                    if depth and tag > TAG_LEAF:
                        raise MalformedNodeError("root-tagged node below the root")
                except MalformedNodeError as exc:
                    result = (UNRESOLVED, str(exc))
                    break
                if not tag & 1:  # a leaf
                    result = _ABSENT
                    for value_at in range(2 + digest_len, body_end, stride):
                        if data.startswith(key, value_at - digest_len):
                            result = (data[value_at:value_at + digest_len], "")
                            break
                    label = None  # the deciding node
                elif shift < 0:
                    result = (UNRESOLVED, "trie deeper than the key has bits")
                    break
                else:
                    label = number >> shift & mask
                    bit = top - label
                    if not shape >> bit & 1:
                        result = _ABSENT
                        label = None  # the bitmap proves absence
                if path is not None:
                    path.append((data, label))
                if label is None:
                    break
                offset = bitmap_end + (shape >> bit >> 1).bit_count() * digest_len
                child = data[offset:offset + digest_len]
                depth += 1
                shift -= width
                step = (child, depth)
                result = memo.get(step)
                if result is not None:
                    break
                data = fetch(child)
                if data is None:
                    result = (UNRESOLVED, "")
                    break
                trail.append(step)
            for step in trail:
                memo[step] = result
            results.append(result)
        return results


def _load(store: ObjectStore, digest: bytes) -> bytes:
    try:
        return store.get(digest)
    except NotFoundError:
        raise MissingNodeError(f"node {digest.hex()} not resolvable") from None


def _walk_version(version: TrieVersion, key: bytes, path: list | None = None) -> bytes | None:
    store = version.store
    outcome, detail = KeyPath(version.params, key).walk(
        _load(store, version.root_digest), partial(_load, store), path=path
    )
    if detail:
        raise MalformedNodeError(detail)
    return outcome


def lookup(version: TrieVersion, key: bytes) -> bytes | None:
    """Value digest associated with ``key`` in this version, or None."""
    return _walk_version(version, key)


def search_path(version: TrieVersion, key: bytes) -> list[tuple[bytes, int | None]]:
    """Node serializations from the root to the node deciding ``key``.

    Each element pairs a node's canonical bytes with the label taken out of
    it; the terminal element (a leaf, or the internal node whose bitmap
    proves absence) carries None. Hashing element i+1 reproduces the child
    digest stored in element i at the taken label.
    """
    path: list[tuple[bytes, int | None]] = []
    _walk_version(version, key, path)
    return path


def associations(version: TrieVersion) -> dict[bytes, bytes]:
    """The full (key, value) set of one version, by walking every leaf."""
    params = version.params
    out: dict[bytes, bytes] = {}
    stack = [version.root_digest]
    while stack:
        data = _load(version.store, stack.pop())
        tag, body_end, shape = _frame(data, params)
        if not tag & 1:  # a leaf
            out.update(_leaf_entries(data, body_end, params))
        else:
            stack.extend(digest for _, digest in _children(data, shape, params))
    return out


def _paper_leaf_header_bits(k: int) -> int:
    return (k - 1).bit_length()


def stats(version: TrieVersion) -> Measurements:
    """Walk every reachable node once and measure the version's shape."""
    params = version.params
    digest_bits = 8 * params.digest_len
    header_bits = _paper_leaf_header_bits(params.k)

    nodes = 0
    total_bytes = 0
    paper_bits = 0
    n_keys = 0
    depth_min = None
    depth_max = 0
    depth_sum = 0
    path_bytes_sum = 0

    stack: list[tuple[bytes, int, int]] = [(version.root_digest, 0, 0)]
    while stack:
        digest, depth, prefix_bytes = stack.pop()
        data = _load(version.store, digest)
        node = parse_node(data, params)
        nodes += 1
        total_bytes += len(data)
        if isinstance(node, LeafNode):
            count = len(node.entries)
            paper_bits += header_bits + count * digest_bits
            n_keys += count
            path_len = depth + 1
            depth_min = path_len if depth_min is None else min(depth_min, path_len)
            depth_max = max(depth_max, path_len)
            depth_sum += count * path_len
            path_bytes_sum += count * (prefix_bytes + len(data))
        else:
            paper_bits += params.r + len(node.children) * digest_bits
            for _, child in node.children:
                stack.append((child, depth + 1, prefix_bytes + len(data)))

    return Measurements(
        n_keys=n_keys,
        nodes_count=nodes,
        path_len_min=depth_min or 0,
        path_len_max=depth_max,
        path_len_avg=depth_sum / n_keys,
        total_size_bytes=total_bytes,
        total_size_paper_bits=paper_bits,
        avg_path_size_bytes=path_bytes_sum / n_keys,
    )
