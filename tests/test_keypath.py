"""The byte-level key-path walker and node framing against the code they replaced.

``ref_search`` is the audit's search loop as it stood before ``KeyPath``:
it parses every node on the path into a node object and recomputes the
key's label at each depth. Honest tries with one node on a key's path
replaced by hostile bytes must give the same value and the same
malformed-or-not verdict from the walker, ``lookup`` and ``audit_ledger``,
and ``KeyPath.walk_each`` over the honest and the hostile versions must
give each root's reference outcome.

``ref_frame`` is ``trie._frame`` before it dispatched on the tag by
arithmetic. The walker test cannot see a changed framing message, since
its reference frames through ``_frame`` too, so the framing test compares
the two on the same honest and hostile nodes directly.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harness import label_adding_key
from trienotary.audit import Status, audit_ledger
from trienotary.crypto import SHA256, SHA512, label_at
from trienotary.errors import (
    IntegrityError,
    KeyExhaustedError,
    MalformedNodeError,
    MissingNodeError,
    NotFoundError,
)
from trienotary.store import MemoryStore
from trienotary.trie import (
    UNRESOLVED,
    InternalNode,
    KeyPath,
    LeafNode,
    TrieParams,
    TrieVersion,
    _frame,
    build,
    lookup,
    parse_node,
    rechain,
    serialize_node,
    update,
)

ALG = SHA256


def ref_search(params: TrieParams, key: bytes, root_node, resolve, visited=None):
    """(value or None or UNRESOLVED, malformation detail or "") for one version."""
    node = root_node
    depth = 0
    while True:
        if depth > 0 and node.prev_root is not None:
            return UNRESOLVED, "root-tagged node below the root"
        if isinstance(node, LeafNode):
            return node.value_of(key), ""
        try:
            label = label_at(key, depth, params.r)
        except KeyExhaustedError:
            return UNRESOLVED, "trie deeper than the key has bits"
        child = node.child(label)
        if child is None:
            return None, ""
        try:
            data = resolve(child)
        except (NotFoundError, IntegrityError):
            return UNRESOLVED, ""
        try:
            node = parse_node(data, params)
        except MalformedNodeError as exc:
            return UNRESOLVED, str(exc)
        if visited is not None:
            visited.append(data)
        depth += 1


def fetch_or_none(store: MemoryStore, fetched: list | None = None):
    """``store.get`` as a walk's fetch; appends each digest to ``fetched``."""

    def fetch(digest: bytes) -> bytes | None:
        if fetched is not None:
            fetched.append(digest)
        try:
            return store.get(digest)
        except (NotFoundError, IntegrityError):
            return None

    return fetch


# Hostile replacements for an honest node on the path of ``key``: each maps
# (original bytes, params, key, draw) to new bytes. Most aim at one framing
# rule of the wire format.
def _truncate(orig, params, key, draw):
    return orig[:draw(st.integers(0, len(orig) - 1))]


def _extend(orig, params, key, draw):
    return orig + draw(st.binary(min_size=1, max_size=40))


def _bad_tag(orig, params, key, draw):
    return bytes([draw(st.sampled_from([0x00, 0x05, 0x7F, 0xFF]))]) + orig[1:]


def _swap_kind(orig, params, key, draw):
    return bytes([{0x01: 0x02, 0x02: 0x01}[orig[0]]]) + orig[1:]


def _root_tagged(orig, params, key, draw):
    return bytes([orig[0] + 2]) + orig[1:] + draw(st.binary(min_size=32, max_size=32))


def _bitmap_past_r(orig, params, key, draw):
    # with r < 8 the low 8 - r bitmap bits stand for labels >= r
    spare = draw(st.integers(0, max(7 - params.r, 0)))
    return bytes([0x01, orig[1] | (1 << spare)]) + orig[2:]


def _count_over_k(orig, params, key, draw):
    return bytes([0x02, draw(st.integers(params.k, 255))]) + orig[2:]


def _not_ascending(orig, params, key, draw):
    if orig[0] == 0x02 and orig[1] > 0:
        return orig[:2] + orig[66:130] + orig[2:66] + orig[130:]
    return bytes([0x02, 1]) + key + key + key + key  # a duplicated key


def _flip(orig, params, key, draw):
    position = draw(st.integers(0, len(orig) - 1))
    mutated = bytearray(orig)
    mutated[position] ^= draw(st.integers(1, 255))
    return bytes(mutated)


def _random(orig, params, key, draw):
    return draw(st.binary(max_size=160))


def _valid_leaf(orig, params, key, draw):
    # canonical, so the walk must read the value out of it
    value = draw(st.binary(min_size=32, max_size=32))
    return serialize_node(LeafNode(((key, value),)), params)


MUTATIONS = [
    _truncate, _extend, _bad_tag, _swap_kind, _root_tagged, _bitmap_past_r,
    _count_over_k, _not_ascending, _flip, _random, _valid_leaf,
]
# Replaces the node with another internal node of the key's honest path, so
# a walk meets that node at a depth where the honest trie does not hold it.
MOVED = "another internal node of the path"


def _repoint(store, params, key, path_nodes, index, replacement) -> bytes:
    """Store ``replacement`` for path node ``index`` and re-emit its ancestors."""
    digest = store.put(replacement)
    for depth in range(index - 1, -1, -1):
        parent = parse_node(path_nodes[depth], params)
        label = label_at(key, depth, params.r)
        children = tuple(
            (lbl, digest if lbl == label else child) for lbl, child in parent.children
        )
        digest = store.put(serialize_node(InternalNode(children, parent.prev_root), params))
    return digest


@settings(max_examples=300, deadline=None)
@given(
    r=st.sampled_from([2, 4, 8, 16]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    mutation=st.sampled_from([*MUTATIONS, MOVED]),
    data=st.data(),
)
def test_walker_lookup_and_audit_agree_with_reference(r, k, seed, mutation, data):
    params = TrieParams(r, k, ALG)
    rng = random.Random(seed)
    ids = [b"id-%d" % i for i in range(rng.randint(k + 1, 24))]
    store = MemoryStore(ALG)
    honest = build(
        params, {ALG.hash(lid): rng.randbytes(32) for lid in ids}, None, store
    )
    target = data.draw(st.sampled_from(ids + [b"absent"]))
    key = ALG.hash(target)

    root_data = store.get(honest.root_digest)
    path_nodes = [root_data]
    ref_search(params, key, parse_node(root_data, params), store.get, path_nodes)
    assume(len(path_nodes) >= 2)  # an absent key may end at the root
    index = data.draw(st.integers(1, len(path_nodes) - 1))
    if mutation is MOVED:
        others = [node for at, node in enumerate(path_nodes) if at not in (0, index)]
        others = [node for node in others if node[0] == 0x01]
        assume(others)
        replacement = data.draw(st.sampled_from(others))
    else:
        replacement = mutation(path_nodes[index], params, key, data.draw)
    root = _repoint(store, params, key, path_nodes, index, replacement)
    root_data = store.get(root)

    expected = ref_search(params, key, parse_node(root_data, params), store.get)
    value, detail = expected
    assert KeyPath(params, key).walk(root_data, fetch_or_none(store)) == expected

    # One call walks the honest version, the tampered one and its rechain:
    # each outcome is the reference's for that root, and the fetches are
    # those of one walk per root sharing one memo.
    version = TrieVersion(params, root, store)
    later = rechain(version)
    roots = [store.get(digest) for digest in (honest.root_digest, root, later.root_digest)]
    fetched, fetched_per_root, memo = [], [], {}
    walked = KeyPath(params, key).walk_each(roots, fetch_or_none(store, fetched), {})
    assert walked == [ref_search(params, key, parse_node(d, params), store.get) for d in roots]
    for root_node in roots:
        KeyPath(params, key).walk(root_node, fetch_or_none(store, fetched_per_root), memo)
    assert fetched == fetched_per_root

    if detail:
        with pytest.raises(MalformedNodeError, match=re.escape(detail)):
            lookup(version, key)
    elif value is UNRESOLVED:
        with pytest.raises(MissingNodeError):
            lookup(version, key)
    else:
        assert lookup(version, key) == value

    # two rounds sharing the tampered subtree: round 1 answers from the memo
    report = audit_ledger(target, None, [root, later.root_digest], store, params)
    assert report.chain_match.status is Status.PASS
    check = report.no_alternative_histories
    if detail:
        assert (check.status, check.round, check.detail) == (
            Status.FAIL, 0, f"malformed node: {detail}"
        )
    elif value is UNRESOLVED:
        assert (check.status, check.round) == (Status.INCONCLUSIVE, 0)
    else:
        assert check.status is Status.PASS
    resolved = None if value is UNRESOLVED else value
    assert report.history == (resolved, resolved)
    assert report.unresolved_rounds == ((0, 1) if value is UNRESOLVED else ())


def _foreign_leaf(orig, params, key, draw):
    # canonical, but its key leaves the path at the first label
    other = (int.from_bytes(key, "big") ^ 1 << 255).to_bytes(32, "big")
    return serialize_node(LeafNode(((other, draw(st.binary(min_size=32, max_size=32))),)), params)


# Replacements that no canonical trie holds at that place on the key's path.
MALFORMING = [
    _truncate, _extend, _bad_tag, _swap_kind, _root_tagged, _bitmap_past_r,
    _count_over_k, _not_ascending, _foreign_leaf,
]


@settings(max_examples=200, deadline=None)
@given(
    r=st.sampled_from([2, 4, 16, 256]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    mutation=st.sampled_from(MALFORMING),
    data=st.data(),
)
def test_update_through_a_hostile_node_raises_malformed(r, k, seed, mutation, data):
    params = TrieParams(r, k, ALG)
    rng = random.Random(seed)
    ids = [b"id-%d" % i for i in range(rng.randint(k + 1, 24))]
    store = MemoryStore(ALG)
    honest = build(params, {ALG.hash(lid): rng.randbytes(32) for lid in ids}, None, store)
    key = ALG.hash(data.draw(st.sampled_from(ids + [b"absent"])))

    root_data = store.get(honest.root_digest)
    path_nodes = [root_data]
    ref_search(params, key, parse_node(root_data, params), store.get, path_nodes)
    assume(len(path_nodes) >= 2)
    index = data.draw(st.integers(1, len(path_nodes) - 1))
    replacement = mutation(path_nodes[index], params, key, data.draw)
    assume(replacement != path_nodes[index])
    root = _repoint(store, params, key, path_nodes, index, replacement)

    changes = {key: rng.randbytes(32)}
    changes.update((ALG.hash(lid), rng.randbytes(32)) for lid in rng.sample(ids, 2))
    insert = label_adding_key(params, key, path_nodes, rng)  # on the honest path
    if insert is not None:
        changes[insert] = rng.randbytes(32)
    with pytest.raises(MalformedNodeError):
        update(TrieVersion(params, root, store), changes)


def ref_frame(data: bytes, params: TrieParams) -> tuple[int, int, int]:
    if not data:
        raise MalformedNodeError("empty node")
    digest_len = params.alg.output_len
    tag = data[0]
    body_end = len(data)
    if tag in (0x03, 0x04):
        body_end -= digest_len
        if body_end <= 0:
            raise MalformedNodeError("root node shorter than its prev-root field")
    if tag in (0x02, 0x04):
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
    if tag in (0x01, 0x03):
        bitmap_len = params.bitmap_len
        bitmap_end = 1 + bitmap_len
        if body_end < bitmap_end:
            raise MalformedNodeError("internal node shorter than its bitmap")
        bitmap = int.from_bytes(data[1:bitmap_end], "big")
        if not bitmap:
            raise MalformedNodeError("internal node has no children")
        if bitmap & ((1 << (8 * bitmap_len - params.r)) - 1):
            raise MalformedNodeError("bitmap marks a label outside [0, r)")
        if body_end != bitmap_end + bitmap.bit_count() * digest_len:
            raise MalformedNodeError("internal length does not match its bitmap")
        return tag, body_end, bitmap
    raise MalformedNodeError(f"unknown node tag 0x{tag:02x}")


def _framed(frame, data: bytes, params: TrieParams):
    try:
        return frame(data, params)
    except MalformedNodeError as exc:
        return str(exc)


# the mutations above that also apply to a root node
ROOT_MUTATIONS = [_truncate, _extend, _bad_tag, _flip, _random]


@settings(max_examples=400, deadline=None)
@given(
    r=st.sampled_from([2, 4, 16, 256]),
    k=st.integers(1, 3),
    alg=st.sampled_from([ALG, SHA512]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_frame_agrees_with_reference(r, k, alg, seed, data):
    params = TrieParams(r, k, alg)
    rng = random.Random(seed)
    store = MemoryStore(alg)
    pairs = {alg.hash(b"id-%d" % i): rng.randbytes(alg.output_len)
             for i in range(rng.randint(1, 40))}
    version = build(params, pairs, None, store)
    root = store.get(version.root_digest)
    nodes = [content for _, content in store.items()]
    for node in nodes:  # honest: every node of the trie frames alike
        assert _frame(node, params) == ref_frame(node, params)

    node = data.draw(st.sampled_from(nodes))
    if node == root:
        mutation = data.draw(st.sampled_from(ROOT_MUTATIONS))
    else:
        mutation = data.draw(st.sampled_from(MUTATIONS + [_foreign_leaf]))
    key = alg.hash(b"id-0")
    if alg is SHA512 and mutation in (_valid_leaf, _foreign_leaf):
        return  # they build SHA-256-sized tuples
    hostile = mutation(node, params, key, data.draw)
    assert _framed(_frame, hostile, params) == _framed(ref_frame, hostile, params)
