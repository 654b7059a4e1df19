"""Trie construction, serialization, persistence, and measurements.

The reference builder here partitions explicit bit strings and assembles
node bytes with its own transcription of the wire format, sharing no code
with the package; builds are compared node-for-node against it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import CountingStore, label_adding_key
from trienotary import trie as trie_module
from trienotary.crypto import SHA256, SHA512, HashAlg, label_at
from trienotary.errors import (
    CanonicalizationError,
    DeletionNotSupportedError,
    DuplicateKeyError,
    KeyExhaustedError,
    MalformedNodeError,
    MissingNodeError,
)
from trienotary.store import MemoryStore
from trienotary.trie import (
    InternalNode,
    LeafNode,
    Measurements,
    TrieParams,
    TrieVersion,
    associations,
    build,
    lookup,
    node_digest,
    parse_node,
    rechain,
    search_path,
    serialize_node,
    stats,
    update,
)

ALG = SHA256


def params(r=2, k=1, alg=ALG):
    return TrieParams(r, k, alg)


def key_from_bits(bits: str, length: int = 32) -> bytes:
    padded = bits + "0" * (8 * length - len(bits))
    return int(padded, 2).to_bytes(length, "big")


def digest_of(tag: bytes) -> bytes:
    return ALG.hash(tag)


def rand_assoc(rng: random.Random, n: int, alg=ALG) -> dict[bytes, bytes]:
    assoc = {}
    while len(assoc) < n:
        assoc[rng.randbytes(alg.output_len)] = rng.randbytes(alg.output_len)
    return assoc


# ---------------------------------------------------------------- reference

def ref_build_nodes(r, k, assoc, prev_root, alg):
    """(root digest, {digest: node bytes}) via bit-string partitioning."""
    w = {2: 1, 4: 2, 8: 3, 16: 4, 32: 5, 64: 6, 128: 7, 256: 8}[r]
    bitmap_bytes = (r + 7) // 8
    out = {}

    def emit(body: bytes) -> bytes:
        digest = alg.hash(body)
        out[digest] = body
        return digest

    def bit_string(key: bytes) -> str:
        return "".join(format(byte, "08b") for byte in key)

    def rec(items, depth, prev):
        if len(items) <= k:
            tag = b"\x02" if prev is None else b"\x04"
            body = tag + bytes([len(items) - 1])
            for key, value in sorted(items):
                body += key + value
            return emit(body + (prev or b""))
        groups: dict[int, list] = {}
        for key, value in items:
            label = int(bit_string(key)[depth * w:(depth + 1) * w], 2)
            groups.setdefault(label, []).append((key, value))
        bitmap_bits = ["0"] * (8 * bitmap_bytes)
        child_bytes = b""
        for label in sorted(groups):
            bitmap_bits[label] = "1"
            child_bytes += rec(groups[label], depth + 1, None)
        bitmap = int("".join(bitmap_bits), 2).to_bytes(bitmap_bytes, "big")
        tag = b"\x01" if prev is None else b"\x03"
        return emit(tag + bitmap + child_bytes + (prev or b""))

    root = rec(sorted(assoc.items()), 0, prev_root)
    return root, out


# ------------------------------------------------------------ serialization

def test_leaf_serialization_size_single_tuple():
    node = LeafNode(((b"\x01" * 32, b"\x02" * 32),))
    data = serialize_node(node, params(2, 1))
    assert len(data) == 1 + 1 + 64
    assert data[0] == 0x02
    assert data[1] == 0


def test_internal_serialization_r8_bitmap():
    node = InternalNode(((0, digest_of(b"a")), (3, digest_of(b"b"))))
    data = serialize_node(node, params(8, 1))
    assert len(data) == 1 + 1 + 64
    assert data[0] == 0x01
    assert data[1] == 0b10010000


def test_root_internal_serialization_size():
    node = InternalNode(
        ((0, digest_of(b"a")), (1, digest_of(b"b"))), prev_root=b"\x00" * 32
    )
    data = serialize_node(node, params(2, 1))
    assert len(data) == 1 + 1 + 64 + 32
    assert data[0] == 0x03


def test_serialization_round_trip_random_nodes():
    rng = random.Random(31)
    p = params(16, 8)
    for _ in range(50):
        if rng.random() < 0.5:
            entries = sorted(
                {rng.randbytes(32): rng.randbytes(32) for _ in range(rng.randint(1, 8))}.items()
            )
            node = LeafNode(tuple(entries), rng.choice([None, rng.randbytes(32)]))
        else:
            labels = sorted(rng.sample(range(16), rng.randint(1, 16)))
            node = InternalNode(
                tuple((lbl, rng.randbytes(32)) for lbl in labels),
                rng.choice([None, rng.randbytes(32)]),
            )
        data = serialize_node(node, p)
        assert parse_node(data, p) == node
        assert node_digest(node, p) == ALG.hash(data)


def test_canonical_sort_is_enforced_not_silently_fixed():
    a, b = sorted((digest_of(b"k1"), digest_of(b"k2")))
    with pytest.raises(CanonicalizationError):
        serialize_node(LeafNode(((b, digest_of(b"v")), (a, digest_of(b"v")))), params(2, 2))
    with pytest.raises(CanonicalizationError):
        serialize_node(
            InternalNode(((1, digest_of(b"x")), (0, digest_of(b"y")))), params(2, 1)
        )


def test_serialize_rejects_invariant_violations():
    p = params(2, 1)
    with pytest.raises(CanonicalizationError):
        serialize_node(LeafNode(((b"\x01" * 32, b"\x02" * 32),) * 2), p)  # over k
    with pytest.raises(CanonicalizationError):
        serialize_node(LeafNode(((b"\x01" * 16, b"\x02" * 32),)), p)  # short key
    with pytest.raises(CanonicalizationError):
        serialize_node(InternalNode(()), p)  # no children
    with pytest.raises(CanonicalizationError):
        serialize_node(InternalNode(((2, digest_of(b"x")),)), p)  # label out of range


def test_parse_rejects_malformed_bytes():
    p = params(8, 2)
    leaf = serialize_node(LeafNode(((b"\x01" * 32, b"\x02" * 32),)), p)
    internal = serialize_node(InternalNode(((0, digest_of(b"a")), (3, digest_of(b"b")))), p)
    for bad in (
        b"",
        b"\x07" + leaf[1:],              # unknown tag
        leaf + b"\x00",                  # trailing byte
        leaf[:-1],                       # truncated
        bytes([leaf[0], 7]) + leaf[2:],  # count over k
        internal[:1] + b"\x00" + internal[2:],          # empty bitmap
        internal[:1] + b"\x01" + internal[2:],          # label 7 < r but length now wrong
    ):
        with pytest.raises(MalformedNodeError):
            parse_node(bad, p)
    # bitmap marking a label outside [0, r)
    small = params(2, 1)
    with pytest.raises(MalformedNodeError):
        parse_node(b"\x01" + b"\x20" + digest_of(b"a"), small)
    # unsorted leaf tuples
    a, b = sorted((digest_of(b"k1"), digest_of(b"k2")))
    good = serialize_node(LeafNode(((a, a), (b, b))), p)
    swapped = good[:2] + b + b + a + a
    with pytest.raises(MalformedNodeError):
        parse_node(swapped, p)


def test_equal_nodes_serialize_identically():
    entries = ((digest_of(b"k1"), digest_of(b"v1")), (digest_of(b"k2"), digest_of(b"v2")))
    entries = tuple(sorted(entries))
    p = params(4, 4)
    assert node_digest(LeafNode(entries), p) == node_digest(LeafNode(entries), p)
    changed = (entries[0], (entries[1][0], digest_of(b"other")))
    assert node_digest(LeafNode(changed), p) != node_digest(LeafNode(entries), p)


# ------------------------------------------------------------------- builds

def test_two_keys_split_under_k1():
    store = MemoryStore(ALG)
    assoc = {key_from_bits("0"): digest_of(b"a"), key_from_bits("1"): digest_of(b"b")}
    version = build(params(2, 1), assoc, None, store)
    assert len(store) == 3
    root = parse_node(store.get(version.root_digest), params(2, 1))
    assert isinstance(root, InternalNode)
    assert root.prev_root == ALG.zero
    assert [label for label, _ in root.children] == [0, 1]


def test_two_keys_absorbed_by_k2():
    store = MemoryStore(ALG)
    assoc = {key_from_bits("0"): digest_of(b"a"), key_from_bits("1"): digest_of(b"b")}
    version = build(params(2, 2), assoc, None, store)
    assert len(store) == 1
    root = parse_node(store.get(version.root_digest), params(2, 2))
    assert isinstance(root, LeafNode)
    assert len(root.entries) == 2


def test_three_keys_make_five_nodes():
    store = MemoryStore(ALG)
    assoc = {
        key_from_bits("00"): digest_of(b"a"),
        key_from_bits("01"): digest_of(b"b"),
        key_from_bits("1"): digest_of(b"c"),
    }
    version = build(params(2, 1), assoc, None, store)
    assert len(store) == 5
    assert stats(version).nodes_count == 5


@pytest.mark.parametrize("r,k", [(2, 1), (2, 3), (4, 1), (4, 2), (8, 4), (16, 1), (256, 2)])
def test_build_matches_reference_node_for_node(r, k):
    rng = random.Random(1000 * r + k)
    for n in (1, 2, 3, 7, 20, 65):
        assoc = rand_assoc(rng, n)
        prev = rng.randbytes(32)
        store = MemoryStore(ALG)
        version = build(TrieParams(r, k, ALG), assoc, prev, store)
        ref_root, ref_nodes = ref_build_nodes(r, k, assoc, prev, ALG)
        assert version.root_digest == ref_root
        assert store._objects == ref_nodes


def test_build_order_independence():
    rng = random.Random(77)
    assoc = rand_assoc(rng, 50)
    p = params(4, 2)
    reference = build(p, assoc, None, MemoryStore(ALG)).root_digest
    items = list(assoc.items())
    for _ in range(100):
        rng.shuffle(items)
        assert build(p, items, None, MemoryStore(ALG)).root_digest == reference


def test_build_rejects_bad_input():
    store = MemoryStore(ALG)
    with pytest.raises(ValueError):
        build(params(), {}, None, store)
    key = digest_of(b"k")
    with pytest.raises(DuplicateKeyError):
        build(params(), [(key, digest_of(b"a")), (key, digest_of(b"b"))], None, store)
    with pytest.raises(ValueError):
        build(params(), {b"short": digest_of(b"v")}, None, store)


def test_build_rejects_keys_that_share_every_label():
    # r=8 reads 85 three-bit labels; keys differing only in bit 255 never split
    keys = [key_from_bits("0" * 255 + bit) for bit in "01"]
    with pytest.raises(KeyExhaustedError):
        build(params(8, 1), {key: digest_of(key) for key in keys}, None, MemoryStore(ALG))


def test_build_sha512_digest_lengths():
    store = MemoryStore(SHA512)
    p = TrieParams(2, 1, SHA512)
    rng = random.Random(5)
    assoc = rand_assoc(rng, 4, SHA512)
    version = build(p, assoc, None, store)
    assert len(version.root_digest) == 64
    for key, value in assoc.items():
        assert lookup(version, key) == value


# ------------------------------------------------------------------ lookups

def test_lookup_present_and_absent():
    rng = random.Random(21)
    assoc = rand_assoc(rng, 40)
    version = build(params(4, 2), assoc, None, MemoryStore(ALG))
    for key, value in assoc.items():
        assert lookup(version, key) == value
    for _ in range(20):
        assert lookup(version, rng.randbytes(32)) is None


def test_lookup_missing_node_is_an_error_not_absent():
    rng = random.Random(3)
    assoc = rand_assoc(rng, 8)
    store = MemoryStore(ALG)
    version = build(params(2, 1), assoc, None, store)
    empty = TrieVersion(version.params, version.root_digest, MemoryStore(ALG))
    with pytest.raises(MissingNodeError):
        lookup(empty, next(iter(assoc)))


def test_search_path_single_key():
    assoc = {digest_of(b"solo"): digest_of(b"v")}
    version = build(params(2, 1), assoc, None, MemoryStore(ALG))
    path = search_path(version, digest_of(b"solo"))
    assert len(path) == 1
    assert path[0][1] is None
    assert ALG.hash(path[0][0]) == version.root_digest


def test_search_path_digest_chain_verifies():
    rng = random.Random(8)
    assoc = rand_assoc(rng, 64)
    version = build(params(2, 1), assoc, None, MemoryStore(ALG))
    keys = list(assoc) + [rng.randbytes(32) for _ in range(5)]
    for key in keys:
        path = search_path(version, key)
        assert ALG.hash(path[0][0]) == version.root_digest
        for (data, label), (child_data, _) in zip(path, path[1:]):
            node = parse_node(data, version.params)
            assert label is not None
            assert node.child(label) == ALG.hash(child_data)
        assert path[-1][1] is None


def test_leaf_keys_carry_path_labels_as_prefix():
    rng = random.Random(13)
    assoc = rand_assoc(rng, 100)
    p = params(8, 2)
    version = build(p, assoc, None, MemoryStore(ALG))
    for key in assoc:
        path = search_path(version, key)
        terminal = parse_node(path[-1][0], p)
        assert isinstance(terminal, LeafNode)
        depth = len(path) - 1
        for leaf_key, _ in terminal.entries:
            for d in range(depth):
                assert label_at(leaf_key, d, p.r) == label_at(key, d, p.r)


# -------------------------------------------------------------- persistence

def test_update_equals_fresh_build_on_merged_set():
    rng = random.Random(99)
    new_labels = 0
    for _ in range(30):
        r = rng.choice([2, 4, 8, 16])
        k = rng.randint(1, 8)
        p = TrieParams(r, k, ALG)
        base = rand_assoc(rng, rng.randint(1, 80))
        delta = rand_assoc(rng, rng.randint(1, 30))
        for key in rng.sample(list(base), min(len(base), 5)):
            delta[key] = rng.randbytes(32)  # value updates on existing keys
        store = MemoryStore(ALG)
        v0 = build(p, base, None, store)
        for key in rng.sample(sorted(base), min(len(base), 3)):
            path = [data for data, _ in search_path(v0, key)]
            insert = label_adding_key(p, key, path, rng)  # a splice-insert
            if insert is not None:
                delta[insert] = rng.randbytes(32)
                new_labels += 1
        v1 = update(v0, delta)
        merged = {**base, **delta}
        fresh_store = MemoryStore(ALG)
        fresh = build(p, merged, v0.root_digest, fresh_store)
        assert v1.root_digest == fresh.root_digest
        assert set(fresh_store._objects.items()) <= set(store._objects.items())
    assert new_labels > 30  # more than one per update on average


def reachable(store: MemoryStore, root: bytes, p: TrieParams) -> dict[bytes, bytes]:
    """Every node reachable from ``root``, by digest."""
    nodes = {}
    stack = [root]
    while stack:
        digest = stack.pop()
        nodes[digest] = data = store.get(digest)
        node = parse_node(data, p)
        if isinstance(node, InternalNode):
            stack.extend(child for _, child in node.children)
    return nodes


@st.composite
def key_batches(draw):
    """Batches of keys that share one drawn prefix of up to 252 bits."""
    shared = draw(st.sampled_from([0, 8, 64, 200, 244, 252]))
    free = 256 - shared
    base = draw(st.integers(0, 2**256 - 1)) >> free << free
    key = st.integers(0, 2**free - 1).map(lambda low: (base | low).to_bytes(32, "big"))
    return draw(st.lists(st.lists(key, min_size=1, max_size=8), min_size=2, max_size=5))


@settings(max_examples=150, deadline=None)
@given(
    r=st.sampled_from([2, 4, 16, 256]),
    k=st.integers(1, 3),
    batches=key_batches(),
    data=st.data(),
)
def test_update_matches_a_rebuild_node_for_node(r, k, batches, data):
    p = TrieParams(r, k, ALG)
    value = st.binary(min_size=32, max_size=32)
    state = {key: data.draw(value) for key in batches[0]}
    store = MemoryStore(ALG)
    version = build(p, state, None, store)
    for inserts in batches[1:]:
        changes = {key: data.draw(value) for key in inserts}
        for key in data.draw(st.lists(st.sampled_from(sorted(state)), max_size=4)):
            changes[key] = data.draw(value)  # a value-only change
        key = data.draw(st.sampled_from(sorted(state)))
        path = [node for node, _ in search_path(version, key)]
        insert = label_adding_key(p, key, path, data.draw(st.randoms(use_true_random=False)))
        if insert is not None:
            changes[insert] = data.draw(value)  # adds a label to an internal node
        previous = version.root_digest
        version = update(version, changes)
        state.update(changes)
        fresh_store = MemoryStore(ALG)
        fresh = build(p, state, previous, fresh_store)
        assert version.root_digest == fresh.root_digest
        assert reachable(store, version.root_digest, p) == reachable(
            fresh_store, fresh.root_digest, p
        )


@pytest.mark.parametrize("r,k", [(2, 1), (4, 2), (16, 3)])
def test_update_reads_only_the_nodes_on_changed_paths(monkeypatch, r, k):
    rng = random.Random(31 * r + k)
    p = params(r, k)
    assoc = rand_assoc(rng, 300)
    store = CountingStore(ALG)
    v0 = build(p, assoc, None, store)
    changes = rand_assoc(rng, 12)  # inserts
    for key in rng.sample(list(assoc), 12):
        changes[key] = rng.randbytes(32)  # value updates
    on_paths = {
        ALG.hash(data) for key in changes for data, _ in search_path(v0, key)
    }
    parsed = []
    real_parse = trie_module.parse_node
    monkeypatch.setattr(
        trie_module, "parse_node", lambda data, p: parsed.append(data) or real_parse(data, p)
    )
    store.gets.clear()
    update(v0, changes)
    assert parsed == []
    assert len(store.gets) == len(on_paths)
    assert set(store.gets) == on_paths


def test_value_only_update_encodes_leaves_and_splices_internal_nodes(monkeypatch):
    rng = random.Random(23)
    p = params(4, 2)
    assoc = rand_assoc(rng, 400)
    store = CountingStore(ALG)
    v0 = build(p, assoc, None, store)
    changes = {key: rng.randbytes(32) for key in rng.sample(sorted(assoc), 25)}
    leaves = {search_path(v0, key)[-1][0] for key in changes}
    encoded = []
    real_serialize = trie_module.serialize_node
    monkeypatch.setattr(
        trie_module, "serialize_node",
        lambda node, p: encoded.append(node) or real_serialize(node, p),
    )
    hashed = []
    real_hash = HashAlg.hash
    monkeypatch.setattr(
        HashAlg, "hash", lambda alg, data: hashed.append(data) or real_hash(alg, data)
    )
    store.gets.clear()
    puts = store.puts
    update(v0, changes)
    assert len(leaves) == 24  # two of the changed keys share a leaf
    assert len(encoded) == len(leaves)
    assert all(isinstance(node, LeafNode) for node in encoded)
    # the counts of the re-encoding writer: one read and one write per node
    # on the changed paths, each hashed once
    assert (len(store.gets), store.puts - puts, len(hashed)) == (76, 76, 152)


@pytest.mark.parametrize("r,k,n", [(2, 1, 64), (4, 2, 400), (16, 3, 300)])
def test_build_encodes_only_leaves(monkeypatch, r, k, n):
    p = params(r, k)
    assoc = rand_assoc(random.Random(29), n)
    store = CountingStore(ALG)
    encoded = []
    real_serialize = trie_module.serialize_node
    monkeypatch.setattr(
        trie_module, "serialize_node",
        lambda node, p: encoded.append(node) or real_serialize(node, p),
    )
    version = build(p, assoc, None, store)
    assert store.gets == []
    nodes = reachable(store, version.root_digest, p).values()
    leaves = sum(isinstance(parse_node(data, p), LeafNode) for data in nodes)
    assert len(encoded) == leaves
    assert all(isinstance(node, LeafNode) for node in encoded)
    assert store.puts == stats(version).nodes_count == len(nodes)


@settings(max_examples=100, deadline=None)
@given(
    r=st.sampled_from([2, 4, 16, 256]),
    k=st.integers(1, 3),
    alg=st.sampled_from([SHA256, SHA512]),
    shared=st.sampled_from([0, 64, 200]),
    data=st.data(),
)
def test_every_written_node_is_canonical(r, k, alg, shared, data):
    """Build, then insert and change values: every node the writer stored
    is the canonical encoding of what it decodes to."""
    p = TrieParams(r, k, alg)
    rng = data.draw(st.randoms(use_true_random=False))
    bits = alg.bit_length
    base = rng.getrandbits(bits) >> (bits - shared) << (bits - shared)

    def new_keys(count):
        lows = (rng.getrandbits(bits - shared) for _ in range(count))
        return [(base | low).to_bytes(alg.output_len, "big") for low in lows]

    n = data.draw(st.integers(1, 200))
    state = {key: rng.randbytes(alg.output_len) for key in new_keys(n)}
    store = MemoryStore(alg)
    version = build(p, state, None, store)
    for _ in range(data.draw(st.integers(0, 3))):
        changes = {key: rng.randbytes(alg.output_len) for key in new_keys(rng.randint(0, 20))}
        for key in rng.sample(sorted(state), min(len(state), rng.randint(0, 5))):
            changes[key] = rng.randbytes(alg.output_len)  # a value-only change
        if changes:
            version = update(version, changes)
            state.update(changes)
    for _, stored in store.items():
        assert serialize_node(parse_node(stored, p), p) == stored
    assert associations(version) == state


def test_update_reuses_unchanged_branches():
    rng = random.Random(42)
    assoc = rand_assoc(rng, 128)
    store = MemoryStore(ALG)
    p = params(2, 1)
    v0 = build(p, assoc, None, store)
    target = rng.choice(list(assoc))
    depth = len(search_path(v0, target)) - 1
    before_len, before_puts = len(store), store.puts
    v1 = update(v0, {target: rng.randbytes(32)})
    assert len(store) - before_len == depth + 1
    assert store.puts - before_puts == depth + 1
    assert lookup(v1, target) != lookup(v0, target)


def test_update_with_identical_values_changes_only_the_chain_link():
    rng = random.Random(17)
    assoc = rand_assoc(rng, 16)
    store = MemoryStore(ALG)
    v0 = build(params(2, 2), assoc, None, store)
    before = len(store)
    v1 = update(v0, assoc)
    assert len(store) == before + 1
    old_root = parse_node(store.get(v0.root_digest), v0.params)
    new_root = parse_node(store.get(v1.root_digest), v1.params)
    assert new_root.children == old_root.children
    assert new_root.prev_root == v0.root_digest


def test_rechain_re_emits_only_the_root():
    rng = random.Random(18)
    store = MemoryStore(ALG)
    v0 = build(params(2, 1), rand_assoc(rng, 20), None, store)
    before = len(store)
    v1 = rechain(v0)
    assert len(store) == before + 1
    assert parse_node(store.get(v1.root_digest), v1.params).prev_root == v0.root_digest


@pytest.mark.parametrize("r,k", [(2, 1), (16, 3)])
def test_rechain_splice_equals_re_encoding_the_node(r, k):
    # version roots and, for a version handed a subtree, non-root nodes
    rng = random.Random(r + k)
    store = MemoryStore(ALG)
    p = params(r, k)
    v0 = build(p, rand_assoc(rng, 40), None, store)
    for digest in reachable(store, v0.root_digest, p):
        node = parse_node(store.get(digest), p)
        expected = node_digest(dataclasses.replace(node, prev_root=digest), p)
        assert rechain(TrieVersion(p, digest, store)).root_digest == expected


def test_update_rejects_deletion():
    rng = random.Random(4)
    assoc = rand_assoc(rng, 4)
    v0 = build(params(2, 1), assoc, None, MemoryStore(ALG))
    with pytest.raises(DeletionNotSupportedError):
        update(v0, {next(iter(assoc)): None})


def test_historical_versions_stay_readable():
    rng = random.Random(55)
    store = MemoryStore(ALG)
    p = params(4, 2)
    snapshots: list[tuple[TrieVersion, dict]] = []
    state = rand_assoc(rng, 10)
    version = build(p, state, None, store)
    snapshots.append((version, dict(state)))
    for _ in range(12):
        delta = rand_assoc(rng, rng.randint(1, 6))
        for key in rng.sample(list(state), min(3, len(state))):
            delta[key] = rng.randbytes(32)
        state.update(delta)
        version = update(version, delta)
        snapshots.append((version, dict(state)))
    all_keys = set(state)
    for old_version, expected in snapshots:
        for key in all_keys:
            assert lookup(old_version, key) == expected.get(key)


def test_leaf_split_on_overflow_keeps_build_equivalence():
    # keys sharing a long prefix force deep unary chains when they split
    p = params(2, 2)
    keys = [key_from_bits("0000000000" + suffix) for suffix in ("00", "01", "10")]
    assoc = {key: digest_of(bytes([i])) for i, key in enumerate(keys)}
    store = MemoryStore(ALG)
    v0 = build(p, {keys[0]: assoc[keys[0]], keys[1]: assoc[keys[1]]}, None, store)
    v1 = update(v0, {keys[2]: assoc[keys[2]]})
    fresh = build(p, assoc, v0.root_digest, MemoryStore(ALG))
    assert v1.root_digest == fresh.root_digest
    assert stats(v1).path_len_max >= 11


# ------------------------------------------------------------------- stats

def test_stats_single_root_leaf():
    version = build(params(2, 1), {digest_of(b"k"): digest_of(b"v")}, None, MemoryStore(ALG))
    m = stats(version)
    assert m == Measurements(
        n_keys=1,
        nodes_count=1,
        path_len_min=1,
        path_len_max=1,
        path_len_avg=1.0,
        total_size_bytes=98,
        total_size_paper_bits=256,
        avg_path_size_bytes=98.0,
    )


def test_stats_match_search_path_lengths():
    rng = random.Random(66)
    assoc = rand_assoc(rng, 200)
    version = build(params(4, 2), assoc, None, MemoryStore(ALG))
    m = stats(version)
    lengths = [len(search_path(version, key)) for key in assoc]
    assert m.n_keys == 200
    assert m.path_len_min == min(lengths)
    assert m.path_len_max == max(lengths)
    assert m.path_len_avg == pytest.approx(sum(lengths) / len(lengths))
    sizes = [sum(len(data) for data, _ in search_path(version, key)) for key in assoc]
    assert m.avg_path_size_bytes == pytest.approx(sum(sizes) / len(sizes))


def test_stats_totals_add_up():
    rng = random.Random(100)
    assoc = rand_assoc(rng, 30)
    store = MemoryStore(ALG)
    version = build(params(2, 1), assoc, None, store)
    m = stats(version)
    assert m.nodes_count == len(store)
    assert m.total_size_bytes == sum(len(v) for v in store._objects.values())
    # paper accounting: one value digest per key, one reference per non-root
    # node, r bitmap bits per internal, zero leaf header bits at k=1
    internals = m.nodes_count - sum(
         1 for v in store._objects.values() if v[0] in (0x02, 0x04)
    )
    expected_bits = 256 * 30 + 256 * (m.nodes_count - 1) + 2 * internals
    assert m.total_size_paper_bits == expected_bits
