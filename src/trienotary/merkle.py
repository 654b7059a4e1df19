"""Append-only ledgers with Merkle roots, consistency proofs, and inclusion proofs.

A ledger is an ordered sequence of opaque data blocks. Its state digest is
the head of a Merkle tree whose leaves are the block hashes, built with the
classic transparency-log construction: the split point of an n-leaf tree is
the largest power of two smaller than n, leaf and interior hashes are
domain-separated with a one-byte prefix, and the empty tree hashes the
empty string.

Two proof kinds are supported:

* consistency proofs: the leaves of an older tree are a prefix, in order,
  of a newer tree's leaves (history was extended, never rewritten);
* inclusion proofs: a specific block is present at a specific position
  under a given root (selective disclosure of single blocks).

Cost model. The versions of one append chain share one log: its payloads,
its leaf heads (each the hash of a block hash under the leaf prefix)
concatenated in one ``bytearray``, and every head of a complete, aligned
subtree (2**j leaves starting at a multiple of 2**j), hashed once and
kept, since appending never changes it (the stored subtree heads of RFC
9162 section 2.1 and of Crosby and Wallach's tamper-evident logs). A block
costs one payload reference and one digest's bytes, and no object of its
own: ``Block`` values are built only when ``Ledger.blocks`` is read, which
hashes each block again. Appending to the newest version hashes the block
and its leaf and makes two in-place appends; the amortized O(1) head
hashes are charged when the next root or proof is asked for. The head of
any prefix folds the complete heads that cover it, one per set bit of its
size, each read from its level at an index the bits give, so ``root_at``
is O(log n) hashes. A proof reads its heads the same way, from the bits of
the old size or the leaf index and of the new size, and folds one range,
where its path leaves the tree's right edge: O(log n) hashes, and no
recursion. The log also remembers the last root ``root_at`` computed, with
its size; asked again, it costs no hash. So when a notarization round
asks for the roots and the proof of a ledger grown by one block from the
n-block one whose root it asked for last, it hashes only the subtree heads
the new leaf completes and the folds into the new root; with the append's
two, that is 4 hashes at n = 10, 8 at n = 1000.
Appending to an older version forks a new log from a copy of its prefix's
payloads and leaf heads; a fork, like a newly built ledger, starts with no
subtree head and no root and fills its heads in O(n) on first use.

A ledger built with its history (``Ledger``, ``read_ledger``) costs one
hash per block and one per leaf, and its first root one per complete
subtree head and one per fold: 3n - 1 hashes in all for n blocks. Past its
first pair, that cold fill runs a level at a time: the pairs of stored
leaf heads in one pass, then each height's heads in one pass, each level's
new heads added to it at once. Both the load and the fill take at most
``_BATCH`` (4,096) blocks or leaves per pass, so the short-lived lists
they build stay a few hundred KB at any length. Each pass (a run of block
hashes, of leaf heads or of one height's heads) hashes a list of its
inputs in one ``HashAlg.hash_each`` call; only the fill's first pair and
the root's folds go through ``HashAlg.hash``, popcount(n) of the 3n - 1
for n >= 2. Appends, roots and proofs hash one input at a time.

Proof generation takes the heads that RFC 9162's recursive SUBPROOF and
PATH take, in the order they take them, deepest first, so each head is
read or folded exactly as the recursion would; proof verification
is the independent iterative reconstruction, so a round-trip exercises
two different formulations of the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .crypto import HashAlg, SHA256, algorithm
from .errors import InvalidRangeError

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
# Blocks hashed, or leaves filled, per pass of a bulk load: enough to pay
# the per-pass costs rarely, few enough that the pass's short-lived list of
# digests stays a few hundred KB however long the ledger is.
_BATCH = 4096

_LEDGER_HEADER_MAGIC = "ledger v1"


def _block_bytes(index: int, payload: bytes) -> bytes:
    # Canonical block serialization: binding the index prevents reordering.
    return index.to_bytes(8, "big") + payload


@dataclass(frozen=True, slots=True)
class Block:
    """One ledger entry, as ``Ledger.blocks`` reads it; ``block_hash`` covers
    both payload and position."""

    index: int
    payload: bytes
    block_hash: bytes


class ConsistencyProof(NamedTuple):
    """Evidence that the size-``old_size`` tree is a prefix of the size-``new_size`` tree.

    A tuple, built at tuple cost once per changed ledger in a round and
    per value change in an audit: compared and hashed by its fields,
    copied with ``_replace``.
    """

    old_size: int
    new_size: int
    path: tuple[bytes, ...]


@dataclass(frozen=True)
class InclusionProof:
    """Evidence that a leaf sits at ``leaf_index`` in a tree of ``tree_size`` leaves.

    A dataclass, not a tuple, so it never equals a ``ConsistencyProof``
    holding the same three values.
    """

    leaf_index: int
    tree_size: int
    path: tuple[bytes, ...]


class _Log:
    """The blocks of one append chain, each version a prefix, and their heads.

    ``payloads[i]`` is block i's payload and ``leaves[i * step:(i + 1) * step]``
    its leaf head, the hash of its block hash under the leaf prefix, ``step``
    being the digest length. ``levels[j - 1]`` concatenates, in leaf order,
    the heads of the 2**j-leaf subtrees filled so far; it is None until a
    fill covers two leaves.

    ``root`` is the head of the first ``root_size`` leaves, the last root
    ``root_at`` computed (-1 before the first). It is a function of a
    prefix, which an append never changes, so it never goes stale.
    """

    __slots__ = ("payloads", "leaves", "alg", "step", "levels", "root_size", "root")

    def __init__(self, payloads: list[bytes], leaves: bytearray, alg: HashAlg):
        self.payloads = payloads
        self.leaves = leaves
        self.alg = alg
        self.step = alg.output_len
        self.levels: list[bytearray] | None = None
        self.root_size, self.root = -1, b""

    def extend(self, payloads) -> None:
        """Append blocks after the last one, each hashed at its position and
        its leaf head stored, up to ``_BATCH`` blocks per pair of
        ``hash_each`` passes."""
        start = len(self.payloads)
        self.payloads += payloads
        stored, end, alg = self.payloads, len(self.payloads), self.alg
        if end - start == 1:
            # an append: a pass's list and join would cost more than the hashes
            self.leaves += alg.hash(LEAF_PREFIX + alg.hash(_block_bytes(start, stored[start])))
            return
        hash_each = alg.hash_each
        for lo in range(start, end, _BATCH):
            blocks = hash_each([
                _block_bytes(index, stored[index]) for index in range(lo, min(lo + _BATCH, end))
            ])
            self.leaves += b"".join(hash_each([LEAF_PREFIX + block for block in blocks]))

    def fill(self, size: int) -> "_Log":
        """Store every complete subtree head within the first ``size`` leaves.

        The first new pair of leaves is hashed on its own and its head
        pushed up every level it completes. The other new pairs are hashed
        a level at a time, up to ``_BATCH`` leaves per pass: the pairs of
        stored leaf heads, then each height's new heads, each in one
        ``hash_each`` call, a head left waiting at the end of a level
        pairing with the first new one. Either way each complete subtree
        head is hashed once.
        """
        if size < 2:
            return self
        levels = self.levels = self.levels or [bytearray()]
        step = self.step
        t = len(levels[0]) // step * 2 + 1
        if t >= size:
            return self
        hash_, leaves = self.alg.hash, self.leaves
        # Leaf t completes the pair (t - 1, t) and, through it, every
        # subtree whose last leaf is t.
        head = hash_(NODE_PREFIX + leaves[(t - 1) * step:(t + 1) * step])
        for level in levels:
            level += head
            if len(level) // step & 1:
                break
            head = hash_(NODE_PREFIX + level[-2 * step:])
        else:
            levels.append(bytearray(head))
        end, hash_each = size & ~1, self.alg.hash_each
        for lo in range(t + 1, end, _BATCH):
            heads = hash_each([
                NODE_PREFIX + leaves[at:at + 2 * step]
                for at in range(lo * step, min(lo + _BATCH, end) * step, 2 * step)
            ])
            height = 0
            while True:
                if height == len(levels):
                    levels.append(bytearray())
                level = levels[height]
                # ``pending`` holds the heads to pair up next, a waiting one first.
                pending = [level[-step:], *heads] if len(level) // step & 1 else heads
                level += b"".join(heads)
                if len(pending) < 2:
                    break
                pairs = iter(pending)
                heads = hash_each([NODE_PREFIX + left + right for left, right in zip(pairs, pairs)])
                height += 1
        return self

    def head(self, lo: int, hi: int) -> bytes:
        """Head of leaves [lo, hi), a subtree of the RFC 9162 decomposition.

        Such a range starts at a multiple of every power of two not above
        its length, so it splits into complete, aligned subtrees, one per
        set bit of ``hi - lo``, largest first. Their heads fold from the
        right: the fold starts from the piece of the lowest bit and takes
        each higher bit's piece straight from its level, 2**j leaves from
        leaf ``lo`` being head ``lo >> j`` of ``levels[j - 1]``.
        """
        if lo == hi:
            return self.alg.hash(b"")
        levels, step = self.levels, self.step
        bits = hi - lo
        low = bits & -bits
        bits -= low
        hi -= low
        j = low.bit_length() - 1
        at = (hi >> j) * step
        head = (levels[j - 1] if j else self.leaves)[at:at + step]
        if not bits:
            return bytes(head)
        hash_ = self.alg.hash
        while bits:
            low = bits & -bits
            bits -= low
            hi -= low
            j = low.bit_length() - 1
            at = (hi >> j) * step
            head = hash_(NODE_PREFIX + levels[j - 1][at:at + step] + head)
        return head

    def subproof(self, m: int, n: int) -> list[bytes]:
        """SUBPROOF(m, D[0:n], true) of RFC 9162 section 2.1.4.1.

        The recursion ends at the largest complete subtree that ends at leaf
        m, of 2**j leaves where 2**j is the lowest set bit of m; its head
        comes first unless it starts at leaf 0, and then the path from it
        to the root.
        """
        if m == n:
            return []
        low = m & -m
        proof = [] if m == low else [self.head(m - low, m)]
        return proof + self.path(m - 1, low.bit_length() - 1, n)

    def path(self, index: int, level: int, n: int) -> list[bytes]:
        """PATH(index, D[0:n]) of RFC 9162 section 2.1.3.1, from the
        complete subtree of 2**level leaves over leaf ``index`` up.

        The heads are the recursion's, in the order it takes them, deepest
        first. The paths to ``index`` and to leaf n - 1 share the nodes
        above height ``fork``, the highest bit in which the two differ:
        ``index`` is in the left half of the lowest shared node, of
        2**(fork + 1) leaves from leaf ``lo``. Below height ``fork`` every
        sibling is a complete subtree, read from its level as in ``head``.
        At it the sibling is that node's right half, cut at leaf n, folded
        by ``head``. Above it every sibling is a complete subtree on the
        left, one per set bit of ``lo``, lowest bit first.
        """
        levels, leaves, step = self.levels, self.leaves, self.step
        fork = (index ^ (n - 1)).bit_length() - 1
        proof = []
        for j in range(level, fork):
            at = ((index >> j) ^ 1) * step
            proof.append(bytes((levels[j - 1] if j else leaves)[at:at + step]))
        lo = (n - 1) >> (fork + 1) << (fork + 1)
        if fork >= 0:
            proof.append(self.head(lo + (1 << fork), n))
        while lo:
            low = lo & -lo
            lo -= low
            j = low.bit_length() - 1
            at = (lo >> j) * step
            proof.append(bytes((levels[j - 1] if j else leaves)[at:at + step]))
        return proof


class Ledger:
    """An immutable append-only block sequence; ``append`` returns a new version.

    A version is the first ``len`` blocks of its chain's shared ``_Log``:
    the constructor hashes its payloads into a new log, appending to the
    newest version extends the log in place, and appending to an older one
    forks a new log from a copy of its prefix. So every leaf head is one
    the log computed from a block's payload and position. ``blocks`` builds
    its ``Block`` values, and hashes them, on each read; no other path
    makes one.
    """

    __slots__ = ("id", "alg", "_log", "_size")

    def __init__(self, ledger_id: bytes, payloads=(), alg: HashAlg = SHA256):
        """A ledger of ``payloads`` on a new log, each block hashed at its position."""
        self.id = ledger_id
        self.alg = alg
        self._log = _Log([], bytearray(), alg)
        self._log.extend(payloads)
        self._size = len(self._log.payloads)

    @classmethod
    def from_payloads(cls, ledger_id: bytes, payloads, alg: HashAlg = SHA256) -> "Ledger":
        """The constructor, by the name its callers know."""
        return cls(ledger_id, payloads, alg)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks, each hash recomputed from its payload and position:
        one digest per block per read, in one ``hash_each`` pass, since the
        log keeps leaf heads, not block hashes."""
        payloads = self._log.payloads[:self._size]
        hashes = self.alg.hash_each([_block_bytes(i, p) for i, p in enumerate(payloads)])
        return tuple(map(Block, range(self._size), payloads, hashes))

    def __len__(self) -> int:
        return self._size

    def append(self, payload: bytes) -> "Ledger":
        log, index = self._log, self._size
        if len(log.payloads) != index:
            log = _Log(log.payloads[:index], log.leaves[:index * log.step], self.alg)
        log.extend((payload,))
        child = object.__new__(Ledger)
        child.id, child.alg, child._log, child._size = self.id, self.alg, log, index + 1
        return child


def root_at(ledger: Ledger, size: int) -> bytes:
    """Merkle head over the first ``size`` blocks."""
    log, n = ledger._log, ledger._size
    if size < 0 or size > n:
        raise InvalidRangeError(f"size {size} out of range for ledger of {n} blocks")
    if size != log.root_size:
        log.root_size, log.root = size, log.fill(size).head(0, size)
    return log.root


def ledger_root(ledger: Ledger) -> bytes:
    """The ledger's current state digest (hash of "" for an empty ledger)."""
    return root_at(ledger, ledger._size)


def prove_consistency(ledger: Ledger, old_size: int, new_size: int) -> ConsistencyProof:
    """Consistency proof between the ledger's size-m and size-n states."""
    size = ledger._size
    if old_size < 1 or old_size > new_size or new_size > size:
        raise InvalidRangeError(f"need 0 < m <= n <= {size}, got m={old_size} n={new_size}")
    path = ledger._log.fill(new_size).subproof(old_size, new_size)
    return ConsistencyProof(old_size, new_size, tuple(path))


def verify_consistency(
    old_root: bytes, new_root: bytes, proof: ConsistencyProof, alg: HashAlg = SHA256
) -> bool:
    """Check that ``proof`` links the two roots; malformed input yields False.

    Reconstructs both roots from the proof path by walking the implied node
    coordinates from the old tree's right edge up to the new tree's head.

    The empty tree is a prefix of every tree, so a proof from size 0 holds
    exactly when its path is empty and ``old_root`` is the empty tree's
    root, the hash of "", whatever ``new_root`` is. The old size comes from
    the proof, which may be untrusted, so a size-0 proof offered for any
    other old root is refused.
    """
    m, n = proof.old_size, proof.new_size
    if m == 0:
        return not proof.path and old_root == alg.hash(b"")
    if m < 0 or m > n:
        return False
    if m == n:
        return not proof.path and old_root == new_root
    path = list(proof.path)
    if m & (m - 1) == 0:
        # The old root is itself a node of the new tree; it is not repeated
        # in the path, so seed the walk with it.
        path.insert(0, old_root)
    if not path:
        return False
    fn, sn = m - 1, n - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    fr = sr = path[0]
    for sibling in path[1:]:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            fr = alg.hash(NODE_PREFIX + sibling + fr)
            sr = alg.hash(NODE_PREFIX + sibling + sr)
            while fn and not fn & 1:
                fn >>= 1
                sn >>= 1
        else:
            sr = alg.hash(NODE_PREFIX + sr + sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and fr == old_root and sr == new_root


def prove_inclusion(ledger: Ledger, index: int) -> InclusionProof:
    """Inclusion proof for the block at ``index`` in the current tree."""
    n = len(ledger)
    if index < 0 or index >= n:
        raise InvalidRangeError(f"index {index} out of range for {n} blocks")
    return InclusionProof(index, n, tuple(ledger._log.fill(n).path(index, 0, n)))


def verify_inclusion(
    root: bytes, block_hash: bytes, proof: InclusionProof, alg: HashAlg = SHA256
) -> bool:
    """Check that ``block_hash`` is the leaf at ``proof.leaf_index`` under ``root``."""
    if proof.leaf_index < 0 or proof.leaf_index >= proof.tree_size:
        return False
    fn, sn = proof.leaf_index, proof.tree_size - 1
    acc = alg.hash(LEAF_PREFIX + block_hash)
    for sibling in proof.path:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            acc = alg.hash(NODE_PREFIX + sibling + acc)
            while fn and not fn & 1:
                fn >>= 1
                sn >>= 1
        else:
            acc = alg.hash(NODE_PREFIX + acc + sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and acc == root


def encode_consistency_proof(proof: ConsistencyProof) -> bytes:
    return (
        proof.old_size.to_bytes(8, "big")
        + proof.new_size.to_bytes(8, "big")
        + b"".join(proof.path)
    )


def decode_consistency_proof(data: bytes, alg: HashAlg) -> ConsistencyProof:
    if len(data) < 16 or (len(data) - 16) % alg.output_len:
        raise ValueError("truncated or misaligned consistency proof")
    old_size = int.from_bytes(data[:8], "big")
    new_size = int.from_bytes(data[8:16], "big")
    body = data[16:]
    step = alg.output_len
    path = tuple([body[i:i + step] for i in range(0, len(body), step)])
    return ConsistencyProof(old_size, new_size, path)


def _export_header(alg_name: str, ledger_id: bytes) -> str:
    return f"{_LEDGER_HEADER_MAGIC} alg={alg_name} enc=hex id={ledger_id.hex()}"


def write_ledger(ledger: Ledger, path) -> None:
    """Export a ledger as newline-delimited hex payloads under a one-line header."""
    lines = [_export_header(ledger.alg.name, ledger.id)]
    lines.extend(map(bytes.hex, ledger._log.payloads[:len(ledger)]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ledger(path) -> Ledger:
    """Load a ledger export, recomputing every block hash from its payload.

    Only the form ``write_ledger`` writes decodes: ASCII lines, each ended
    by LF; the header ``ledger v1 alg=<name> enc=hex id=<lowercase hex>``
    with each field once and in that order, and the algorithm named
    exactly; and payload lines each equal to the lowercase hex of what they
    decode to. Anything else raises ``ValueError`` naming ``path`` and,
    for a payload, its line number.
    """
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        text = content.decode("ascii")
        if not text.endswith("\n"):
            raise ValueError("not a ledger export")
        header, *lines = text[:-1].split("\n")
        fields = dict(part.partition("=")[::2] for part in header.split(" ")[2:])
        try:
            alg, ledger_id = algorithm(fields["alg"]), bytes.fromhex(fields["id"])
            if header != _export_header(alg.name, ledger_id):
                raise ValueError
        except (KeyError, ValueError):
            raise ValueError("line 1 is not a ledger export header") from None
        try:
            payloads = list(map(bytes.fromhex, lines))
            canonical = list(map(bytes.hex, payloads)) == lines
        except ValueError:
            canonical = False
        if not canonical:
            # only now look for the line that failed, so that a good export
            # pays no per-line bookkeeping
            for number, line in enumerate(lines, start=2):
                try:
                    if bytes.fromhex(line).hex() == line:
                        continue
                except ValueError:
                    pass
                raise ValueError(f"line {number} is not hex")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Ledger(ledger_id, payloads, alg)
