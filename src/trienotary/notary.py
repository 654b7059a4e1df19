"""The notarization procedures: periodic multi-ledger rounds and single-ledger mode.

A multi-ledger round takes an immutable snapshot of every ledger, computes
each ledger's state digest, generates and publishes a consistency proof
for every ledger whose digest changed since the previous round, builds the
next trie version (chained to the previous root) over all
(hashed id, digest) associations, publishes all new nodes to storage,
commits the storage, and only then writes one record, the trie root, to
the public chain. Ledger count therefore never affects chain traffic: one
record per round.

Once registered, a ledger must appear in every later round; a snapshot
missing a registered ledger, or presenting a state that is not an
append-only extension of the last notarized one, aborts the round.

Cost model. A round over N ledgers of which c changed copies one N-entry
map, the registry, and does one lookup per ledger: ledgers are immutable,
so one presented as the very object notarized last round, found by id,
keeps its entry without hashing. Hashing is proportional to the c changed
or new ledgers (the digest, the append-only check and the consistency
proof, each O(log n) over the ledger's stored subtree heads). The check
runs first and asks for last round's root, which the ledger's log still
remembers when the ledger grew from the one notarized then; so a ledger
that grew from n blocks by one costs the hashes of its block and its
leaf, of the subtree heads that leaf completes and of the folds into the
new root (4 hashes at n = 10, 5 at n = 11, 8 at n = 1000). Trie
work is proportional to the nodes on the paths the changed keys take:
``trie.update`` reads each of those nodes once and writes one copy of it.
An internal node's copy is its stored bytes with the changed child
digests spliced in and new ones inserted; only leaves are encoded afresh.
Every other node is shared with the previous version.

Single-ledger mode is the degenerate procedure with the ledger's own
Merkle root as the published digest and the consistency proof carried in
the record note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .chain import Chain, NotarizationRecord
from .errors import LedgerTamperError, NoRemovalViolationError
from .merkle import Ledger, encode_consistency_proof, ledger_root, prove_consistency, root_at
from .store import ObjectStore
from .trie import TrieParams, TrieVersion, build, rechain, update


class Notarized(NamedTuple):
    """A registered ledger as last notarized: its search key (the hash of
    its id), the digest published for it and the ledger object of that
    digest, whose length is the size the next notarized state must extend."""

    key: bytes
    digest: bytes
    ledger: Ledger


@dataclass(frozen=True)
class NotaryState:
    """Notary bookkeeping carried between rounds.

    ``registry`` maps every ledger id ever notarized to its ``Notarized``
    entry; it only grows. ``last_root`` is the previous round's trie root,
    the all-zero sentinel before round 0. A round never mutates the state
    it is given: it returns a new one, so a round that raises leaves the
    caller's state as it was.
    """

    params: TrieParams
    registry: dict[bytes, Notarized] = field(default_factory=dict)
    last_root: bytes = b""
    round: int = 0

    def __post_init__(self):
        if not self.last_root:
            object.__setattr__(self, "last_root", self.params.alg.zero)


def _check_extension(ledger: Ledger, size: int, old_size: int, old_root: bytes) -> None:
    """Raise ``LedgerTamperError`` unless ``ledger``, of ``size`` blocks,
    extends the state of ``old_size`` blocks whose root was ``old_root``."""
    if size < old_size:
        raise LedgerTamperError(f"ledger {ledger.id.hex()} shrank from {old_size} to {size} blocks")
    if root_at(ledger, old_size) != old_root:
        raise LedgerTamperError(f"ledger {ledger.id.hex()} rewrote history before block {old_size}")


def notarize_round(
    state: NotaryState,
    ledgers: dict[bytes, Ledger],
    store: ObjectStore,
    chain: Chain,
) -> tuple[NotaryState, NotarizationRecord]:
    """Run one notarization round over a snapshot of ledgers keyed by id.

    Returns the advanced state and the published record. The snapshot must
    contain every registered ledger and may introduce new ones.
    """
    params = state.params
    last = state.registry
    if not last.keys() <= ledgers.keys():
        missing = [lid for lid in last if lid not in ledgers]
        raise NoRemovalViolationError(
            f"registered ledger(s) absent from snapshot: {missing[0].hex()}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )

    # Ledgers are immutable, so one presented as the very object notarized
    # last round keeps its entry. The others are hashed and proved in id
    # order, which fixes the order of proof writes.
    pending = sorted(
        ledger_id
        for ledger_id, ledger in ledgers.items()
        if (entry := last.get(ledger_id)) is None or entry.ledger is not ledger
    )
    registry = dict(last)
    changes: dict[bytes, bytes] = {}
    for ledger_id in pending:
        ledger = ledgers[ledger_id]
        entry = last.get(ledger_id)
        if entry is None:
            key = params.alg.hash(ledger_id)
        else:
            # Checked before ledger_root, so that on the log shared with
            # last round's ledger the check reads back the root computed
            # then, and the new root is the one kept for the next round.
            key = entry.key
            old_size, size = len(entry.ledger), len(ledger)
            _check_extension(ledger, size, old_size, entry.digest)
        digest = ledger_root(ledger)
        registry[ledger_id] = Notarized(key, digest, ledger)
        if entry is not None:
            if digest == entry.digest:
                continue
            proof = prove_consistency(ledger, old_size, size)
            store.index_proof(key, state.round, store.put(encode_consistency_proof(proof)))
        changes[key] = digest

    # At round 0 every ledger is new, so ``changes`` holds every key.
    if state.round == 0:
        version = build(params, changes, params.alg.zero, store)
    else:
        prev = TrieVersion(params, state.last_root, store)
        version = update(prev, changes) if changes else rechain(prev)

    record = NotarizationRecord(state.round, version.root_digest, b"")
    store.commit()
    chain.publish(record)
    return NotaryState(params, registry, version.root_digest, state.round + 1), record


def notarize_single(
    ledger: Ledger,
    prev: tuple[bytes, int] | None,
    chain: Chain,
) -> NotarizationRecord:
    """Publish a single ledger's root, with the consistency proof in the note.

    ``prev`` is the (root, size) pair from the previous record, or None for
    the first notarization (which carries an empty note).
    """
    size = len(ledger)
    if prev is not None:
        prev_root, prev_size = prev
        _check_extension(ledger, size, prev_size, prev_root)
    root = ledger_root(ledger)
    note = b""
    if prev is not None and root != prev_root:
        note = encode_consistency_proof(prove_consistency(ledger, prev_size, size))
    record = NotarizationRecord(chain.height, root, note)
    chain.publish(record)
    return record
