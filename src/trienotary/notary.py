"""The notarization procedures: periodic multi-ledger rounds and single-ledger mode.

A multi-ledger round takes an immutable snapshot of every ledger, computes
each ledger's state digest, generates and publishes a consistency proof
for every ledger whose digest changed since the previous round, builds the
next trie version (chained to the previous root) over all
(hashed id, digest) associations, publishes all new nodes to storage, and
writes one record, the trie root, to the public chain. Ledger count
therefore never affects chain traffic: one record per round.

Once registered, a ledger must appear in every later round; a snapshot
missing a registered ledger, or presenting a state that is not an
append-only extension of the last notarized one, aborts the round.

Cost model. A round over N ledgers of which c changed does O(N)
dictionary work, one lookup per unchanged ledger: ledgers are immutable,
so one presented as the very object notarized last round, found by id,
keeps its digest and size without hashing. Hashing is proportional to the
c changed or new ledgers (the digest, the append-only check and the
consistency proof, each O(log n) over the ledger's stored subtree heads),
and trie work to the nodes on the paths their keys take: ``trie.update``
reads each of those nodes once and writes one copy of it. An internal
node's copy is its stored bytes with the changed child digests spliced in
and new ones inserted; only leaves are encoded afresh. Every other node
is shared with the previous version.

Single-ledger mode is the degenerate procedure with the ledger's own
Merkle root as the published digest and the consistency proof carried in
the record note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import Chain, NotarizationRecord
from .errors import LedgerTamperError, NoRemovalViolationError
from .merkle import (
    Ledger,
    encode_consistency_proof,
    ledger_root,
    prove_consistency,
    root_at,
)
from .store import ObjectStore
from .trie import TrieParams, TrieVersion, build, rechain, update


@dataclass(frozen=True)
class NotaryState:
    """Notary bookkeeping carried between rounds.

    ``registry`` maps every ledger id ever notarized to its search key
    (the hash of the id); ``last_digests`` and ``last_sizes`` record each
    ledger's digest and block count as of the previous round, keyed by
    search key. ``last_ledgers`` maps each ledger id to the ledger object
    notarized last, so an unchanged ledger is recognized with one lookup.
    ``last_root`` is the all-zero sentinel before round 0.
    """

    params: TrieParams
    registry: dict[bytes, bytes] = field(default_factory=dict)
    last_digests: dict[bytes, bytes] = field(default_factory=dict)
    last_sizes: dict[bytes, int] = field(default_factory=dict)
    last_ledgers: dict[bytes, Ledger] = field(default_factory=dict)
    last_root: bytes = b""
    round: int = 0

    def __post_init__(self):
        if not self.last_root:
            object.__setattr__(self, "last_root", self.params.alg.zero)


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
    alg = params.alg
    if not state.registry.keys() <= ledgers.keys():
        missing = [lid for lid in state.registry if lid not in ledgers]
        raise NoRemovalViolationError(
            f"registered ledger(s) absent from snapshot: {missing[0].hex()}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )

    registry = dict(state.registry)
    digests = dict(state.last_digests)
    sizes = dict(state.last_sizes)
    objects = dict(state.last_ledgers)
    changes: dict[bytes, bytes] = {}

    # Ledgers are immutable, so one presented as the very object notarized
    # last round keeps its digest and size. The others are hashed and
    # proved in id order, which fixes the order of proof writes.
    last = state.last_ledgers
    pending = sorted(
        ledger_id for ledger_id, ledger in ledgers.items() if last.get(ledger_id) is not ledger
    )
    for ledger_id in pending:
        ledger = ledgers[ledger_id]
        key = registry.get(ledger_id)
        if key is None:
            key = alg.hash(ledger_id)
            registry[ledger_id] = key
        digest = ledger_root(ledger)
        digests[key] = digest
        sizes[key] = len(ledger)
        objects[ledger_id] = ledger
        previous = state.last_digests.get(key)
        if previous is None:
            changes[key] = digest
            continue
        if digest == previous:
            continue
        old_size = state.last_sizes[key]
        if len(ledger) < old_size:
            raise LedgerTamperError(
                f"ledger {ledger_id.hex()} shrank from {old_size} to {len(ledger)} blocks"
            )
        if root_at(ledger, old_size) != previous:
            raise LedgerTamperError(
                f"ledger {ledger_id.hex()} rewrote history before block {old_size}"
            )
        proof = prove_consistency(ledger, old_size, len(ledger))
        address = store.put(encode_consistency_proof(proof))
        store.index_proof(key, state.round, address)
        changes[key] = digest

    if state.round == 0:
        version = build(params, digests, alg.zero, store)
    else:
        prev = TrieVersion(params, state.last_root, store)
        version = update(prev, changes) if changes else rechain(prev)

    record = NotarizationRecord(state.round, version.root_digest, b"")
    chain.publish(record)
    new_state = NotaryState(
        params=params,
        registry=registry,
        last_digests=digests,
        last_sizes=sizes,
        last_ledgers=objects,
        last_root=version.root_digest,
        round=state.round + 1,
    )
    return new_state, record


def notarize_single(
    ledger: Ledger,
    prev: tuple[bytes, int] | None,
    chain: Chain,
) -> NotarizationRecord:
    """Publish a single ledger's root, with the consistency proof in the note.

    ``prev`` is the (root, size) pair from the previous record, or None for
    the first notarization (which carries an empty note).
    """
    root = ledger_root(ledger)
    note = b""
    if prev is not None:
        prev_root, prev_size = prev
        if len(ledger) < prev_size:
            raise LedgerTamperError(
                f"ledger shrank from {prev_size} to {len(ledger)} blocks"
            )
        if root_at(ledger, prev_size) != prev_root:
            raise LedgerTamperError(f"ledger rewrote history before block {prev_size}")
        if root != prev_root:
            note = encode_consistency_proof(prove_consistency(ledger, prev_size, len(ledger)))
    record = NotarizationRecord(chain.height, root, note)
    chain.publish(record)
    return record
