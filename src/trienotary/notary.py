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

A round steps every changed or new ledger before it writes anything, so
a refused ledger leaves no object and no proof index entry behind; the
proofs are stored before the trie's nodes and indexed after them.

Cost model. A round over N ledgers of which c changed copies one N-entry
map, the notarized ledger objects, and does one lookup per ledger: ledgers
are immutable, so one presented as the very object notarized last round,
found by id, keeps its entry without hashing. Hashing is proportional to
the c changed or new ledgers (the id's key, the digest, the append-only
check and the consistency proof, each O(log n) over the ledger's stored
subtree heads). The check runs first and asks for last round's root,
which the ledger's log still remembers when the ledger grew from the one
notarized then. So for a ledger that grew from n blocks by one, the
round hashes the subtree heads the new leaf completes and the folds into
the new root, besides its key; the append already hashed the block and
its leaf, which the log stores. That is 4 hashes in all at n = 10, 5 at
n = 11 and 8 at n = 1000, 2 of them the append's. Trie
work is proportional to the nodes on the paths the changed keys take:
``trie.update`` reads each of those nodes once and writes one copy of it.
An internal node's copy is its stored bytes with the changed child
digests spliced in and new ones inserted; only leaves are encoded afresh.
Every other node is shared with the previous version.

Single-ledger mode is the degenerate procedure with the ledger's own
Merkle root as the published digest and the consistency proof carried in
the record note. Both procedures run one step per ledger, ``_step``: check
that the ledger extends its last notarized state, given as (digest, size),
take its new root, and prove the change. A round runs it for each changed
or new ledger and stores the proofs; single mode runs it once and publishes
the proof. A ledger notarized empty grows with a proof of no hashes, since
the empty tree is a prefix of every tree.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

from .chain import Chain, NotarizationRecord
from .errors import LedgerTamperError, NoRemovalViolationError
from .merkle import (
    ConsistencyProof, Ledger, encode_consistency_proof, ledger_root, prove_consistency, root_at
)
from .store import ObjectStore
from .trie import TrieParams, TrieVersion, build, rechain, update


@dataclass(frozen=True)
class NotaryState:
    """Notary bookkeeping carried between rounds.

    ``notarized`` maps every ledger id ever notarized to the ledger last
    notarized for it, and is the registry: the id's search key is the hash
    of the id, and the state the next notarized ledger must extend is this
    one's size and its root at that size, the digest published for it. It
    only grows. A round skips a ledger presented as that very object.
    ``last_root`` is the previous round's trie root, the all-zero sentinel
    before round 0. Every field after ``params`` is keyword-only. A round
    never mutates the state it is given: it returns a new one, so a round
    that raises leaves the caller's state as it was.
    """

    params: TrieParams
    _: KW_ONLY
    last_root: bytes = b""
    round: int = 0
    notarized: dict[bytes, Ledger] = field(default_factory=dict)

    def __post_init__(self):
        if not self.last_root:
            object.__setattr__(self, "last_root", self.params.alg.zero)


def _step(ledger: Ledger, old_digest: bytes | None, old_size: int) -> tuple[bytes, bytes]:
    """One ledger's notarization step, shared by rounds and single mode.

    ``old_digest`` and ``old_size`` are the ledger's last notarized state,
    with ``old_digest`` None for a ledger never notarized. Returns the
    ledger's new digest and the encoded consistency proof from the old
    state, or ``b""`` when there is none or the digest did not change.
    Raises ``LedgerTamperError`` unless the ledger extends the old state.

    The check runs before ``ledger_root``, so that on the log shared with
    the ledger notarized last the check reads back the root computed then,
    and the new root is the one kept for the next step. The empty tree is a
    prefix of every tree, so growth from size 0 is proved by a proof of no
    hashes.
    """
    if old_digest is None:
        return ledger_root(ledger), b""
    size = len(ledger)
    if size < old_size:
        raise LedgerTamperError(f"ledger {ledger.id.hex()} shrank from {old_size} to {size} blocks")
    if root_at(ledger, old_size) != old_digest:
        raise LedgerTamperError(f"ledger {ledger.id.hex()} rewrote history before block {old_size}")
    digest = ledger_root(ledger)
    if digest == old_digest:
        return digest, b""
    proof = prove_consistency(ledger, old_size, size) if old_size else ConsistencyProof(0, size, ())
    return digest, encode_consistency_proof(proof)


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
    params, alg = state.params, state.params.alg
    last = state.notarized
    if not last.keys() <= ledgers.keys():
        missing = [lid for lid in last if lid not in ledgers]
        raise NoRemovalViolationError(
            f"registered ledger(s) absent from snapshot: {missing[0].hex()}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )

    # Ledgers are immutable, so one presented as the very object notarized
    # last round keeps its entry. The others are stepped in id order, which
    # fixes the order of proof writes, and every step runs before the first
    # write, so a ledger refused anywhere in the round leaves nothing stored.
    changes: dict[bytes, bytes] = {}
    notes: dict[bytes, bytes] = {}
    for ledger_id in sorted(lid for lid, ledger in ledgers.items() if last.get(lid) is not ledger):
        ledger = ledgers[ledger_id]
        # ``is`` first: comparing two HashAlg dataclasses compares their fields
        if ledger.alg is not alg and ledger.alg != alg:
            raise ValueError(
                f"ledger {ledger_id.hex()} is hashed with {ledger.alg.name},"
                f" not the trie's {alg.name}"
            )
        old = last.get(ledger_id)
        old_digest, old_size = (None, 0) if old is None else (root_at(old, len(old)), len(old))
        digest, note = _step(ledger, old_digest, old_size)
        key = alg.hash(ledger_id)
        if note:
            notes[key] = note
        if digest != old_digest:
            changes[key] = digest

    # The proofs go into the store before the trie's nodes, and into the
    # index only once the trie write has returned.
    addresses = {key: store.put(note) for key, note in notes.items()}
    # At round 0 every ledger is new, so ``changes`` holds every key.
    if state.round == 0:
        version = build(params, changes, alg.zero, store)
    else:
        prev = TrieVersion(params, state.last_root, store)
        version = update(prev, changes) if changes else rechain(prev)
    for key, address in addresses.items():
        store.index_proof(key, state.round, address)

    record = NotarizationRecord(state.round, version.root_digest, b"")
    store.commit()
    chain.publish(record)
    next_state = NotaryState(
        params, last_root=version.root_digest, round=state.round + 1, notarized=dict(ledgers)
    )
    return next_state, record


def notarize_single(
    ledger: Ledger,
    prev: tuple[bytes, int] | None,
    chain: Chain,
) -> NotarizationRecord:
    """Publish a single ledger's root, with the consistency proof in the note.

    ``prev`` is the (root, size) pair from the previous record, or None for
    the first notarization (which carries an empty note).
    """
    old_digest, old_size = (None, 0) if prev is None else prev
    root, note = _step(ledger, old_digest, old_size)
    record = NotarizationRecord(chain.height, root, note)
    chain.publish(record)
    return record
