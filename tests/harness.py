"""Shared simulation harness: honest notarization histories and fault injectors.

Fault injectors model an adversary who controls the notary or the public
storage after the fact: they rewrite chain records, publish malicious trie
versions, or corrupt stored bytes, then hand the (tampered) public
artifacts to the auditor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from trienotary.chain import Chain, NotarizationRecord
from trienotary.crypto import SHA256
from trienotary.merkle import Ledger, encode_consistency_proof, ledger_root
from trienotary.merkle import ConsistencyProof
from trienotary.notary import NotaryState, notarize_round
from trienotary.store import MemoryStore
from trienotary.trie import TrieParams, build


class CountingStore(MemoryStore):
    """MemoryStore that records the address of every get, in order."""

    def __init__(self, alg):
        super().__init__(alg)
        self.gets: list[bytes] = []

    def get(self, address: bytes) -> bytes:
        self.gets.append(address)
        return super().get(address)


@dataclass
class History:
    params: TrieParams
    store: MemoryStore
    chain: Chain
    ledgers: dict[bytes, Ledger]
    # per round: ledger snapshots and (search key -> digest) associations
    snapshots: list[dict[bytes, Ledger]] = field(default_factory=list)
    assocs: list[dict[bytes, bytes]] = field(default_factory=list)

    def key_of(self, ledger_id: bytes) -> bytes:
        return self.params.alg.hash(ledger_id)


def run_history(
    seed: int,
    n_ledgers: int = 4,
    rounds: int = 3,
    params: TrieParams | None = None,
    p_append: float = 0.7,
    late_joiners: int = 0,
) -> History:
    """Honest history: seeded appends between rounds, optional late registrations."""
    rng = random.Random(seed)
    params = params or TrieParams(2, 1, SHA256)
    alg = params.alg
    store = MemoryStore(alg)
    chain = Chain()
    state = NotaryState(params)
    ledgers = {
        f"ledger-{i}".encode(): Ledger.from_payloads(
            f"ledger-{i}".encode(), [rng.randbytes(8)], alg
        )
        for i in range(n_ledgers)
    }
    history = History(params, store, chain, ledgers)
    join_rounds = {
        rng.randint(1, rounds - 1): f"late-{j}".encode() for j in range(late_joiners)
    } if rounds > 1 else {}

    for round_seq in range(rounds):
        if round_seq > 0:
            for lid in list(ledgers):
                if rng.random() < p_append:
                    ledgers[lid] = ledgers[lid].append(rng.randbytes(8))
            lid = join_rounds.get(round_seq)
            if lid is not None:
                ledgers[lid] = Ledger.from_payloads(lid, [rng.randbytes(8)], alg)
        snapshot = dict(ledgers)
        state, _ = notarize_round(state, snapshot, store, chain)
        history.snapshots.append(snapshot)
        history.assocs.append(
            {alg.hash(lid): ledger_root(ledger) for lid, ledger in snapshot.items()}
        )
    history.ledgers = ledgers
    return history


def _replace_chain_root(chain: Chain, round_seq: int, new_root: bytes) -> Chain:
    tampered = Chain()
    for record in chain.records():
        root = new_root if record.seq == round_seq else record.trie_root
        tampered.publish(NotarizationRecord(record.seq, root, record.note))
    return tampered


def _rebuild_last_round(history: History, assoc: dict[bytes, bytes]) -> Chain:
    """Publish a malicious trie for the final round and splice its root in."""
    last = history.chain.height - 1
    roots = history.chain.read_roots()
    prev_root = roots[last - 1] if last > 0 else history.params.alg.zero
    malicious = build(history.params, assoc, prev_root, history.store)
    return _replace_chain_root(history.chain, last, malicious.root_digest)


def inject_removal(history: History, ledger_id: bytes) -> Chain:
    """Final round's trie silently drops the ledger's key."""
    key = history.key_of(ledger_id)
    assoc = dict(history.assocs[-1])
    assert key in assoc and len(assoc) > 1
    del assoc[key]
    return _rebuild_last_round(history, assoc)


def inject_fork(history: History, ledger_id: bytes, rng: random.Random) -> Chain:
    """Final round associates a digest that extends no notarized history."""
    key = history.key_of(ledger_id)
    assoc = dict(history.assocs[-1])
    assert key in assoc
    forged = rng.randbytes(history.params.alg.output_len)
    assoc[key] = forged
    last = history.chain.height - 1
    if history.store.find_proof(key, last) is None:
        # a proof slot exists so the check reaches verification and fails
        bogus = encode_consistency_proof(ConsistencyProof(1, 2, (forged,)))
        history.store.index_proof(key, last, history.store.put(bogus))
    return _rebuild_last_round(history, assoc)


def inject_chain_mismatch(history: History, rng: random.Random) -> Chain:
    """A middle chain record's digest is rewritten."""
    assert history.chain.height >= 2
    round_seq = rng.randrange(history.chain.height - 1)
    return _replace_chain_root(
        history.chain, round_seq, rng.randbytes(history.params.alg.output_len)
    )


def inject_node_corruption(history: History, ledger_id: bytes) -> Chain:
    """A stored node on the ledger's final search path is corrupted in place."""
    from trienotary.trie import TrieVersion, search_path

    version = TrieVersion(history.params, history.chain.read_roots()[-1], history.store)
    path = search_path(version, history.key_of(ledger_id))
    target = history.params.alg.hash(path[-1][0])  # the terminal (non-root) node
    assert len(path) > 1
    history.store.corrupt(target)
    return history.chain


def inject_proof_corruption(history: History, ledger_id: bytes) -> Chain:
    """A stored consistency proof for the ledger is corrupted in place."""
    key = history.key_of(ledger_id)
    for round_seq in range(1, history.chain.height):
        address = history.store.find_proof(key, round_seq)
        if address is not None:
            history.store.corrupt(address)
            return history.chain
    raise AssertionError("history has no stored proof for this ledger")
