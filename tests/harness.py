"""Shared simulation harness: honest notarization histories.

Faults are injected with ``adversary.inject`` on a history's store and
chain records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from trienotary.chain import Chain
from trienotary.crypto import SHA256
from trienotary.merkle import Ledger
from trienotary.notary import NotaryState, notarize_round
from trienotary.store import MemoryStore
from trienotary.trie import InternalNode, TrieParams, parse_node


class CountingStore(MemoryStore):
    """MemoryStore that records the address of every get, in order."""

    def __init__(self, alg):
        super().__init__(alg)
        self.gets: list[bytes] = []

    def get(self, address: bytes) -> bytes:
        self.gets.append(address)
        return super().get(address)


def label_adding_key(
    params: TrieParams, key: bytes, path: list[bytes], rng: random.Random
) -> bytes | None:
    """A search key that follows ``key`` down ``path`` (node bytes from the
    root, as ``search_path`` lists them) to an internal node and then takes
    a label that node lacks, so inserting it adds a child to that node.
    None when every internal node on the path has all r children."""
    width = params.r.bit_length() - 1
    gaps = []
    for depth, data in enumerate(path):
        node = parse_node(data, params)
        if isinstance(node, InternalNode):
            taken = {label for label, _ in node.children}
            gaps += [(depth, label) for label in range(params.r) if label not in taken]
    if not gaps:
        return None
    depth, label = rng.choice(gaps)
    low = params.alg.bit_length - (depth + 1) * width
    prefix = int.from_bytes(key, "big") >> (low + width)
    new = (prefix << width | label) << low | rng.getrandbits(low)
    return new.to_bytes(params.alg.output_len, "big")


@dataclass
class History:
    params: TrieParams
    store: MemoryStore
    chain: Chain
    ledgers: dict[bytes, Ledger]

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
        state, _ = notarize_round(state, dict(ledgers), store, chain)
    history.ledgers = ledgers
    return history

