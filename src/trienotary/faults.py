"""Fault injectors: the adversary the audit must catch.

Each fault models a notary or storage host that edits the public artifacts
after the fact. ``inject`` applies one fault to an object store and the
journal's records, and returns the records as the adversary publishes them:

    remove-key      the final round's trie drops the ledger's key
    fork-value      the final round associates a digest that extends no
                    notarized history
    chain-mismatch  one record's trie root digest is rewritten
    corrupt-node    the node deciding the ledger's key in the final trie is
                    damaged in storage
    corrupt-proof   the ledger's first stored consistency proof is damaged
                    in storage

The audit must fail (exit 1) on the first three and be inconclusive
(exit 2) on the corruptions. This module is the one implementation behind
``trienotary tamper``, the test harness and the demos.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .chain import NotarizationRecord
from .errors import TrienotaryError
from .merkle import ConsistencyProof, encode_consistency_proof
from .store import ObjectStore
from .trie import TrieParams, TrieVersion, associations, build, lookup, search_path

KINDS = ("remove-key", "fork-value", "chain-mismatch", "corrupt-node", "corrupt-proof")


def inject(
    kind: str,
    params: TrieParams,
    store: ObjectStore,
    records: list[NotarizationRecord],
    ledger_id: bytes | None = None,
    rng: random.Random | None = None,
) -> list[NotarizationRecord]:
    """Apply fault ``kind`` for ``ledger_id``; returns the records to publish.

    Malicious trie nodes and a bogus proof are written to ``store``, and
    corruptions damage stored bytes in place; ``records`` itself is not
    modified. ``rng`` draws forged digests and the rewritten record
    (default ``random.Random(0)``). Bad input raises TrienotaryError.
    """
    if kind not in KINDS:
        raise TrienotaryError(f"unknown fault kind {kind!r}")
    if not records:
        raise TrienotaryError("chain.log is empty; nothing to tamper")
    rng = rng or random.Random(0)
    records = list(records)
    last = len(records) - 1
    if kind == "chain-mismatch":
        target = rng.randrange(max(last, 1))
        forged_root = rng.randbytes(params.alg.output_len)
        records[target] = replace(records[target], trie_root=forged_root)
        return records

    if ledger_id is None:
        raise TrienotaryError("--id is required for this tamper kind")
    key = params.alg.hash(ledger_id)
    version = TrieVersion(params, records[last].trie_root, store)
    if lookup(version, key) is None:
        raise TrienotaryError("ledger id is not in the latest trie")
    if kind == "corrupt-node":
        store.corrupt(params.alg.hash(search_path(version, key)[-1][0]))
    elif kind == "corrupt-proof":
        for seq in range(1, len(records)):
            address = store.find_proof(key, seq)
            if address is not None:
                store.corrupt(address)
                break
        else:
            raise TrienotaryError("no stored proof for this ledger")
    else:
        assoc = associations(version)
        if kind == "remove-key":
            if len(assoc) == 1:
                raise TrienotaryError("cannot drop the only key in the trie")
            del assoc[key]
        else:
            forged = rng.randbytes(params.alg.output_len)
            assoc[key] = forged
            if store.find_proof(key, last) is None:
                # a proof slot exists, so the audit reaches verification and fails
                bogus = encode_consistency_proof(ConsistencyProof(1, 2, (forged,)))
                store.index_proof(key, last, store.put(bogus))
        prev_root = records[last - 1].trie_root if last > 0 else params.alg.zero
        malicious = build(params, assoc, prev_root, store)
        records[last] = replace(records[last], trie_root=malicious.root_digest)
    return records
