"""The adversary: a notary or storage host that edits the public artifacts
after the fact, holding nothing an auditor lacks.

It reads the journal's records and the stored objects, and forges with the
library's public ``build``, ``associations`` and ``search_path``, so it
reaches what an outsider can reach and no more. Its five fault kinds:

    remove-key      the final round's trie drops the ledger's key
    fork-value      the final round associates a digest that extends no
                    notarized history
    chain-mismatch  one record's trie root digest is rewritten
    corrupt-node    the node deciding the ledger's key in the final trie has
                    its first byte flipped in storage
    corrupt-proof   the ledger's first stored consistency proof has its
                    first byte flipped in storage

The audit must fail (exit 1) on the first three and be inconclusive
(exit 2) on the corruptions. A flip edits the stored bytes themselves: the
entry of a ``MemoryStore``, or the record in a ``DirectoryStore``'s
``objects.pack``. ``pack_records`` is the one reader of the pack's record
layout; the pack damages below (a cut or flipped newest root, a first
record whose length runs past the end) find their bytes through it too.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from pathlib import Path

from trienotary.chain import Chain, format_record
from trienotary.merkle import ConsistencyProof, encode_consistency_proof
from trienotary.store import PACK_NAME, DirectoryStore
from trienotary.trie import TrieVersion, associations, build, search_path
from trienotary.workdir import Workdir

KINDS = ("remove-key", "fork-value", "chain-mismatch", "corrupt-node", "corrupt-proof")


def inject(kind, params, store, records, ledger_id=None, rng=None) -> list:
    """Apply fault ``kind`` for ``ledger_id`` with the trie ``params``;
    returns the journal records to publish in place of ``records``.

    Forged trie nodes and a bogus proof are put into ``store``, and a
    corruption flips stored bytes (``flip``); ``records`` itself is not
    modified. ``rng`` draws the forged digests and the rewritten record
    (default ``random.Random(0)``). ValueError if the ledger has no stored
    proof to corrupt.
    """
    rng, records, last = rng or random.Random(0), list(records), len(records) - 1
    if kind == "chain-mismatch":
        target = rng.randrange(max(last, 1))
        records[target] = replace(records[target], trie_root=rng.randbytes(params.digest_len))
        return records
    key = params.alg.hash(ledger_id)
    version = TrieVersion(params, records[last].trie_root, store)
    if kind == "corrupt-node":
        flip(store, params.alg.hash(search_path(version, key)[-1][0]))
    elif kind == "corrupt-proof":
        proofs = [store.find_proof(key, seq) for seq in range(1, len(records))]
        if not any(proofs):
            raise ValueError("no stored proof for this ledger")
        flip(store, next(filter(None, proofs)))
    else:  # remove-key or fork-value
        assoc = associations(version)
        if kind == "remove-key":
            del assoc[key]
        else:
            forged = assoc[key] = rng.randbytes(params.digest_len)
            if store.find_proof(key, last) is None:
                # a proof slot exists, so the audit reaches verification and fails
                bogus = encode_consistency_proof(ConsistencyProof(1, 2, (forged,)))
                store.index_proof(key, last, store.put(bogus))
        prev_root = records[last - 1].trie_root if last > 0 else params.alg.zero
        forged_root = build(params, assoc, prev_root, store).root_digest
        records[last] = replace(records[last], trie_root=forged_root)
    return records


def flip(store, address: bytes) -> bool:
    """Flip the first content byte of the object stored at ``address``.

    Returns False, changing nothing, if no object is stored there, it is
    empty, or it already fails its read check, so a second flip never
    undoes the first. A ``DirectoryStore`` commits first; then its record
    is found by ``pack_records`` (the first one for an address winning)
    and edited in place, where the store's own mapping sees the edit."""
    if isinstance(store, DirectoryStore):
        store.commit()
        path = store.root / PACK_NAME
        pack = path.read_bytes() if path.exists() else b""
        found = (span for name, *span in pack_records(pack, len(address)) if name == address)
        at, end = next(found, (0, 0))
        content = pack[at:end]
    else:
        content = store._objects.get(address, b"")
    if not content or store.alg.hash(content) != address:
        return False
    if isinstance(store, DirectoryStore):
        with open(path, "r+b") as handle:
            handle.seek(at)
            handle.write(bytes([content[0] ^ 0xFF]))
    else:
        store._objects[address] = bytes([content[0] ^ 0xFF]) + content[1:]
    return True


def pack_records(pack: bytes, digest_len: int):
    """Yield ``(address, at, end)`` for each record of ``objects.pack``
    bytes, in file order. A record is ``address || u32 big-endian length
    || content``, its content ``pack[at:end]``; a torn last record's
    ``end`` lies past the end of ``pack``."""
    start, header = 0, digest_len + 4
    while start + header <= len(pack):
        at = start + header
        end = at + int.from_bytes(pack[at - 4:at], "big")
        yield pack[start:start + digest_len], at, end
        start = end


def _newest_root(workdir) -> bytes:
    return Chain(Path(workdir) / "chain.log").read_roots()[-1]


def _newest_root_record(workdir) -> tuple[Path, int, int]:
    """The workdir's pack, and the (start, end) of the record holding the
    newest trie root that ``chain.log`` publishes."""
    root, path = _newest_root(workdir), Path(workdir) / PACK_NAME
    at, end = next(span for name, *span in pack_records(path.read_bytes(), len(root))
                   if name == root)
    return path, at - len(root) - 4, end


def cut_newest_root(workdir) -> None:
    """Truncate ``objects.pack`` halfway through the newest root's record."""
    path, start, end = _newest_root_record(workdir)
    os.truncate(path, (start + end) // 2)


def flip_newest_root(workdir) -> None:
    """Flip the low bit of the newest root's last content byte."""
    path, _, end = _newest_root_record(workdir)
    pack = bytearray(path.read_bytes())
    pack[end - 1] ^= 0x01
    path.write_bytes(pack)


def flip_first_length(workdir) -> None:
    """Make the first record's length claim to run 4 MiB past the end."""
    path = Path(workdir) / PACK_NAME
    pack = bytearray(path.read_bytes())
    pack[len(_newest_root(workdir)) + 1] ^= 0x40  # the length's second byte: + 0x400000
    path.write_bytes(pack)


def tamper(path, kind: str, ledger_id: bytes | None = None) -> None:
    """Apply fault ``kind`` to the workdir at ``path`` (``inject`` with its
    default draws): under the writer lock, forged objects go into the
    workdir's store, and the records it publishes replace ``chain.log``."""
    with Workdir.open(path, write=True) as workdir:
        records = inject(kind, workdir.params, workdir.store, workdir.chain.records(), ledger_id)
        lines = b"".join(format_record(record).encode("ascii") + b"\n" for record in records)
        (workdir.path / "chain.log").write_bytes(lines)
