"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criterion 01 (full-scale 10M-key statistics) is skipped unless FULL_SCALE=1
is set; criterion 02 is its mandatory desk-scale substitute. With it, this
file took 94 s and 2.65 GB peak RSS (ru_maxrss) on a 2-core Xeon.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest

from adversary import inject
from harness import run_history
from trienotary.audit import Status, audit_ledger, make_audit_proof, verify_audit_proof
from trienotary.chain import Chain
from trienotary.cli import main, run_simulation
from trienotary.crypto import SHA256
from trienotary.merkle import (
    ConsistencyProof,
    Ledger,
    prove_consistency,
    prove_inclusion,
    root_at,
    verify_consistency,
    verify_inclusion,
)
from trienotary.store import MemoryStore
from trienotary.structure import measure_keys
from trienotary.trie import TrieParams, build, lookup, update

ALG = SHA256


def _report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def _random_keys(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, 32), dtype=np.uint8)


@pytest.mark.skipif(
    not os.environ.get("FULL_SCALE"),
    reason="full-scale 10M-ledger statistics; set FULL_SCALE=1 to run",
)
def test_01_full_scale_search_path_statistics():
    import hashlib

    n = 10_000_000
    rng = random.Random(0)
    ids = [f"ledger-{i}" for i in range(n)]
    rng.shuffle(ids)
    keys = np.frombuffer(
        b"".join(hashlib.sha256(i.encode()).digest() for i in ids), dtype=np.uint8
    ).reshape(n, 32)

    m = measure_keys(TrieParams(2, 1, ALG), keys)
    assert abs(m.path_len_avg - 25.59) / 25.59 <= 0.02, m
    assert abs(m.nodes_count - 24_428_458) / 24_428_458 <= 0.01, m

    m = measure_keys(TrieParams(8, 8, ALG), keys)
    assert m.path_len_min == 8, m
    assert m.path_len_max <= 10, m
    assert abs(m.path_len_avg - 8.11) / 8.11 <= 0.02, m
    _report(1, "full-scale search path statistics")


def test_02_desk_scale_depth_law():
    for seed in range(5):
        for exponent in (16, 17, 18):
            n = 1 << exponent
            m = measure_keys(TrieParams(2, 1, ALG), _random_keys(seed * 100 + exponent, n))
            offset = m.path_len_avg - math.log2(n)
            assert 1.8 <= offset <= 2.9, (seed, n, offset)
    _report(2, "desk-scale depth law")


def test_03_parameter_trends_at_desk_scale():
    keys = _random_keys(7, 1 << 18)
    grid = {
        (r, k): measure_keys(TrieParams(r, k, ALG), keys)
        for r in (2, 4, 8)
        for k in (1, 2, 4, 8)
    }
    for k in (1, 2, 4, 8):
        avgs = [grid[(r, k)].path_len_avg for r in (2, 4, 8)]
        assert avgs[0] > avgs[1] > avgs[2], ("avg path not decreasing in r", k, avgs)
    for r in (2, 4, 8):
        sizes = [grid[(r, k)].total_size_paper_bits for k in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(sizes, sizes[1:])), (
            "paper size not decreasing in k", r, sizes,
        )
        spreads = [
            grid[(r, k)].path_len_max - grid[(r, k)].path_len_min for k in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(spreads, spreads[1:])), (
            "spread not non-increasing in k", r, spreads,
        )
    _report(3, "parameter trends at desk scale")


def test_04_build_update_equivalence():
    rng = random.Random(4040)
    for _ in range(1000):
        r = rng.choice([2, 4, 8, 16])
        k = rng.randint(1, 8)
        params = TrieParams(r, k, ALG)
        total = rng.randint(1, 512)
        split = rng.randint(0, total - 1)
        keys = set()
        while len(keys) < total:
            keys.add(rng.randbytes(32))
        keys = list(keys)
        base = {key: rng.randbytes(32) for key in keys[: split or 1]}
        delta = {key: rng.randbytes(32) for key in keys[split or 1:]}
        if not delta or rng.random() < 0.5:
            delta[rng.choice(list(base))] = rng.randbytes(32)
        store = MemoryStore(ALG)
        v0 = build(params, base, None, store)
        v1 = update(v0, delta)
        fresh_store = MemoryStore(ALG)
        fresh = build(params, {**base, **delta}, v0.root_digest, fresh_store)
        assert v1.root_digest == fresh.root_digest
        assert set(fresh_store._objects.items()) <= set(store._objects.items())
    _report(4, "build/update equivalence (1000 instances)")


def test_05_persistence_oracle():
    rng = random.Random(5050)
    for _ in range(200):
        params = TrieParams(rng.choice([2, 4, 8]), rng.randint(1, 4), ALG)
        store = MemoryStore(ALG)
        state = {rng.randbytes(32): rng.randbytes(32) for _ in range(rng.randint(1, 8))}
        version = build(params, state, None, store)
        snapshots = [(version, dict(state))]
        for _ in range(rng.randint(0, 19)):
            delta = {rng.randbytes(32): rng.randbytes(32) for _ in range(rng.randint(1, 4))}
            for key in rng.sample(list(state), min(len(state), rng.randint(0, 2))):
                delta[key] = rng.randbytes(32)
            state.update(delta)
            version = update(version, delta)
            snapshots.append((version, dict(state)))
        every_key = list(state)
        for old_version, expected in snapshots:
            for key in every_key:
                assert lookup(old_version, key) == expected.get(key)
    _report(5, "persistence oracle (200 histories)")


def test_06_merkle_proof_suite():
    ledger = Ledger.from_payloads(b"acc", [bytes([i]) * 3 for i in range(64)], ALG)
    roots = {size: root_at(ledger, size) for size in range(0, 65)}
    for n in range(1, 65):
        for m in range(1, n + 1):
            proof = prove_consistency(ledger, m, n)
            assert verify_consistency(roots[m], roots[n], proof, ALG), (m, n)
    for n in range(1, 17):
        for m in range(1, n + 1):
            proof = prove_consistency(ledger, m, n)
            for i, element in enumerate(proof.path):
                for pos in range(len(element)):
                    bad = bytearray(element)
                    bad[pos] ^= 0x01
                    mutated = ConsistencyProof(
                        m, n, proof.path[:i] + (bytes(bad),) + proof.path[i + 1:]
                    )
                    assert not verify_consistency(roots[m], roots[n], mutated, ALG)
            for pos in range(32):
                bad_old = bytearray(roots[m]); bad_old[pos] ^= 0x01
                bad_new = bytearray(roots[n]); bad_new[pos] ^= 0x01
                assert not verify_consistency(bytes(bad_old), roots[n], proof, ALG)
                assert not verify_consistency(roots[m], bytes(bad_new), proof, ALG)
    for n in range(1, 65):
        sub = Ledger(b"acc", [block.payload for block in ledger.blocks[:n]], ALG)
        for index in range(n):
            proof = prove_inclusion(sub, index)
            assert verify_inclusion(roots[n], sub.blocks[index].block_hash, proof, ALG)
    _report(6, "merkle proof suite")


def test_07_audit_soundness_and_completeness():
    for seed in range(500):
        rng = random.Random(seed)
        history = run_history(
            seed,
            n_ledgers=rng.randint(1, 5),
            rounds=rng.randint(1, 5),
            params=TrieParams(rng.choice([2, 4, 8]), rng.choice([1, 2]), ALG),
            p_append=rng.choice([0.0, 0.5, 1.0]),
            late_joiners=rng.randint(0, 1) if rng.random() < 0.3 else 0,
        )
        for lid, ledger in history.ledgers.items():
            report = audit_ledger(
                lid, ledger, history.chain.read_roots(), history.store, history.params
            )
            assert report.exit_code == 0, (seed, lid, report.checks())

    faults = {
        "remove-key": ("no_removal", (1,)),
        "fork-value": ("no_forks", (1,)),
        "chain-mismatch": ("chain_match", (1,)),
        "corrupt-node": (None, (1, 2)),
        "corrupt-proof": (None, (1, 2)),
    }
    for kind, (property_name, allowed_codes) in faults.items():
        for seed in range(50):
            rng = random.Random(10_000 + seed)
            history = run_history(
                20_000 + seed,
                n_ledgers=rng.randint(3, 6),
                rounds=rng.randint(2, 5),
                params=TrieParams(rng.choice([2, 4]), rng.choice([1, 2]), ALG),
                p_append=1.0,
            )
            target = b"ledger-1"
            records = inject(
                kind, history.params, history.store, history.chain.records(), target, rng
            )
            roots = [record.trie_root for record in records]
            report = audit_ledger(target, None, roots, history.store, history.params)
            assert report.exit_code in allowed_codes, (kind, seed, report.checks())
            if property_name is not None:
                assert report.checks()[property_name].status is Status.FAIL, (
                    kind, seed, report.checks(),
                )
    _report(7, "audit soundness and completeness (500 honest + 5x50 faulted runs)")


def test_08_audit_proof_equivalence():
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        rounds = rng.randint(1, 5)
        history = run_history(
            30_000 + seed,
            n_ledgers=rng.randint(1, 4),
            rounds=rounds,
            params=TrieParams(rng.choice([2, 4]), rng.choice([1, 2]), ALG),
            p_append=rng.choice([0.0, 0.7, 1.0]),
            late_joiners=1 if rounds > 1 and rng.random() < 0.3 else 0,
        )
        roots = history.chain.read_roots()
        lid = rng.choice(list(history.ledgers))
        direct = audit_ledger(lid, None, roots, history.store, history.params)
        proof = make_audit_proof(lid, len(roots) - 1, roots, history.store, history.params)
        offline = verify_audit_proof(proof, lid, roots)
        assert offline.verdict is direct.verdict, (seed, lid)
        for name, check in offline.checks().items():
            assert check.status is direct.checks()[name].status, (seed, name)
        if seed % 4 == 0 and rounds >= 2:
            # static scoping: same seed replays the identical prefix, then
            # the chain grows past the proof's coverage
            early = make_audit_proof(lid, rounds - 2, roots, history.store, history.params)
            scoped = verify_audit_proof(early, lid, roots)
            assert scoped.covered_rounds == rounds - 1
            assert scoped.uncovered_rounds == (rounds - 1,)
            assert scoped.verdict is Status.PASS
    _report(8, "audit proof equivalence (200 histories)")


def test_09_scalability_contract():
    params = TrieParams(2, 1, ALG)
    store = MemoryStore(ALG)
    chain = Chain()
    run_simulation(10_000, 5, 0.05, 1234, params, store, chain)
    records = chain.records()
    assert len(records) == 5
    for record in records:
        assert len(record.trie_root) + len(record.note) <= 1024
    _report(9, "scalability contract (10,000 ledgers, 5 rounds, 5 records)")


def test_10_determinism(tmp_path):
    sim_args = ["--ledgers", "12", "--rounds", "4", "--append-rate", "0.5", "--seed", "77"]
    artifacts = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        assert main(["simulate", "--workdir", str(workdir)] + sim_args) == 0
        artifacts.append(
            (
                (workdir / "chain.log").read_bytes(),
                (workdir / "proofs.idx").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]

    csvs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(
            ["bench", "--r", "2,8", "--k", "1,4", "--ledgers", "512", "--seed", "9",
             "--out", str(out)]
        ) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    _report(10, "determinism (bitwise-identical journal, index, CSV)")
