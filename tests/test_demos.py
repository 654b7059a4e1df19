"""The walkthrough demos run end to end (demo 05, ~5 s of measurements, is
left out), and the package's public names are pinned."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trienotary

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_single_ledger_notarization.py",
    "02_many_ledgers_one_digest.py",
    "03_external_audit.py",
    "04_offline_audit_proof.py",
])
def test_demo_runs(name):
    src = str(Path(trienotary.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    if name.startswith("03"):
        assert "chain_match = fail" in proc.stdout
        assert "no_removal = fail" in proc.stdout


PUBLIC_NAMES = [
    "AuditProof", "AuditReport", "Block", "Chain", "CheckResult", "ConsistencyProof",
    "DirectoryStore", "HashAlg", "InclusionProof", "InternalNode", "LeafNode", "Ledger",
    "Measurements", "MemoryStore", "NotarizationRecord", "NotaryState", "ObjectStore",
    "SHA256", "SHA512", "Status", "TrieParams", "TrieVersion", "algorithm",
    "associations", "audit_ledger", "build", "decode_audit_proof",
    "decode_consistency_proof", "encode_audit_proof", "encode_consistency_proof",
    "ledger_root", "lookup", "make_audit_proof", "measure_keys", "notarize_round",
    "notarize_single", "parse_node", "prove_consistency", "prove_inclusion",
    "read_ledger", "rechain", "root_at", "search_path", "serialize_node", "stats",
    "update", "verify_audit_proof", "verify_consistency", "verify_inclusion",
    "write_ledger",
]


def test_public_names_are_pinned():
    """A name joins or leaves ``trienotary.__all__`` only on purpose."""
    assert trienotary.__all__ == PUBLIC_NAMES
    assert all(hasattr(trienotary, name) for name in PUBLIC_NAMES)
