"""The walkthrough demos run end to end (demo 05, ~5 s of measurements, is left out)."""

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
