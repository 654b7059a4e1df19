"""The command-line surface: simulate, bench, audit, prove, verify, tamper."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import trienotary
from trienotary.cli import main, run_bench
from trienotary.crypto import SHA256


def run(*argv) -> int:
    return main([str(a) for a in argv])


def run_captured(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(*argv)
    return code, out.getvalue()


@pytest.fixture
def simulated(tmp_path):
    workdir = tmp_path / "run"
    code = run(
        "simulate", "--workdir", workdir, "--ledgers", 6, "--rounds", 3,
        "--append-rate", 1.0, "--seed", 11,
    )
    assert code == 0
    return workdir


def test_simulate_creates_the_documented_layout(simulated):
    assert (simulated / "chain.log").is_file()
    assert (simulated / "proofs.idx").is_file()
    assert (simulated / "objects").is_dir()
    assert (simulated / "config.json").is_file()
    assert json.loads((simulated / "config.json").read_text()) == {
        "hash": "sha256", "k": 1, "r": 2,
    }
    ledger_files = list((simulated / "ledgers").glob("*.ledger"))
    assert len(ledger_files) == 6
    assert len((simulated / "chain.log").read_text().splitlines()) == 3


def test_simulate_refuses_overwrite_without_force(simulated):
    assert run("simulate", "--workdir", simulated) == 1
    assert run("simulate", "--workdir", simulated, "--force", "--ledgers", 2) == 0
    assert len(list((simulated / "ledgers").glob("*.ledger"))) == 2


def test_audit_honest_run_exits_zero(simulated):
    code, output = run_captured("audit", "ledger-3", "--workdir", simulated)
    assert code == 0
    assert "verdict: pass" in output


def test_audit_unknown_id_is_inconclusive(simulated):
    assert run("audit", "no-such-ledger", "--workdir", simulated) == 2


def test_audit_after_each_tamper_kind_never_passes(tmp_path):
    kinds = ["remove-key", "fork-value", "chain-mismatch", "corrupt-node", "corrupt-proof"]
    for kind in kinds:
        workdir = tmp_path / kind
        assert run(
            "simulate", "--workdir", workdir, "--ledgers", 5, "--rounds", 3,
            "--append-rate", 1.0, "--seed", 7,
        ) == 0
        assert run("audit", "ledger-1", "--workdir", workdir) == 0
        assert run("tamper", "--workdir", workdir, "--kind", kind, "--id", "ledger-1") == 0
        code = run("audit", "ledger-1", "--workdir", workdir)
        assert code in (1, 2), kind


def test_prove_verify_round_trip(simulated, tmp_path):
    proof_file = tmp_path / "l2.proof"
    assert run("prove", "ledger-2", "--workdir", simulated, "--out", proof_file) == 0
    assert proof_file.stat().st_size > 0
    code, output = run_captured(
        "verify", "ledger-2", "--proof", proof_file, "--workdir", simulated
    )
    assert code == 0
    assert "verdict: pass" in output
    # wrong id against the same bundle
    assert run("verify", "ledger-3", "--proof", proof_file, "--workdir", simulated) == 1


def test_verify_truncated_proof_is_inconclusive(simulated, tmp_path):
    proof_file = tmp_path / "l0.proof"
    assert run("prove", "ledger-0", "--workdir", simulated, "--out", proof_file) == 0
    proof_file.write_bytes(proof_file.read_bytes()[:40])
    assert run("verify", "ledger-0", "--proof", proof_file, "--workdir", simulated) == 2


def test_verify_scopes_rounds_after_proof_creation(tmp_path):
    workdir = tmp_path / "run"
    assert run("simulate", "--workdir", workdir, "--ledgers", 3, "--rounds", 4,
               "--seed", 3, "--append-rate", 0.5) == 0
    proof_file = tmp_path / "early.proof"
    assert run("prove", "ledger-0", "--workdir", workdir, "--out", proof_file,
               "--round", 1) == 0
    code, output = run_captured(
        "verify", "ledger-0", "--proof", proof_file, "--workdir", workdir
    )
    assert code == 0
    assert "not covered: rounds 2..3" in output


def test_print_chain_matches_journal(simulated):
    code, output = run_captured("print-chain", "--workdir", simulated)
    assert code == 0
    assert output == (simulated / "chain.log").read_text()


def test_simulate_determinism_bitwise(tmp_path):
    outputs = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        assert run("simulate", "--workdir", workdir, "--ledgers", 8, "--rounds", 4,
                   "--append-rate", 0.6, "--seed", 99) == 0
        outputs.append(
            (
                (workdir / "chain.log").read_bytes(),
                (workdir / "proofs.idx").read_bytes(),
                sorted(p.name for p in (workdir / "objects").rglob("*") if p.is_file()),
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][1] != b""  # appends happened, so proofs were indexed


def test_simulate_wire_format_golden(tmp_path):
    """Journal, proof index and object set of a fixed run, byte for byte.

    The digests were recorded before ledgers cached their subtree heads;
    they change only if a wire format or the simulated history does.
    """
    workdir = tmp_path / "golden"
    assert run("simulate", "--workdir", workdir, "--seed", 42, "--ledgers", 50,
               "--rounds", 6, "--append-rate", 0.7) == 0
    addresses = sorted(p.parent.name + p.name for p in (workdir / "objects").glob("*/*"))
    digests = {
        "chain.log": hashlib.sha256((workdir / "chain.log").read_bytes()).hexdigest(),
        "proofs.idx": hashlib.sha256((workdir / "proofs.idx").read_bytes()).hexdigest(),
        "objects": hashlib.sha256("\n".join(addresses).encode()).hexdigest(),
    }
    assert len(addresses) == 818
    assert digests == {
        "chain.log": "633d735aa52368df4cd55619b679cc1765c8417183fe74b08ae92ea5cb20d798",
        "proofs.idx": "1aa2c75312d7507bd320da6f46536ef67f9eacebe401581668f7017fdd415c1c",
        "objects": "aeaaada8f41f0a848b296df166bf89b79f411ad26eb3678d604569e073a7636f",
    }


def test_audit_bundle_golden(tmp_path):
    """``prove`` bundle bytes and ``audit`` output for ledger-7 of the golden run.

    Recorded before audits walked node bytes through a per-run memo; the
    memo only skips nodes already fetched, so neither may change.
    """
    workdir = tmp_path / "golden"
    assert run("simulate", "--workdir", workdir, "--seed", 42, "--ledgers", 50,
               "--rounds", 6, "--append-rate", 0.7) == 0
    bundle = tmp_path / "ledger-7.proof"
    assert run("prove", "ledger-7", "--workdir", workdir, "--out", bundle) == 0
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() == (
        "72558c1c083d48ed64beb0f2b161e6ee7fdd61d63fd7832e992295434e105d69"
    )
    assert run_captured("audit", "ledger-7", "--workdir", workdir) == (0, (
        "chain_match: pass\n"
        "no_alternative_histories: pass\n"
        "no_removal: pass\n"
        "no_forks: pass\n"
        "disclosed_data_match: pass\n"
        "verdict: pass\n"
    ))


def _tear_last_chain_line(workdir: Path) -> str:
    path = workdir / "chain.log"
    path.write_bytes(path.read_bytes()[:-20])
    return "chain.log:3: malformed chain record"


def _garbage_index_line(workdir: Path) -> str:
    path = workdir / "proofs.idx"
    lines = len(path.read_text().splitlines())
    path.write_bytes(path.read_bytes() + b"not an index entry\n")
    return f"proofs.idx:{lines + 1}: malformed proof index entry"


def _renumber_chain_record(workdir: Path) -> str:
    path = workdir / "chain.log"
    lines = path.read_text().splitlines()
    lines[1] = "7" + lines[1][1:]
    path.write_text("\n".join(lines) + "\n")
    return "chain.log:2: record seq 7 is not its line index 1"


@pytest.mark.parametrize("command", ["audit", "prove"])
@pytest.mark.parametrize(
    "damage", [_tear_last_chain_line, _garbage_index_line, _renumber_chain_record]
)
def test_malformed_artifact_is_one_error_line(simulated, tmp_path, command, damage):
    expected = damage(simulated)
    argv = [command, "ledger-1", "--workdir", simulated]
    if command == "prove":
        argv += ["--out", tmp_path / "l1.proof"]
    src = str(Path(trienotary.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "trienotary.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.rstrip().endswith(expected)


def test_bench_csv_schema_and_determinism(tmp_path):
    args = ["bench", "--r", "2,4", "--k", "1,2", "--ledgers", "64,256", "--seed", "5"]
    first, second = run_captured(*args), run_captured(*args)
    assert first[0] == 0
    assert first == second
    lines = first[1].splitlines()
    assert lines[0] == (
        "r,k,ledgers,nodes,path_min,path_max,path_avg,"
        "total_bytes,total_paper_bits,path_avg_bytes"
    )
    assert len(lines) == 1 + 2 * 2 * 2
    row = lines[1].split(",")
    assert row[:3] == ["2", "1", "64"]
    out_file = tmp_path / "bench.csv"
    assert run(*args, "--out", out_file) == 0
    assert out_file.read_text() == first[1]


def test_bench_single_ledger_row():
    out = io.StringIO()
    run_bench([2], [1], [1], 0, SHA256, out)
    row = out.getvalue().splitlines()[1].split(",")
    # one node, unit path lengths
    assert row[3] == "1"
    assert row[4] == row[5] == "1"
    assert float(row[6]) == 1.0


def test_workdir_from_environment(tmp_path, monkeypatch):
    workdir = tmp_path / "envrun"
    monkeypatch.setenv("NOTARY_WORKDIR", str(workdir))
    assert run("simulate", "--ledgers", 2, "--rounds", 1, "--seed", 1) == 0
    assert run("audit", "ledger-0") == 0


def test_missing_workdir_is_an_error(tmp_path):
    assert run("audit", "ledger-0", "--workdir", tmp_path / "nowhere") == 1
