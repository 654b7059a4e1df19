"""The command-line surface: simulate, bench, audit, prove, verify, print-chain."""

from __future__ import annotations

import base64
import hashlib
import io
import json
import re
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adversary import KINDS, cut_newest_root, flip_first_length, flip_newest_root, tamper
import trienotary
from trienotary import cli, structure
from trienotary.chain import Chain, format_record
from trienotary.cli import build_parser, main, run_bench
from trienotary.crypto import ALGORITHM_NAMES, SHA256
from trienotary.errors import MalformedArtifactError
from trienotary.store import DirectoryStore


def run(*argv) -> int:
    return main([str(a) for a in argv])


def stored_items(workdir) -> list[tuple[bytes, bytes]]:
    with DirectoryStore(workdir, SHA256) as store:
        return list(store.items())


def run_captured(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(*argv)
    return code, out.getvalue()


def simulate_into(parent: Path) -> Path:
    workdir = parent / "run"
    code = run(
        "simulate", "--workdir", workdir, "--ledgers", 6, "--rounds", 3,
        "--append-rate", 1.0, "--seed", 11,
    )
    assert code == 0
    return workdir


@pytest.fixture
def simulated(tmp_path):
    return simulate_into(tmp_path)


def test_simulate_creates_the_documented_layout(tmp_path):
    for rounds in (1, 3, 8):  # the entries do not grow with the rounds
        workdir = tmp_path / f"run-{rounds}"
        assert run("simulate", "--workdir", workdir, "--ledgers", 6, "--rounds", rounds,
                   "--append-rate", 1.0, "--seed", 11) == 0
        assert sorted(p.name for p in workdir.iterdir()) == [
            "chain.log", "config.json", "ledgers", "objects.pack", "proofs.idx",
        ]
        assert json.loads((workdir / "config.json").read_text()) == {
            "hash": "sha256", "k": 1, "r": 2,
        }
        assert len(list((workdir / "ledgers").glob("*.ledger"))) == 6
        assert len((workdir / "chain.log").read_text().splitlines()) == rounds


def test_simulate_refuses_overwrite_without_force(simulated):
    assert run("simulate", "--workdir", simulated) == 1
    assert run("simulate", "--workdir", simulated, "--force", "--ledgers", 2) == 0
    assert len(list((simulated / "ledgers").glob("*.ledger"))) == 2


def test_forced_rerun_keeps_no_stale_objects(simulated, tmp_path):
    rerun = ["--ledgers", 3, "--rounds", 2, "--seed", 5]
    assert run("simulate", "--workdir", simulated, "--force", *rerun) == 0
    assert run("simulate", "--workdir", tmp_path / "fresh", *rerun) == 0
    for name in ("chain.log", "proofs.idx", "objects.pack"):
        assert (simulated / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert stored_items(simulated) == stored_items(tmp_path / "fresh")


def test_audit_honest_run_exits_zero(simulated):
    code, output = run_captured("audit", "ledger-3", "--workdir", simulated)
    assert code == 0
    assert "verdict: pass" in output


def test_audit_unknown_id_is_inconclusive(simulated):
    assert run("audit", "no-such-ledger", "--workdir", simulated) == 2


def test_audit_after_each_tamper_kind_never_passes(tmp_path):
    for kind in KINDS:
        workdir = tmp_path / kind
        assert run(
            "simulate", "--workdir", workdir, "--ledgers", 5, "--rounds", 3,
            "--append-rate", 1.0, "--seed", 7,
        ) == 0
        assert run("audit", "ledger-1", "--workdir", workdir) == 0
        tamper(workdir, kind, b"ledger-1")
        code = run("audit", "ledger-1", "--workdir", workdir)
        assert code in (1, 2), kind


TAMPER_GOLDEN = {
    "remove-key": (
        "fed4845b7beb73730d4be8ed904dcd28fca0252303a002d0121006cbada088b5",
        "b20fd51daa3b24b65068c1c337707c4d8aa36fcf0c62d51ba8a7d70dcc78e256",
        "e5510b61db904545d477ccfac03a2a67019ad8961028c3ee7d5068716cdce5ec",
    ),
    "fork-value": (
        "ea5998805ec001723bd04d4fef6480f5b12d8d96cf56bc32cd3adc25009b89c5",
        "b20fd51daa3b24b65068c1c337707c4d8aa36fcf0c62d51ba8a7d70dcc78e256",
        "0486f7c41e50ab501ce36453c97231d6c8a7f98756ee2c9a1f6227647e15b0b2",
    ),
    "chain-mismatch": (
        "ee280c25bc24538de2fd43fb2963873ff568f8e50628854950dfc9d95eb6206a",
        "b20fd51daa3b24b65068c1c337707c4d8aa36fcf0c62d51ba8a7d70dcc78e256",
        "33067ffff4116485bd65ba6b8111640c1e16287d86f28c32f901c4cf6b22015e",
    ),
    "corrupt-node": (
        "796510031ad65e7c0e0983d578591a606e818c9d86761d26307f928a962acbb2",
        "b20fd51daa3b24b65068c1c337707c4d8aa36fcf0c62d51ba8a7d70dcc78e256",
        "fb0f8fb64e93319cba43692a4c92c37d48f3c6603be77c944408425dfc90eb6e",
    ),
    "corrupt-proof": (
        "796510031ad65e7c0e0983d578591a606e818c9d86761d26307f928a962acbb2",
        "b20fd51daa3b24b65068c1c337707c4d8aa36fcf0c62d51ba8a7d70dcc78e256",
        "97847b71ff68f5a11db4f21f800817304548bdd9b737fba07e731cb7f2a0b4e0",
    ),
}


@pytest.mark.parametrize("kind", sorted(TAMPER_GOLDEN))
def test_tamper_output_golden(tmp_path, kind):
    """sha256 of ``chain.log``, ``proofs.idx`` and every (address, content)
    object after one ``tamper`` of the seed-7 run, recorded when the faults
    were a CLI command of the package. The objects were then one file each;
    ``items()`` yields the same pairs in the same order."""
    workdir = tmp_path / "run"
    assert run("simulate", "--workdir", workdir, "--ledgers", 5, "--rounds", 3,
               "--append-rate", 1.0, "--seed", 7) == 0
    tamper(workdir, kind, b"ledger-1")
    objects = hashlib.sha256()
    for address, content in stored_items(workdir):
        objects.update(address + content)
    assert (
        hashlib.sha256((workdir / "chain.log").read_bytes()).hexdigest(),
        hashlib.sha256((workdir / "proofs.idx").read_bytes()).hexdigest(),
        objects.hexdigest(),
    ) == TAMPER_GOLDEN[kind]


def test_corrupt_proof_twice_stays_inconclusive(simulated):
    for _ in range(2):
        tamper(simulated, "corrupt-proof", b"ledger-1")
    assert run("audit", "ledger-1", "--workdir", simulated) == 2


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


def test_verify_refuses_a_bundle_with_other_parameters(simulated, tmp_path, capsys):
    # a bundle claiming k=2 would frame the k=1 trie's nodes under a looser
    # leaf limit; verify takes the parameters from config.json, as audit does
    proof_file = tmp_path / "l1.proof"
    assert run("prove", "ledger-1", "--workdir", simulated, "--out", proof_file) == 0
    blob = bytearray(proof_file.read_bytes())
    k_field = slice(4 + 1 + 2, 4 + 1 + 2 + 2)  # section length, hash id, r, then k
    assert blob[k_field] == (1).to_bytes(2, "little")
    blob[k_field] = (2).to_bytes(2, "little")
    proof_file.write_bytes(blob)
    capsys.readouterr()
    assert run("verify", "ledger-1", "--proof", proof_file, "--workdir", simulated) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: audit proof parameters (r=2, k=2, sha256) "
        "differ from config.json (r=2, k=1, sha256)\n"
    )


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
                stored_items(workdir),
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][1] != b""  # appends happened, so proofs were indexed


def test_simulate_wire_format_golden(tmp_path):
    """Journal, proof index and object set of a fixed run, byte for byte.

    The digests were recorded before ledgers cached their subtree heads,
    with one file per object; they change only if a wire format or the
    simulated history does, not with the store's file layout.
    """
    workdir = tmp_path / "golden"
    assert run("simulate", "--workdir", workdir, "--seed", 42, "--ledgers", 50,
               "--rounds", 6, "--append-rate", 0.7) == 0
    addresses = [address.hex() for address, _ in stored_items(workdir)]
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
    """Cut 20 characters out of the last line but keep its LF: a complete,
    malformed record. A last line with no LF is an unfinished append, which
    readers skip (``test_audit_skips_a_torn_final_chain_line``)."""
    path = workdir / "chain.log"
    path.write_bytes(path.read_bytes()[:-21] + b"\n")
    return "chain.log:3: malformed chain record"


def _garbage_index_line(workdir: Path) -> str:
    path = workdir / "proofs.idx"
    lines = len(path.read_text().splitlines())
    path.write_bytes(path.read_bytes() + b"not an index entry\n")
    return f"proofs.idx:{lines + 1}: malformed proof index entry"


def _conflicting_index_line(workdir: Path) -> str:
    """Point the first indexed (ledger, round) slot at a second address."""
    path = workdir / "proofs.idx"
    lines = path.read_text().splitlines()
    key_hex, round_str, addr_hex = lines[0].split(" ")
    other = "00" * (len(addr_hex) // 2)
    path.write_text("\n".join([*lines, f"{key_hex} {round_str} {other}"]) + "\n")
    return f"proofs.idx:{len(lines) + 1}: conflicting proof index entry"


def _renumber_chain_record(workdir: Path) -> str:
    path = workdir / "chain.log"
    lines = path.read_text().splitlines()
    lines[1] = "7" + lines[1][1:]
    path.write_text("\n".join(lines) + "\n")
    return "chain.log:2: record seq 7 is not its line index 1"


def run_in_process(*argv) -> subprocess.CompletedProcess:
    """The CLI's entry point with stdout and stderr captured, as a child
    process would run it. A ``SystemExit`` (argparse's usage errors) gives
    its exit code; any other exception escapes and fails the test, where a
    child process would have printed a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", [
    ["audit", "ledger-1", "--workdir", "{workdir}"],
    ["prove", "ledger-1", "--workdir", "{workdir}", "--out", "{out}"],
    ["simulate", "--ledgers", "2", "--workdir", "{out}"],
    ["bench", "--ledgers", "4", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_the_in_process_runner_fails_on_an_uncaught_exception(
    simulated, tmp_path, monkeypatch, argv
):
    """Each command the damage tests below run: an exception that escapes
    it escapes the runner too, so a damage test that met one would fail."""

    def injected(args):
        raise RuntimeError(f"injected into {args.command}")

    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", injected)
    where = {"workdir": simulated, "out": tmp_path / "out"}
    with pytest.raises(RuntimeError, match=f"injected into {argv[0]}"):
        run_in_process(*(arg.format(**where) for arg in argv))


@pytest.mark.parametrize("command", ["audit", "prove"])
@pytest.mark.parametrize(
    "damage",
    [_tear_last_chain_line, _garbage_index_line, _conflicting_index_line, _renumber_chain_record],
)
def test_malformed_artifact_is_one_error_line(simulated, tmp_path, command, damage):
    expected = damage(simulated)
    argv = [command, "ledger-1", "--workdir", simulated]
    if command == "prove":
        argv += ["--out", tmp_path / "l1.proof"]
    proc = run_in_process(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.rstrip().endswith(expected)


def _upper_first_letter(field: str) -> str:
    """Flip bit 5 of the field's first hex letter: ``a`` becomes ``A``."""
    return re.sub("[a-f]", lambda letter: letter.group().upper(), field, count=1)


# (file, line number, field index, edit): each edit leaves a line that the
# lenient parsers of int() and bytes.fromhex() would read as the original,
# or, in the cut and extended rows, a journal root, index key or address
# that decodes to bytes but is not a digest
NONCANONICAL_FIELDS = {
    "journal root case flip": ("chain.log", 2, 1, _upper_first_letter),
    "journal root cut": ("chain.log", 3, 1, lambda root: root[:-2]),
    "journal root extended": ("chain.log", 3, 1, lambda root: root + "00"),
    "journal seq +1": ("chain.log", 2, 0, lambda seq: "+" + seq),
    "journal seq 0_2": ("chain.log", 3, 0, lambda seq: "0_" + seq),
    "journal seq 01": ("chain.log", 2, 0, lambda seq: "0" + seq),
    "journal CRLF ending": ("chain.log", 2, 2, lambda note: note + "\r"),
    "upper-case journal root": ("chain.log", 1, 1, str.upper),
    "index key case flip": ("proofs.idx", 1, 0, _upper_first_letter),
    "index round +0_1": ("proofs.idx", 1, 1, lambda round_str: "+0_" + round_str),
    "upper-case index key": ("proofs.idx", 2, 0, str.upper),
    "upper-case index address": ("proofs.idx", 2, 2, str.upper),
    "index key cut": ("proofs.idx", 1, 0, lambda key: key[:-2]),
    "index key extended": ("proofs.idx", 1, 0, lambda key: key + "00"),
    "index address cut": ("proofs.idx", 1, 2, lambda address: address[:-2]),
    "index address extended": ("proofs.idx", 1, 2, lambda address: address + "00"),
}


@pytest.mark.parametrize("name, number, field, edit", NONCANONICAL_FIELDS.values(),
                         ids=list(NONCANONICAL_FIELDS))
def test_a_field_in_another_form_than_the_writers_is_one_error_line(
    simulated, capsys, name, number, field, edit
):
    path = simulated / name
    lines = path.read_text().split("\n")
    fields = lines[number - 1].split(" ")
    fields[field] = edit(fields[field])
    lines[number - 1] = " ".join(fields)
    path.write_text("\n".join(lines))
    kind = "chain record" if name == "chain.log" else "proof index entry"
    assert run("audit", "ledger-1", "--workdir", simulated) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(f"{name}:{number}: malformed {kind}")


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """The ``simulated`` workdir, made once for the tests that restore what they edit."""
    return simulate_into(tmp_path_factory.mktemp("journaled"))


@st.composite
def mutated(draw, line: bytes) -> bytes:
    """``line`` with one edit: a byte flipped, a field cut or extended, a hex
    letter's case changed, a sign or a leading zero put before a field, or
    a space doubled."""
    kind = draw(st.sampled_from(["flip", "cut", "extend", "case", "prefix", "space"]))
    if kind == "flip":
        at = draw(st.integers(0, len(line) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != line[at]))
        return line[:at] + bytes([byte]) + line[at + 1:]
    if kind == "case":
        at = draw(st.sampled_from([at for at, b in enumerate(line) if b in b"abcdef"]))
        return line[:at] + line[at:at + 1].upper() + line[at + 1:]
    if kind == "space":
        at = draw(st.sampled_from([at for at, b in enumerate(line) if b == 0x20]))
        return line[:at] + b" " + line[at:]
    fields = line.split(b" ")
    i = draw(st.sampled_from([i for i, field in enumerate(fields) if field or kind == "extend"]))
    field = fields[i]
    if kind == "cut":
        n = draw(st.integers(1, len(field)))
        fields[i] = field[n:] if draw(st.booleans()) else field[:-n]
    elif kind == "extend":
        fields[i] = field + bytes(draw(st.lists(st.sampled_from(b"0123456789abcdef"),
                                                min_size=1, max_size=3)))
    else:
        fields[i] = draw(st.sampled_from([b"+", b"-", b"0"])) + field
    return b" ".join(fields)


def decoded_lines(workdir: Path, name: str) -> list[bytes]:
    """The lines of ``name`` as decoding and formatting again make them, one
    per distinct entry; MalformedArtifactError where a line does not decode."""
    if name == "chain.log":
        records = Chain(workdir / name, SHA256.output_len).records()
        return [format_record(record).encode("ascii") for record in records]
    with DirectoryStore(workdir, SHA256) as store:
        return [
            f"{key.hex()} {round_seq} {address.hex()}".encode("ascii")
            for (key, round_seq), address in store._proofs.items()
        ]


ONE_LINE_ERRORS = (
    "malformed chain record",
    "malformed proof index entry",
    "conflicting proof index entry",
    r"record seq \d+ is not its line index \d+",
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_journal_or_index_line_decodes_as_written_or_is_one_error_line(
    journaled, data
):
    """One line of ``chain.log`` or ``proofs.idx`` edited as in ``mutated``:
    the audit prints one ``error:`` line naming the file and line and exits
    1, or, where every line decodes, formatting the decoded fields again
    gives the file's lines back and the audit exits 0, 1 or 2 with no
    traceback."""
    name = data.draw(st.sampled_from(["chain.log", "proofs.idx"]))
    path = journaled / name
    original = path.read_bytes()
    lines = original.split(b"\n")[:-1]
    number = data.draw(st.integers(1, len(lines)))
    lines[number - 1] = data.draw(mutated(lines[number - 1]))
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    try:
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = run("audit", f"ledger-{data.draw(st.integers(0, 5))}", "--workdir", journaled)
        err = err.getvalue()
        try:
            decoded = decoded_lines(journaled, name)
        except MalformedArtifactError as exc:
            assert (code, err) == (1, f"error: {exc}\n")
            assert re.fullmatch(
                rf"error: {re.escape(str(path))}:\d+: ({'|'.join(ONE_LINE_ERRORS)})\n", err
            )
        else:
            assert decoded == list(dict.fromkeys(path.read_bytes().split(b"\n")[:-1]))
            assert code in (0, 1, 2) and not err
    finally:
        path.write_bytes(original)


def test_audit_skips_a_torn_final_chain_line(simulated):
    """An append of round 3's record that stopped before its LF: the audit
    covers the complete rounds 0..2 and passes, and leaves the file as it was."""
    path = simulated / "chain.log"
    lines = path.read_bytes().splitlines(keepends=True)
    torn = b"".join(lines) + b"3 " + lines[-1][2:40]
    path.write_bytes(torn)
    proc = run_in_process("audit", "ledger-1", "--workdir", simulated)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("verdict: pass\n")
    assert path.read_bytes() == torn


def test_audit_skips_a_torn_final_index_line(simulated):
    """A commit whose index write stopped inside its last line: the audit of
    a ledger that line does not name passes, and leaves the file as it was."""
    path = simulated / "proofs.idx"
    torn = path.read_bytes()[:-30]
    path.write_bytes(torn)
    torn_key = torn.splitlines()[-1].split(b" ")[0].decode("ascii")
    ledger = next(
        f"ledger-{i}" for i in range(6) if SHA256.hash(f"ledger-{i}".encode()).hex() != torn_key
    )
    proc = run_in_process("audit", ledger, "--workdir", simulated)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("verdict:") == 1 and proc.stdout.endswith("verdict: pass\n")
    assert path.read_bytes() == torn


@pytest.mark.parametrize("damage", [cut_newest_root, flip_newest_root, flip_first_length],
                         ids=["_cut_newest_root", "_flip_newest_root", "_flip_first_length"])
def test_audit_of_damaged_pack_is_one_classified_line(simulated, damage):
    damage(simulated)
    pack = (simulated / "objects.pack").read_bytes()
    proc = run_in_process("audit", "ledger-1", "--workdir", simulated)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) + proc.stdout.count("verdict: ") == 1
    assert (simulated / "objects.pack").read_bytes() == pack  # an audit never edits


def test_audit_of_empty_chain_is_one_inconclusive_line(simulated):
    (simulated / "chain.log").write_bytes(b"")
    proc = run_in_process("audit", "ledger-1", "--workdir", simulated)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "inconclusive: chain.log is empty; nothing to audit\n"


CONFIG_DAMAGE = {
    "missing file": None,
    "bad JSON": '{"hash": "sha256", "k": 1, ',
    "missing key": '{"hash": "sha256", "r": 2}',
    "unknown hash": '{"hash": "md5", "k": 1, "r": 2}',
    "invalid r": '{"hash": "sha256", "k": 1, "r": 3}',
    "float k": '{"hash": "sha256", "k": 2.5, "r": 2}',
    "integral float k": '{"hash": "sha256", "k": 2.0, "r": 2}',
    "bool k": '{"hash": "sha256", "k": true, "r": 2}',
    "deeply nested": "[" * 100_000,
    # each decodes to the simulated run's own parameters, in another form
    "hash named SHA-256": '{"hash": "SHA-256", "k": 1, "r": 2}\n',
    "extra key": '{"hash": "sha256", "k": 1, "r": 2, "x": 0}\n',
    "keys reordered": '{"r": 2, "k": 1, "hash": "sha256"}\n',
    "other spacing": '{"hash":"sha256","k":1,"r":2}\n',
}


@pytest.mark.parametrize("command", ["audit", "prove"])
@pytest.mark.parametrize("damage", sorted(CONFIG_DAMAGE))
def test_malformed_config_is_one_error_line(simulated, tmp_path, command, damage):
    config = simulated / "config.json"
    if CONFIG_DAMAGE[damage] is None:
        config.unlink()
    else:
        config.write_text(CONFIG_DAMAGE[damage])
    argv = [command, "ledger-1"] + (["--out", tmp_path / "l1.proof"] if command == "prove" else [])
    chain = (simulated / "chain.log").read_bytes()
    proc = run_in_process(*argv, "--workdir", simulated)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: config.json: ") and proc.stderr.count("\n") == 1
    assert (simulated / "chain.log").read_bytes() == chain


def test_trie_params_come_from_config_only(tmp_path):
    workdir = tmp_path / "run"
    assert run("simulate", "--workdir", workdir, "--ledgers", 6, "--rounds", 3,
               "--seed", 3, "--r", 4, "--k", 2) == 0
    assert run("audit", "ledger-3", "--workdir", workdir) == 0
    for command in (["audit", "ledger-3"], ["prove", "ledger-3", "--out", tmp_path / "p"]):
        with pytest.raises(SystemExit):  # argparse rejects the flag
            run(*command, "--workdir", workdir, "--r", 2, "--k", 1)
    assert run("audit", "ledger-3", "--workdir", workdir) == 0


def _replace_line(index: int, text: bytes):
    def damage(path: Path) -> None:
        lines = path.read_bytes().splitlines()
        lines[index] = text
        path.write_bytes(b"\n".join(lines) + b"\n")
    return damage


def _drop_header_field(name: bytes):
    def damage(path: Path) -> None:
        lines = path.read_bytes().splitlines()
        lines[0] = b" ".join(p for p in lines[0].split(b" ") if not p.startswith(name + b"="))
        path.write_bytes(b"\n".join(lines) + b"\n")
    return damage


def _replace_with_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("damage", [
    _replace_line(1, b"not-hex"),
    _replace_line(0, b"no ledger header here"),
    _replace_line(1, "caf\u00e9".encode()),
    _drop_header_field(b"alg"),
    _drop_header_field(b"enc"),
    _drop_header_field(b"id"),
    _replace_with_directory,
], ids=["bad hex line", "bad header", "non-ASCII", "no alg=", "no enc=", "no id=", "directory"])
def test_unreadable_disclosed_data_is_inconclusive(simulated, damage, capsys):
    damage(simulated / "ledgers" / f"{b'ledger-1'.hex()}.ledger")
    assert run("audit", "ledger-1", "--workdir", simulated) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "inconclusive: disclosed data for ledger id 'ledger-1' is unreadable ("
    )
    assert captured.err.count("\n") == 1


def test_disclosed_data_in_another_algorithm_is_inconclusive(simulated):
    export = simulated / "ledgers" / f"{b'ledger-1'.hex()}.ledger"
    export.write_bytes(export.read_bytes().replace(b"alg=sha256", b"alg=sha512", 1))
    proc = run_in_process("audit", "ledger-1", "--workdir", simulated)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "inconclusive: disclosed data for ledger id 'ledger-1' uses sha512, "
        "config.json says sha256\n"
    )


def _upper_payloads(content: bytes) -> bytes:
    header, payloads = content.split(b"\n", 1)
    return header + b"\n" + payloads.upper()


def _in_base64(content: bytes) -> bytes:
    header, *payloads = content.split(b"\n")[:-1]
    lines = [header.replace(b"enc=hex", b"enc=base64", 1)]
    lines += [base64.b64encode(bytes.fromhex(line.decode())) for line in payloads]
    return b"".join(line + b"\n" for line in lines)


# each edit of ledger-1's export, and the start of the audit's reason
EXPORT_EDITS = {
    # ledger-2's id: a readable export, of another ledger
    "another id": (lambda content: content.replace(b"d31\n", b"d32\n", 1),
                   "is the export of id 6c65646765722d32"),
    "enc= twice": (lambda content: content.replace(b"enc=hex", b"enc=hex enc=hex", 1),
                   "is unreadable"),
    "upper-case id": (lambda content: content.replace(b"d31\n", b"D31\n", 1), "is unreadable"),
    "upper-case payloads": (_upper_payloads, "is unreadable"),
    "in base64": (_in_base64, "is unreadable"),
}


@pytest.mark.parametrize("edit, reason", EXPORT_EDITS.values(), ids=list(EXPORT_EDITS))
def test_an_export_in_another_form_or_of_another_id_is_inconclusive(
    simulated, capsys, edit, reason
):
    export = simulated / "ledgers" / f"{b'ledger-1'.hex()}.ledger"
    content = export.read_bytes()
    export.write_bytes(edit(content))
    assert export.read_bytes() != content
    assert run("audit", "ledger-1", "--workdir", simulated) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"inconclusive: disclosed data for ledger id 'ledger-1' {reason}"
    )


@st.composite
def mutated_export(draw, exports: list[bytes]) -> tuple[int, bytes]:
    """The index of one of ``exports`` and that export with one line edited:
    a byte flipped, the line cut or extended, doubled, or replaced by a line
    of any export."""
    which = draw(st.integers(0, len(exports) - 1))
    lines = exports[which].split(b"\n")[:-1]
    number = draw(st.integers(0, len(lines) - 1))
    line = lines[number]
    kind = draw(st.sampled_from(["flip", "cut", "extend", "duplicate", "splice"]))
    if kind == "flip" and line:
        at = draw(st.integers(0, len(line) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != line[at]))
        lines[number] = line[:at] + bytes([byte]) + line[at + 1:]
    elif kind == "cut" and line:
        n = draw(st.integers(1, len(line)))
        lines[number] = line[n:] if draw(st.booleans()) else line[:-n]
    elif kind == "extend":
        tail = st.sampled_from(b"0123456789abcdefABCDEF =\r")
        lines[number] = line + bytes(draw(st.lists(tail, min_size=1, max_size=3)))
    elif kind == "duplicate":
        lines.insert(number, line)
    else:
        lines[number] = draw(st.sampled_from(draw(st.sampled_from(exports)).split(b"\n")[:-1]))
    return which, b"".join(line + b"\n" for line in lines)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_export_audits_clean_only_as_a_prefix_of_its_ledger(journaled, data):
    """One line of a ledger export edited as in ``mutated_export``: the audit
    exits 0, 1 or 2 with no traceback, and exits 0 only when the export
    still decodes to the audited id and to a prefix of the payloads it held."""
    ids = [f"ledger-{i}".encode() for i in range(6)]
    paths = [journaled / "ledgers" / f"{ledger_id.hex()}.ledger" for ledger_id in ids]
    exports = [path.read_bytes() for path in paths]
    originals = [trienotary.read_ledger(path) for path in paths]
    which, content = data.draw(mutated_export(exports))
    paths[which].write_bytes(content)
    try:
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            code = run("audit", ids[which].decode(), "--workdir", journaled)
        assert code in (0, 1, 2)
        if code == 0:
            loaded = trienotary.read_ledger(paths[which])
            assert loaded.id == ids[which]
            assert loaded.blocks == originals[which].blocks[:len(loaded)]
    finally:
        paths[which].write_bytes(exports[which])


@pytest.mark.parametrize("argv", [
    ["prove", "ledger-1", "--workdir", "{workdir}", "--out", "{dir}"],
    ["bench", "--ledgers", "4", "--out", "{dir}"],
    ["simulate", "--ledgers", "2", "--workdir", "{file}"],
], ids=["prove --out dir", "bench --out dir", "simulate --workdir file"])
def test_os_errors_are_one_error_line(simulated, tmp_path, argv):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_bytes(b"")
    where = {"workdir": simulated, "dir": tmp_path / "a-dir", "file": tmp_path / "a-file"}
    proc = run_in_process(*(arg.format(**where) for arg in argv))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("out, errno", [("a-dir", 21), ("missing/l1.proof", 2)],
                         ids=["directory", "missing parent"])
def test_prove_checks_out_before_the_audit(simulated, tmp_path, capsys, out, errno):
    (tmp_path / "a-dir").mkdir()
    (simulated / "objects.pack").unlink()  # the audit would fail as well
    assert run("prove", "ledger-1", "--workdir", simulated, "--out", tmp_path / out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: [Errno {errno}] ")
    assert captured.err.count("\n") == 1


def test_prove_without_a_bundle_leaves_out_as_it_was(simulated, tmp_path, capsys):
    (simulated / "objects.pack").unlink()
    new, existing = tmp_path / "new.proof", tmp_path / "existing.proof"
    existing.write_bytes(b"kept")
    for out in (new, existing):
        assert run("prove", "ledger-1", "--workdir", simulated, "--out", out) == 1
        assert capsys.readouterr().err.startswith(
            "error: public storage is missing data needed for the bundle"
        )
    assert not new.exists()
    assert existing.read_bytes() == b"kept"


def test_prove_replaces_an_existing_out_file(simulated, tmp_path):
    fresh, reused = tmp_path / "fresh.proof", tmp_path / "reused.proof"
    reused.write_bytes(b"x" * 100_000)  # longer than the bundle
    for out in (fresh, reused):
        assert run("prove", "ledger-1", "--workdir", simulated, "--out", out) == 0
    assert reused.read_bytes() == fresh.read_bytes()


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


@pytest.mark.parametrize("args,digest", [
    (
        ["--r", "2,4,16", "--k", "1,3,8", "--ledgers", "500,3000", "--seed", "9"],
        "bd6981d6b2dcba84f5aa0adc7835c703f61d2767ed6e801986fb45dc06ed2d53",
    ),
    (
        ["--hash", "sha512", "--r", "2,256", "--k", "1,4", "--ledgers", "700", "--seed", "3"],
        "f4f20813359001d5f9d65dfbee4804869f059c78905b124a68c12da3f8860313",
    ),
], ids=["sha256", "sha512"])
def test_bench_output_is_pinned(args, digest):
    code, out = run_captured("bench", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bench_single_ledger_row():
    out = io.StringIO()
    run_bench([2], [1], [1], 0, SHA256, out)
    row = out.getvalue().splitlines()[1].split(",")
    # one node, unit path lengths
    assert row[3] == "1"
    assert row[4] == row[5] == "1"
    assert float(row[6]) == 1.0


def test_bench_builds_each_key_sets_shared_prefixes_once(monkeypatch):
    # the array depends on the keys only, not on the (r, k) cell
    calls, original = [], structure._shared_prefix_bits

    def counted(arr):
        calls.append(len(arr))
        return original(arr)

    monkeypatch.setattr(structure, "_shared_prefix_bits", counted)
    run_bench([2, 4], [1, 2], [16, 64], 0, SHA256, io.StringIO())
    assert sorted(calls) == [16, 64]


def test_workdir_from_environment(tmp_path, monkeypatch):
    workdir = tmp_path / "envrun"
    monkeypatch.setenv("NOTARY_WORKDIR", str(workdir))
    assert run("simulate", "--ledgers", 2, "--rounds", 1, "--seed", 1) == 0
    assert run("audit", "ledger-0") == 0


def test_missing_workdir_is_an_error(tmp_path):
    assert run("audit", "ledger-0", "--workdir", tmp_path / "nowhere") == 1


def test_print_chain_without_journal_is_an_error(tmp_path, capsys):
    assert run("print-chain", "--workdir", tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no chain.log under {tmp_path}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--r", "3"], 1, "arity must be a power of two in [2, 256], got 3"),
    (["simulate", "--r", "512"], 1, "arity must be a power of two in [2, 256], got 512"),
    (["simulate", "--k", "0"], 1, "k must be in [1, 256], got 0"),
    (["simulate", "--k", "257"], 1, "k must be in [1, 256], got 257"),
    (["bench", "--r", "2,3"], 1, "arity must be a power of two in [2, 256], got 3"),
    (["bench", "--k", "0"], 1, "k must be in [1, 256], got 0"),
    (["bench", "--r", "x"], 2, "not a comma-separated integer list: 'x'"),
    (["bench", "--k", "1,y"], 2, "not a comma-separated integer list: '1,y'"),
    (["bench", "--ledgers", "10,"], 2, "not a comma-separated integer list: '10,'"),
    (["simulate", "--ledgers", "0"], 1, "ledger count must be at least 1, got 0"),
    (["bench", "--ledgers", "0"], 1, "ledger count must be at least 1, got 0"),
    (["bench", "--ledgers", "5,-1"], 1, "ledger count must be at least 1, got -1"),
    (["simulate", "--rounds", "0"], 1, "round count must be at least 1, got 0"),
    (["simulate", "--append-rate", "-1"], 1, "append rate must be finite and >= 0, got -1.0"),
    (["simulate", "--append-rate", "nan"], 1, "append rate must be finite and >= 0, got nan"),
    (["simulate", "--append-rate", "inf"], 1, "append rate must be finite and >= 0, got inf"),
])
def test_invalid_trie_parameters_are_one_error(tmp_path, argv, code, message):
    workdir, out = tmp_path / "run", tmp_path / "bench.csv"
    where = ["--workdir", workdir] if argv[0] == "simulate" else ["--out", out]
    proc = run_in_process(*argv, *where)
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.rstrip().endswith(message)
    if code == 1:
        assert proc.stderr == f"error: {message}\n"
    assert not workdir.exists() and not out.exists()


def test_hash_choices_are_the_registry():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for command in ("simulate", "bench"):
        (action,) = [a for a in commands[command]._actions if a.dest == "hash"]
        assert tuple(action.choices) == ALGORITHM_NAMES == ("sha256", "sha512")


# each subcommand's option strings, in build_parser()'s order; a new option
# is added here on purpose
OPTIONS = {
    "simulate": "--workdir --hash --r --k --ledgers --rounds --append-rate --seed --force",
    "bench": "--r --k --ledgers --seed --hash --out",
    "audit": "--workdir",
    "prove": "--workdir --out --round",
    "verify": "--proof --workdir",
    "print-chain": "--workdir",
}


def test_each_subcommand_has_exactly_its_pinned_options():
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {
        name: " ".join(
            option for action in command._actions for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, command in commands.items()
    }
    assert options == OPTIONS


def test_simulate_has_no_export_encoding_option(tmp_path):
    workdir = tmp_path / "run"
    proc = run_in_process("simulate", "--workdir", workdir, "--enc", "hex")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.rstrip().endswith("unrecognized arguments: --enc hex")
    assert not workdir.exists()
