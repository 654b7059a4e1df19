"""The workdir opener: one writer at a time, lock-free readers, a lazy
store, one close, and the layout named in one module."""

from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from adversary import tamper
import trienotary
from trienotary.cli import main
from trienotary.crypto import SHA256
from trienotary.errors import WorkdirBusyError, WorkdirExistsError
from trienotary.trie import TrieParams
from trienotary.workdir import Workdir

SRC = Path(trienotary.__file__).resolve().parents[1]
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)
COMMITTED = ("chain.log", "objects.pack", "proofs.idx")


def run(*argv) -> int:
    return main([str(a) for a in argv])


def snapshot(workdir: Path) -> dict[str, bytes]:
    return {name: (workdir / name).read_bytes() for name in COMMITTED}


@pytest.fixture
def simulated(tmp_path):
    workdir = tmp_path / "run"
    assert run("simulate", "--workdir", workdir, "--ledgers", 6, "--rounds", 3, "--seed", 11) == 0
    return workdir


# ------------------------------------------------------------- one writer

def test_a_second_writer_in_this_process_is_refused(simulated):
    before = snapshot(simulated)
    with Workdir.open(simulated, write=True):
        with pytest.raises(WorkdirBusyError) as raised:
            Workdir.open(simulated, write=True)
        assert str(raised.value) == f"{simulated} is already open for writing"
        with pytest.raises(WorkdirBusyError):
            Workdir.create(simulated, TrieParams(2, 1, SHA256), replace=True)
    assert snapshot(simulated) == before
    with Workdir.open(simulated, write=True):  # the lock went with the close
        pass


def test_two_writers_cannot_lose_a_committed_record(simulated):
    """Two ``DirectoryStore``s on one directory: A commits, then B does, and
    B's append cuts A's record as a torn tail. Through ``Workdir`` B is
    refused at open, and A's record is there after reopening."""
    with Workdir.open(simulated, write=True) as a:
        address = a.store.put(b"written by A")
        a.store.commit()
        with pytest.raises(WorkdirBusyError):
            Workdir.open(simulated, write=True)
    with Workdir.open(simulated) as reader:
        assert reader.store.get(address) == b"written by A"


def test_close_releases_the_lock_when_the_commit_fails(simulated, monkeypatch):
    workdir = Workdir.open(simulated, write=True)
    workdir.store.put(b"queued")

    def fail():
        raise OSError("disk full")

    monkeypatch.setattr(workdir.store, "commit", fail)
    with pytest.raises(OSError, match="disk full"):
        workdir.close()
    with Workdir.open(simulated, write=True):
        pass


def test_create_refuses_an_existing_workdir_unless_replacing(simulated):
    before = snapshot(simulated)
    with pytest.raises(WorkdirExistsError):
        Workdir.create(simulated, TrieParams(4, 2, SHA256))
    assert snapshot(simulated) == before
    with Workdir.create(simulated, TrieParams(4, 2, SHA256), replace=True) as workdir:
        assert workdir.chain.height == 0 and workdir.params == TrieParams(4, 2, SHA256)
        assert sorted(p.name for p in simulated.iterdir()) == ["config.json", "ledgers"]
    with pytest.raises(WorkdirExistsError):  # config.json and ledgers/ are left
        Workdir.create(simulated, TrieParams(2, 1, SHA256))


def test_a_forced_rerun_drops_a_pack_left_without_its_journal(simulated, tmp_path):
    # without the journal, the old pack and index used to be read into the
    # new run, whose first repeated proof slot then conflicted
    (simulated / "chain.log").unlink()
    stale = {name: (simulated / name).read_bytes() for name in COMMITTED[1:]}
    rerun = ["--ledgers", 3, "--rounds", 2, "--seed", 5]
    assert run("simulate", "--workdir", simulated, *rerun) == 1
    assert not (simulated / "chain.log").exists()
    assert {name: (simulated / name).read_bytes() for name in COMMITTED[1:]} == stale
    assert run("simulate", "--workdir", simulated, "--force", *rerun) == 0
    assert run("simulate", "--workdir", tmp_path / "fresh", *rerun) == 0
    assert snapshot(simulated) == snapshot(tmp_path / "fresh")


def test_an_unclosed_workdir_warns(simulated):
    # the handle smoke test below relies on this warning to see a leaked lock
    workdir = Workdir.open(simulated, write=True)
    with pytest.warns(ResourceWarning, match="unclosed workdir"):
        del workdir
        gc.collect()
    with Workdir.open(simulated, write=True):  # the finalizer let the lock go
        pass


HOLDER = """
import sys
from trienotary.workdir import Workdir

with Workdir.open(sys.argv[1], write=True) as workdir:
    print("holding", flush=True)
    sys.stdin.readline()
    workdir.store.put(b"committed after the refusal")
"""


@contextmanager
def held_by_a_child(workdir: Path):
    """A child process holding ``workdir`` for writing until told to
    commit one record and exit; it is ended however the block ends."""
    with subprocess.Popen(
        [sys.executable, "-c", HOLDER, str(workdir)], env=ENV, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        try:
            assert child.stdout.readline() == "holding\n", child.stderr.read()

            def release() -> None:
                child.stdin.write("\n")
                child.stdin.close()
                assert child.wait(timeout=60) == 0, child.stderr.read()

            yield release
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()


@pytest.mark.parametrize("writer", ["tamper", "simulate --force"])
def test_a_writer_in_another_process_is_refused(simulated, tmp_path, capsys, writer):
    before = snapshot(simulated)
    with held_by_a_child(simulated) as release:
        if writer == "tamper":  # the adversary opens the workdir for writing too
            with pytest.raises(WorkdirBusyError, match="is already open for writing"):
                tamper(simulated, "corrupt-node", b"ledger-1")
        else:
            capsys.readouterr()
            assert run("simulate", "--force", "--ledgers", 2, "--rounds", 1,
                       "--workdir", simulated) == 1
            assert capsys.readouterr() == ("", f"error: {simulated} is already open for writing\n")
        assert snapshot(simulated) == before
        # readers take no lock
        proof = tmp_path / "l1.proof"
        for reader in (["audit", "ledger-1"], ["prove", "ledger-1", "--out", proof],
                       ["verify", "ledger-1", "--proof", proof], ["print-chain"]):
            assert run(*reader, "--workdir", simulated) == 0
        release()
    with Workdir.open(simulated) as workdir:
        address = SHA256.hash(b"committed after the refusal")
        assert workdir.store.get(address) == b"committed after the refusal"


# ------------------------------------------------------------- lazy store

def test_verify_and_print_chain_never_read_the_store(simulated, tmp_path, capsys):
    proof = tmp_path / "l2.proof"
    assert run("prove", "ledger-2", "--workdir", simulated, "--out", proof) == 0
    (simulated / "objects.pack").unlink()
    (simulated / "objects.pack").mkdir()  # opening the store would fail
    assert run("audit", "ledger-2", "--workdir", simulated) == 1
    capsys.readouterr()
    assert run("verify", "ledger-2", "--proof", proof, "--workdir", simulated) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert run("print-chain", "--workdir", simulated) == 0
    assert capsys.readouterr().out == (simulated / "chain.log").read_text()


# ------------------------------------------------------- leaked handles

def test_no_command_leaks_a_handle(tmp_path):
    """Each command in a child under ``-X dev -W error::ResourceWarning``:
    an unclosed file, store or workdir lock warns at exit, outside the
    reach of pytest's own warning filter. The last audit reads a pack the
    adversary damaged."""
    workdir, proof = tmp_path / "run", tmp_path / "l1.proof"

    def child(argv: list[str], code: int) -> None:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "trienotary.cli", *map(str, [*argv, "--workdir", workdir])],
            capture_output=True, text=True, env=ENV, timeout=120, check=False,
        )
        assert (proc.returncode, proc.stderr) == (code, ""), argv

    for argv in (["simulate", "--ledgers", "4", "--rounds", "2"], ["audit", "ledger-1"],
                 ["prove", "ledger-1", "--out", proof], ["verify", "ledger-1", "--proof", proof],
                 ["print-chain"]):
        child(argv, 0)
    tamper(workdir, "corrupt-proof", b"ledger-1")
    child(["audit", "ledger-1"], 2)


# --------------------------------------------------------- one layout module

def test_only_the_workdir_module_names_the_layout():
    names = re.compile(r"""["'](chain\.log|config\.json|ledgers)["']""")
    for path in sorted((SRC / "trienotary").glob("*.py")):
        found = names.findall(path.read_text())
        assert bool(found) == (path.name == "workdir.py"), (path.name, found)
    cli = (SRC / "trienotary" / "cli.py").read_text()
    assert "DirectoryStore(" not in cli and "Chain(" not in cli


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file or opens one for writing: a path's
    ``write_text``, ``write_bytes`` or ``touch``, ``pwrite``, ``os.open``
    with a write flag, or ``open`` in a write mode (or a mode that is not
    a literal)."""
    func = ast.unparse(call.func)
    if func == "os.open":
        return bool(re.search(r"O_(WRONLY|RDWR|APPEND|CREAT|TRUNC)", ast.unparse(call.args[1])))
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return func.rsplit(".", 1)[-1] in ("write_text", "write_bytes", "touch", "pwrite") or (
        func == "open" and any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+")
                               for m in modes)
    )


def write_sites(node: ast.AST, scope: str) -> set[str]:
    """The qualified name of each function of ``node``'s that writes a file;
    ``scope`` is the name of ``node``."""
    sites = {scope} if isinstance(node, ast.Call) and _writes(node) else set()
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        sites |= write_sites(child, f"{scope}.{child.name}" if named else scope)
    return sites


def test_the_package_writes_files_only_at_the_known_sites():
    """Every write site of the package, found by a scan of its source: the
    append of a round's bytes, the ``proofs.idx`` made beside the first pack
    write, ``config.json`` at creation, a ledger export, and the two files a
    caller names with ``--out``."""
    sites = set()
    for path in sorted((SRC / "trienotary").glob("*.py")):
        sites |= write_sites(ast.parse(path.read_text()), path.stem)
    assert sites == {"store._append", "store.DirectoryStore._write_pack", "workdir.Workdir.create",
                     "merkle.write_ledger", "cli._cmd_bench", "cli._cmd_prove"}


def test_importing_the_package_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, trienotary, trienotary.cli; assert 'numpy' not in sys.modules; "
         "trienotary.measure_keys; assert 'numpy' in sys.modules"],
        capture_output=True, text=True, env=ENV, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
