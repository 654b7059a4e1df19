"""Command-line driver: simulation, notarization artifacts, audits, benchmarks.

A working directory holds one deployment's public artifacts:

    chain.log     append-only journal of notarization records
    objects.pack  content-addressed storage (trie nodes, proofs), one
                  append-only record file
    proofs.idx    (ledger key, round) -> proof address index
    ledgers/      ledger exports (the data a producer would disclose)
    config.json   hash algorithm and trie parameters, written by ``simulate``;
                  ``audit``, ``prove``, ``verify`` and ``tamper`` take them
                  from here only

One process writes a workdir at a time (``simulate``, ``tamper``); see
``trienotary.store`` for the pack format and its torn-tail rule.

``audit`` and ``verify`` exit 0 when every check passes, 1 when a check
proves a violation, and 2 when storage gaps leave the audit inconclusive.
``tamper`` is a test hook simulating an attacker who edits the public
artifacts after the fact; ``trienotary.faults`` is the one implementation
of its five fault kinds, shared with the test harness and the demos.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from .audit import (
    AuditReport,
    audit_ledger,
    decode_audit_proof,
    encode_audit_proof,
    make_audit_proof,
    verify_audit_proof,
)
from .chain import Chain, format_record
from .crypto import ALGORITHM_NAMES, HashAlg, algorithm
from .errors import CannotConstructError, MalformedArtifactError, TrienotaryError
from .faults import KINDS, inject
from .merkle import Ledger, read_ledger, write_ledger
from .notary import NotaryState, notarize_round
from .store import PACK_NAME, PROOF_INDEX_NAME, DirectoryStore, ObjectStore
from .structure import keys_to_array, measure_keys
from .trie import TrieParams

CSV_HEADER = "r,k,ledgers,nodes,path_min,path_max,path_avg,total_bytes,total_paper_bits,path_avg_bytes"

CONFIG_NAME = "config.json"
CHAIN_NAME = "chain.log"
LEDGER_DIR_NAME = "ledgers"


# ----------------------------------------------------------------- workdir

def _write_config(workdir: Path, params: TrieParams) -> None:
    config = {"hash": params.alg.name, "r": params.r, "k": params.k}
    (workdir / CONFIG_NAME).write_text(json.dumps(config, sort_keys=True) + "\n")


def _load_params(workdir: Path) -> TrieParams:
    """The workdir's trie parameters, read from its config.json only."""
    try:
        config = json.loads((workdir / CONFIG_NAME).read_text(encoding="ascii"))
        return TrieParams(config["r"], config["k"], algorithm(config["hash"]))
    except KeyError as exc:
        raise MalformedArtifactError(f"{CONFIG_NAME}: missing key {exc}") from None
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedArtifactError(f"{CONFIG_NAME}: {exc}") from None


def _ledger_path(workdir: Path, ledger_id: bytes) -> Path:
    return workdir / LEDGER_DIR_NAME / f"{ledger_id.hex()}.ledger"


def _open_chain(workdir: Path) -> Chain:
    if not (workdir / CHAIN_NAME).exists():
        raise FileNotFoundError(f"no {CHAIN_NAME} under {workdir}")
    return Chain(workdir / CHAIN_NAME)


def _open_workdir(args) -> tuple[Path, TrieParams, Chain]:
    workdir = Path(args.workdir)
    chain = _open_chain(workdir)
    return workdir, _load_params(workdir), chain


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _check_counts(what: str, counts) -> None:
    if min(counts) < 1:
        raise ValueError(f"{what} count must be at least 1, got {min(counts)}")


def _describe(params: TrieParams) -> str:
    return f"r={params.r}, k={params.k}, {params.alg.name}"


# ---------------------------------------------------------------- simulate

def run_simulation(
    n_ledgers: int,
    rounds: int,
    append_rate: float,
    seed: int,
    params: TrieParams,
    store: ObjectStore,
    chain: Chain,
) -> tuple[NotaryState, dict[bytes, Ledger]]:
    """Seeded end-to-end run: create ledgers, append between rounds, notarize.

    ``append_rate`` is blocks appended per ledger per round: the integer
    part always, the fractional part as a seeded coin flip, so rate 0
    appends nothing and rate 1 appends exactly one block.
    """
    rng = random.Random(seed)
    alg = params.alg
    ledgers = {
        f"ledger-{i}".encode(): Ledger.from_payloads(
            f"ledger-{i}".encode(), [rng.randbytes(32)], alg
        )
        for i in range(n_ledgers)
    }
    state = NotaryState(params)
    whole, fraction = int(append_rate), append_rate - int(append_rate)
    for round_seq in range(rounds):
        if round_seq > 0:
            for lid in ledgers:
                count = whole + (1 if fraction and rng.random() < fraction else 0)
                for _ in range(count):
                    ledgers[lid] = ledgers[lid].append(rng.randbytes(32))
        state, _ = notarize_round(state, dict(ledgers), store, chain)
    return state, ledgers


def _cmd_simulate(args) -> int:
    try:
        params = TrieParams(args.r, args.k, algorithm(args.hash))
        _check_counts("ledger", [args.ledgers])
        _check_counts("round", [args.rounds])
        if not 0 <= args.append_rate < math.inf:  # nan fails every comparison
            raise ValueError(f"append rate must be finite and >= 0, got {args.append_rate}")
    except ValueError as exc:
        return _error(exc)
    workdir = Path(args.workdir)
    if (workdir / CHAIN_NAME).exists():
        if not args.force:
            return _error(f"{workdir} already holds a simulation (use --force)")
        import shutil

        for name in (CHAIN_NAME, PACK_NAME, PROOF_INDEX_NAME, CONFIG_NAME):
            (workdir / name).unlink(missing_ok=True)
        shutil.rmtree(workdir / LEDGER_DIR_NAME, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    _write_config(workdir, params)
    chain = Chain(workdir / CHAIN_NAME)
    with DirectoryStore(workdir, params.alg) as store:
        _, ledgers = run_simulation(
            args.ledgers, args.rounds, args.append_rate, args.seed, params, store, chain
        )
    (workdir / LEDGER_DIR_NAME).mkdir(exist_ok=True)
    for lid, ledger in ledgers.items():
        write_ledger(ledger, _ledger_path(workdir, lid), args.enc)
    print(
        f"simulated {args.ledgers} ledgers over {args.rounds} rounds "
        f"({_describe(params)}) in {workdir}"
    )
    return 0


# ------------------------------------------------------------------- bench

def run_bench(r_values, k_values, n_values, seed: int, alg: HashAlg, out) -> None:
    """Parameter sweep: one CSV row of trie measurements per (r, k, n) cell."""
    print(CSV_HEADER, file=out)
    key_cache: dict[int, object] = {}
    for n in n_values:
        rng = random.Random(seed)
        ids = [f"ledger-{i}" for i in range(n)]
        rng.shuffle(ids)
        key_cache[n] = keys_to_array(
            [alg.hash(ledger_id.encode()) for ledger_id in ids], alg.output_len
        )
    for r in r_values:
        for k in k_values:
            for n in n_values:
                m = measure_keys(TrieParams(r, k, alg), key_cache[n])
                print(
                    f"{r},{k},{n},{m.nodes_count},{m.path_len_min},{m.path_len_max},"
                    f"{m.path_len_avg:.4f},{m.total_size_bytes},{m.total_size_paper_bits},"
                    f"{m.avg_path_size_bytes:.2f}",
                    file=out,
                )


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _cmd_bench(args) -> int:
    alg = algorithm(args.hash)
    try:
        for r in args.r_list:
            for k in args.k_list:
                TrieParams(r, k, alg)  # every cell is checked before any output
        _check_counts("ledger", args.ledgers)
    except ValueError as exc:
        return _error(exc)
    if args.out == "-":
        run_bench(args.r_list, args.k_list, args.ledgers, args.seed, alg, sys.stdout)
    else:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            run_bench(args.r_list, args.k_list, args.ledgers, args.seed, alg, fh)
    return 0


# ------------------------------------------------------------ audit family

def _print_report(report: AuditReport) -> None:
    for name, check in report.checks().items():
        print(f"{name}: {check}")
    if report.uncovered_rounds:
        first, last = report.uncovered_rounds[0], report.uncovered_rounds[-1]
        print(f"not covered: rounds {first}..{last} (published after proof creation)")
    print(f"verdict: {report.verdict.value}")


def _inconclusive(reason: str) -> int:
    print(f"inconclusive: {reason}", file=sys.stderr)
    return 2


def _cmd_audit(args) -> int:
    workdir, params, chain = _open_workdir(args)
    ledger_id = args.id.encode()
    ledger_file = _ledger_path(workdir, ledger_id)
    if not ledger_file.exists():
        return _inconclusive(f"no disclosed data for ledger id {args.id!r}")
    roots = chain.read_roots()
    if not roots:
        return _inconclusive(f"{CHAIN_NAME} is empty; nothing to audit")
    try:
        claimed = read_ledger(ledger_file)
    except ValueError as exc:
        return _inconclusive(f"disclosed data for ledger id {args.id!r} is unreadable ({exc})")
    if claimed.alg != params.alg:
        return _inconclusive(
            f"disclosed data for ledger id {args.id!r} uses {claimed.alg.name}, "
            f"{CONFIG_NAME} says {params.alg.name}"
        )
    with DirectoryStore(workdir, params.alg) as store:
        report = audit_ledger(ledger_id, claimed, roots, store, params)
    _print_report(report)
    return report.exit_code


def _cmd_prove(args) -> int:
    workdir, params, chain = _open_workdir(args)
    ledger_id = args.id.encode()
    up_to = chain.height - 1 if args.round is None else args.round
    try:
        with DirectoryStore(workdir, params.alg) as store:
            proof = make_audit_proof(ledger_id, up_to, chain.read_roots(), store, params)
    except (CannotConstructError, ValueError) as exc:
        return _error(exc)
    blob = encode_audit_proof(proof)
    Path(args.out).write_bytes(blob)
    print(f"wrote audit proof for rounds 0..{up_to} ({len(blob)} bytes) to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    _, params, chain = _open_workdir(args)
    try:
        proof = decode_audit_proof(Path(args.proof).read_bytes())
    except (OSError, ValueError) as exc:
        return _inconclusive(f"unreadable audit proof ({exc})")
    if proof.params != params:
        return _error(
            f"audit proof parameters ({_describe(proof.params)}) "
            f"differ from {CONFIG_NAME} ({_describe(params)})"
        )
    report = verify_audit_proof(proof, args.id.encode(), chain.read_roots())
    _print_report(report)
    return report.exit_code


def _cmd_print_chain(args) -> int:
    for record in _open_chain(Path(args.workdir)).records():
        print(format_record(record))
    return 0


# ------------------------------------------------------------------ tamper

def _cmd_tamper(args) -> int:
    workdir, params, chain = _open_workdir(args)
    ledger_id = args.id.encode() if args.id else None
    records = chain.records()
    with DirectoryStore(workdir, params.alg) as store:
        tampered = inject(args.kind, params, store, records, ledger_id, random.Random(args.seed))
    if tampered != records:
        lines = [format_record(record) for record in tampered]
        (workdir / CHAIN_NAME).write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"injected fault: {args.kind}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trienotary",
        description="Notarize many append-only ledgers under one chained trie digest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workdir(p):
        p.add_argument(
            "--workdir",
            default=os.environ.get("NOTARY_WORKDIR"),
            required=os.environ.get("NOTARY_WORKDIR") is None,
            help="deployment directory (default: $NOTARY_WORKDIR)",
        )

    p = sub.add_parser("simulate", help="seeded end-to-end notarization run")
    add_workdir(p)
    p.add_argument("--hash", choices=ALGORITHM_NAMES, default="sha256")
    p.add_argument("--r", type=int, default=2, help="trie arity (power of two)")
    p.add_argument("--k", type=int, default=1, help="max tuples per leaf")
    p.add_argument("--ledgers", type=int, default=10)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--append-rate", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enc", choices=["hex", "base64"], default="hex")
    p.add_argument("--force", action="store_true", help="overwrite an existing run")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="trie size/depth sweep, CSV output")
    p.add_argument("--r", dest="r_list", type=_int_list, default="2,4,8",
                   help="comma-separated arities")
    p.add_argument("--k", dest="k_list", type=_int_list, default="1,2,4,8",
                   help="comma-separated leaf capacities")
    p.add_argument("--ledgers", type=_int_list, default="100000",
                   help="comma-separated ledger counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hash", choices=ALGORITHM_NAMES, default="sha256")
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("audit", help="audit one ledger against chain + storage")
    p.add_argument("id", help="ledger id")
    add_workdir(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("prove", help="write a self-contained audit proof")
    p.add_argument("id")
    add_workdir(p)
    p.add_argument("--out", required=True)
    p.add_argument("--round", type=int, default=None, help="last covered round (default: latest)")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", help="verify an audit proof offline")
    p.add_argument("id")
    p.add_argument("--proof", required=True)
    add_workdir(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tamper", help="test hook: corrupt public artifacts")
    add_workdir(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=KINDS,
    )
    p.add_argument("--id", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tamper)

    p = sub.add_parser("print-chain", help="print the notarization journal")
    add_workdir(p)
    p.set_defaults(func=_cmd_print_chain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TrienotaryError) as exc:
        return _error(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
