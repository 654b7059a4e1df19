"""Command-line driver: simulation, notarization artifacts, audits, benchmarks.

Every command but ``bench`` works on one deployment's workdir, opened
through ``trienotary.workdir.Workdir``, which holds its layout and its
writer lock: ``simulate`` writes, and a second writer is refused with one
``error:`` line; ``audit``, ``prove``, ``verify`` and ``print-chain`` only
read, take no lock, and take the trie parameters from the workdir's
``config.json``. See ``trienotary.store`` for the pack format and its
torn-tail rule.

``audit`` and ``verify`` exit 0 when every check passes, 1 when a check
proves a violation, and 2 when storage gaps leave the audit inconclusive.
"""

from __future__ import annotations

import argparse
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
from .errors import CannotConstructError, TrienotaryError, WorkdirExistsError
from .merkle import Ledger, read_ledger, write_ledger
from .notary import NotaryState, notarize_round
from .store import ObjectStore
from .trie import TrieParams
from .workdir import CHAIN_NAME, CONFIG_NAME, Workdir

CSV_HEADER = "r,k,ledgers,nodes,path_min,path_max,path_avg,total_bytes,total_paper_bits,path_avg_bytes"


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
    try:
        workdir = Workdir.create(args.workdir, params, replace=args.force)
    except WorkdirExistsError as exc:
        return _error(f"{exc} (use --force)")
    with workdir:
        _, ledgers = run_simulation(
            args.ledgers, args.rounds, args.append_rate, args.seed, params,
            workdir.store, workdir.chain,
        )
        for lid, ledger in ledgers.items():
            write_ledger(ledger, workdir.ledger_path(lid))
    print(
        f"simulated {args.ledgers} ledgers over {args.rounds} rounds "
        f"({_describe(params)}) in {workdir.path}"
    )
    return 0


# ------------------------------------------------------------------- bench

def run_bench(r_values, k_values, n_values, seed: int, alg: HashAlg, out) -> None:
    """Parameter sweep: one CSV row of trie measurements per (r, k, n) cell."""
    from .structure import measure_shared, shared_prefixes  # numpy, loaded for a sweep only

    print(CSV_HEADER, file=out)
    shared_cache: dict[int, object] = {}
    for n in n_values:
        rng = random.Random(seed)
        ids = [f"ledger-{i}" for i in range(n)]
        rng.shuffle(ids)
        shared_cache[n] = shared_prefixes(
            alg.hash_each([ledger_id.encode() for ledger_id in ids]), alg.output_len
        )
    for r in r_values:
        for k in k_values:
            for n in n_values:
                m = measure_shared(TrieParams(r, k, alg), shared_cache[n])
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
    with Workdir.open(args.workdir) as workdir:
        params = workdir.params
        ledger_id = args.id.encode()
        ledger_file = workdir.ledger_path(ledger_id)
        if not ledger_file.exists():
            return _inconclusive(f"no disclosed data for ledger id {args.id!r}")
        roots = workdir.chain.read_roots()
        if not roots:
            return _inconclusive(f"{CHAIN_NAME} is empty; nothing to audit")
        try:
            claimed = read_ledger(ledger_file)
        except (OSError, ValueError) as exc:
            return _inconclusive(f"disclosed data for ledger id {args.id!r} is unreadable ({exc})")
        if claimed.id != ledger_id:
            return _inconclusive(
                f"disclosed data for ledger id {args.id!r} is the export of id {claimed.id.hex()}"
            )
        if claimed.alg != params.alg:
            return _inconclusive(
                f"disclosed data for ledger id {args.id!r} uses {claimed.alg.name}, "
                f"{CONFIG_NAME} says {params.alg.name}"
            )
        report = audit_ledger(ledger_id, claimed, roots, workdir.store, params)
    _print_report(report)
    return report.exit_code


def _cmd_prove(args) -> int:
    with Workdir.open(args.workdir) as workdir:
        chain = workdir.chain
        ledger_id = args.id.encode()
        up_to = chain.height - 1 if args.round is None else args.round
        new_file = not os.path.lexists(args.out)
        # Opened before the audit, so an unusable --out fails first; opened for
        # appending, so an existing file keeps its bytes until the bundle is built.
        with open(args.out, "ab") as out:
            try:
                proof = make_audit_proof(
                    ledger_id, up_to, chain.read_roots(), workdir.store, workdir.params
                )
            except BaseException as exc:
                if new_file:  # a bundle that cannot be built leaves no file behind
                    os.unlink(args.out)
                if isinstance(exc, (CannotConstructError, ValueError)):
                    return _error(exc)
                raise
            blob = encode_audit_proof(proof)
            out.truncate(0)
            out.write(blob)
    print(f"wrote audit proof for rounds 0..{up_to} ({len(blob)} bytes) to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    with Workdir.open(args.workdir) as workdir:  # the store is never opened
        params, roots = workdir.params, workdir.chain.read_roots()
    try:
        proof = decode_audit_proof(Path(args.proof).read_bytes())
    except (OSError, ValueError) as exc:
        return _inconclusive(f"unreadable audit proof ({exc})")
    if proof.params != params:
        return _error(
            f"audit proof parameters ({_describe(proof.params)}) "
            f"differ from {CONFIG_NAME} ({_describe(params)})"
        )
    report = verify_audit_proof(proof, args.id.encode(), roots)
    _print_report(report)
    return report.exit_code


def _cmd_print_chain(args) -> int:
    with Workdir.open(args.workdir) as workdir:
        records = workdir.chain.records()
    for record in records:
        print(format_record(record))
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
