"""Alternating parent/change pairs of the perfbench benchmark, written as BENCH_perfbench.json.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 1801-1810 --change "what changed"

The parent revision's committed files are exported with ``git archive``
into a temporary directory outside the repository, which is removed when
the run ends. The change is the repository's working tree. For each seed,
``perfbench/run.py --workload all --seed S --seconds T --trace 0`` runs on
the parent and on the change in turn, the parent first on odd seeds and
the change first on even ones, so drift in the host's speed does not
favour one side; T is the ``run_seconds`` that ``BENCHMARK.json``
declares. Each run leaves one report per workload under its
checkout's ``perfbench/out/``, where this script reads them back.

For every workload and every end-to-end metric that ``BENCHMARK.json``
names, the output holds each side's value per seed, in seed order, their
median and inclusive quartiles, the ratio of the medians, how many pairs
the change won and lost (strictly better or worse, in the metric's
direction), and the metric's bound. Four verdicts follow from these:
``claim_rule_met``, when the change won at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
quartile spread; ``worse_than_bound``, when the change's median is
worse than the parent's by more than ``bound`` times the parent's median;
``separated``, when every change run is better than every parent run, or
every one is worse; and ``unresolved``, when the parent's quartile spread
exceeds ``bound`` times its median and the runs are not separated, so the
pairs cannot tell a move within the bound from noise.
Every scaled time is divided by the speed gauge, so each workload also
holds each side's gauge: the median of each run's ``gauge_median_s``, in
seed order, with their median and quartiles. ``--note`` lines are kept as
written. After writing the file, the script prints one gauge line per
workload and one line per workload and metric to stdout, as
``summary_lines`` formats them, so a claim can be read without opening
the JSON.
``--raw PATH`` also saves every run's reports, and ``--from-raw PATH``
writes the summary from such a file without running anything, so notes
can be added after a run.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METHOD = (
    "alternating parent/change pairs, one seed per pair, the parent first on odd seeds and "
    "the change first on even ones; medians and inclusive quartiles over each side's "
    "runs; a pair counts for the change when its value is strictly better; 'runs' "
    "lists each side's value per seed, in seed order"
)


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(root: Path, revision: str, into: Path) -> None:
    """Write the committed files of ``revision`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", revision],
        check=True, capture_output=True,
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def parse_seeds(text: str) -> list[int]:
    """``1801-1810`` or ``5,7,9``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_side(checkout: Path, workloads: list[str], seed: int, seconds: float) -> dict:
    """One ``--workload all`` run of ``seconds`` per workload; each
    workload's report, or None if it wrote none."""
    out = checkout / "perfbench" / "out"
    reports = {name: out / f"{name}-seed{seed}-trace0.json" for name in workloads}
    for path in reports.values():
        path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=False, stdout=subprocess.DEVNULL,
    )
    return {
        name: json.loads(path.read_text()) if path.exists() else None
        for name, path in reports.items()
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(spec: dict, runs: dict) -> dict:
    """The ``workloads`` block from ``runs[side][i][workload]`` reports."""
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        reports = {side: [run[workload] or {} for run in runs[side]] for side in runs}
        # a run that wrote no report counts as one failed operation
        block = {
            "failed": {side: sum(r.get("failed", 1) for r in reports[side]) for side in runs},
            "attempted": {side: sum(r.get("attempted", 1) for r in reports[side])
                          for side in runs},
            "cycles": {side: [r.get("cycles", 0) for r in reports[side]] for side in runs},
            "gauge_s": {},
            "metrics": {},
        }
        for side in runs:
            gauges = [
                statistics.median(r["gauge_median_s"]) if r.get("gauge_median_s") else None
                for r in reports[side]
            ]
            read = [g for g in gauges if g is not None]
            block["gauge_s"][side] = {**spread(read), "runs": gauges} if read else None
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r.get("metrics", {}).get(name, {}).get("value") for r in reports[side]]
                for side in runs
            }
            pairs = [
                (p, c) for p, c in zip(values["parent"], values["change"])
                if p is not None and c is not None
            ]
            if not pairs:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
            parent, change = spread(parents), spread(changes)
            better = sum(sign * (c - p) < 0 for p, c in pairs)
            gain = sign * (parent["median"] - change["median"])
            separated = max(changes) < min(parents) or min(changes) > max(parents)
            block["metrics"][name] = {
                "unit": metric["unit"],
                "parent": parent,
                "change": change,
                "change_over_parent": (
                    change["median"] / parent["median"] if parent["median"] else None
                ),
                "pairs_change_better": better,
                "pairs_change_worse": sum(sign * (c - p) > 0 for p, c in pairs),
                "bound": metric["bound"],
                "claim_rule_met": (
                    10 * better >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"]
                ),
                "worse_than_bound": -gain > metric["bound"] * abs(parent["median"]),
                "separated": separated,
                "unresolved": not separated and (
                    parent["q3"] - parent["q1"] > metric["bound"] * abs(parent["median"])
                ),
                "runs": values,
            }
        out[workload] = block
    return out


def summary_lines(workloads: dict) -> list[str]:
    """Per workload of a ``summarize`` result, one line for the speed gauge,
    when both sides read it: both medians and their ratio; then one line per
    metric: both medians, their ratio, the pairs won and lost, and the four
    verdicts."""
    lines = []
    for workload, block in workloads.items():
        gauge = block["gauge_s"]
        if gauge["parent"] and gauge["change"]:
            parent, change = gauge["parent"]["median"], gauge["change"]["median"]
            lines.append(
                f"{workload} speed gauge: median parent {parent:.6g} s change {change:.6g} s,"
                f" change/parent {change / parent:.3f}"
            )
        for name, m in block["metrics"].items():
            ratio = m["change_over_parent"]
            lines.append(
                f"{workload} {name}: median parent {m['parent']['median']:.6g} {m['unit']}"
                f" change {m['change']['median']:.6g} {m['unit']},"
                f" change/parent {'n/a' if ratio is None else f'{ratio:.3f}'},"
                f" pairs won {m['pairs_change_better']} lost {m['pairs_change_worse']},"
                f" claim_rule_met {m['claim_rule_met']}, worse_than_bound {m['worse_than_bound']},"
                f" separated {m['separated']}, unresolved {m['unresolved']}"
            )
    return lines


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pairs(parser, root: Path, spec: dict, args) -> dict:
    """Run every pair; the reports by side, in seed order."""
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    parent_rev = git(root, "rev-parse", "--short", args.parent)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    if tmp.resolve().is_relative_to(root.resolve()):
        shutil.rmtree(tmp)
        parser.error(f"the temporary directory {tmp} is inside the repository; set TMPDIR")
    runs: dict[str, list] = {"parent": [], "change": []}
    try:
        parent_dir = tmp / "parent"
        export(root, parent_rev, parent_dir)
        checkouts = {"parent": parent_dir, "change": root}
        for seed in seeds:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
                runs[side].append(
                    run_side(checkouts[side], workloads, seed, spec["run_seconds"])
                )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"parent": parent_rev, "seeds": seeds, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the parent revision")
    parser.add_argument("--seeds", help="e.g. 1801-1810 or 5,7,9")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--note", action="append", default=[], help="a note to keep; repeatable")
    parser.add_argument("--raw", help="also save every run's reports to this file")
    parser.add_argument("--from-raw", help="summarize a file saved by --raw instead of running")
    args = parser.parse_args(argv)

    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.from_raw:
        raw = json.loads(Path(args.from_raw).read_text())
    elif not (args.parent and args.seeds):
        parser.error("--parent and --seeds are needed unless --from-raw is given")
    else:
        raw = run_pairs(parser, root, spec, args)
        if args.raw:
            Path(args.raw).write_text(json.dumps(raw) + "\n")
    runs, seeds = raw["runs"], raw["seeds"]
    environment = next(
        (r["environment"] for side in runs.values() for run in side for r in run.values() if r),
        {},
    )
    bench = {
        "benchmark": f"perfbench/run.py --workload all --seconds {spec['run_seconds']} --trace 0",
        "method": METHOD,
        "parent": raw["parent"],
        "change": args.change,
        "seeds": seeds,
        "host": {
            "cpu": cpu_model(),
            "nproc": environment.get("nproc"),
            "platform": environment.get("platform"),
            "workdir_fs": environment.get("workdir_fs"),
            "flush_policy": environment.get("flush_policy"),
        },
        "python": environment.get("python"),
        "numpy": environment.get("numpy"),
        "workloads": summarize(spec, runs),
        "notes": args.note,
    }
    out = root / "BENCH_perfbench.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    print("\n".join(summary_lines(bench["workloads"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
