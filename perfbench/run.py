"""Notarize-and-audit benchmark for trienotary.

Run from the repository root:

    python3 perfbench/run.py --workload rounds_wide --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

One process runs one workload, single-threaded, as a closed loop with one
client: the notary runs rounds back to back and the auditor sends its next
request only after the previous one returned. A run is a series of cycles.
Each cycle sets the workload up from scratch (the set-up is timed as
``setup_s``) and then runs the workload's timed steps, replaying the same
seeded script every cycle, so every cycle does identical work and the
samples do not drift with how many cycles fit. Cycles repeat until
``--seconds`` have passed, and there are at least three of them.

A step is one notarization round (unless the workload has none) followed by
audit, prove and verify requests for a few seeded ledgers. Every honest
audit and verification must pass, and each cycle ends with checks of the
notarized state against the benchmark's own ledger copies; every failed
check or exception counts as a failed operation.

With ``--trace 1`` the run makes one untraced cycle and then one traced
cycle of the same script, and reports per-layer metrics (see tracer.py)
normalised per timed step, plus the tracing overhead between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report,
with the environment and sample counts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import FUNCTIONS, METHODS, Tracer, metric_specs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"

MIN_CYCLES = 3
PAYLOAD_BYTES = 32
# Speed gauge: a fixed hashing-and-dict loop timed before and after the
# set-up, after every round and after every step's audits. A shared host
# drifts in speed by +-20% over seconds, so each time is scaled by
# GAUGE_NOMINAL_S over the mean of the two gauge times around it (set-up:
# over the mean of those taken during it): it reads as seconds on a host
# where the gauge takes GAUGE_NOMINAL_S.
GAUGE_ITERATIONS = 3000
GAUGE_NOMINAL_S = 0.003
FLUSH_POLICY = (
    "trienotary never fsyncs: DirectoryStore and the file-backed Chain write through "
    "the page cache, so disk_mixed measures page-cache file I/O, not a device"
)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ledger ids are ``ledger-<i>``, hash sha256.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    directory: bool  # DirectoryStore + file-backed Chain in a fresh temp dir
    r: int
    k: int
    ledgers: int
    blocks: int  # blocks per ledger at set-up
    setup_rounds: int  # rounds notarized during set-up
    setup_share: float  # share of ledgers appending one block per later set-up round
    steps: int  # timed steps per cycle
    round_share: float | None  # share appending before each timed round; None: no rounds
    audits: int  # ledgers audited, proved and verified per step


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rounds_wide",
            directory=False, r=4, k=2, ledgers=20000, blocks=1, setup_rounds=1,
            setup_share=0.0, steps=8, round_share=0.10, audits=16,
        ),
        Workload(
            "rounds_long",
            directory=False, r=4, k=2, ledgers=128, blocks=512, setup_rounds=1,
            setup_share=0.0, steps=8, round_share=0.50, audits=32,
        ),
        Workload(
            "audit_deep",
            directory=False, r=4, k=2, ledgers=200, blocks=1, setup_rounds=100,
            setup_share=0.3, steps=150, round_share=None, audits=1,
        ),
        Workload(
            "disk_mixed",
            directory=True, r=2, k=1, ledgers=1000, blocks=1, setup_rounds=1,
            setup_share=0.0, steps=8, round_share=0.30, audits=16,
        ),
    )
}

# End-to-end metrics: name -> unit. ``fail_ratio`` is printed in the report
# too, but it is 0 on a correct run, so the result line carries it as
# ``failed`` over ``attempted`` instead.
END_TO_END = {
    "setup_s": "s",
    "round_s.p50": "s",
    "store_bytes_per_round": "B",
    "audit_s.p50": "s",
    "audit_s.p90": "s",
    "prove_s.p50": "s",
    "prove_s.p90": "s",
    "verify_s.p50": "s",
    "verify_s.p90": "s",
    "proof_bytes.p50": "B",
    "peak_rss_mb": "MB",
}


def tiny(workload: Workload) -> Workload:
    """A few-second variant of a workload, for the benchmark's self-test."""
    return dataclasses.replace(
        workload,
        ledgers=min(workload.ledgers, 60),
        blocks=min(workload.blocks, 8),
        setup_rounds=min(workload.setup_rounds, 6),
        steps=4 if workload.round_share is not None else 12,
        audits=min(workload.audits, 6),
    )


# ------------------------------------------------------------------ library

tn = None  # the trienotary package, imported by load_library()


def load_library() -> bool:
    """Import trienotary from this checkout's ``src``; False if it is absent."""
    global tn
    src = ROOT / "src"
    if not (src / "trienotary" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import trienotary

    tn = trienotary
    return True


# ------------------------------------------------------------------- cycles

class Counts:
    """Attempted and failed operations; every failure is also reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def gauge() -> float:
    """Wall time of the speed gauge: a fixed hashing-and-dict loop."""
    t0 = time.perf_counter()
    digest = b"\0" * 32
    table = {}
    for i in range(GAUGE_ITERATIONS):
        digest = hashlib.sha256(digest).digest()
        table[digest] = i
    return time.perf_counter() - t0


@dataclass
class Cycle:
    """Samples of one cycle; times are gauge-scaled once the cycle ends."""

    setup_s: float = 0.0
    round_s: list = dataclasses.field(default_factory=list)
    audit_s: list = dataclasses.field(default_factory=list)
    prove_s: list = dataclasses.field(default_factory=list)
    verify_s: list = dataclasses.field(default_factory=list)
    proof_bytes: list = dataclasses.field(default_factory=list)
    store_bytes: list = dataclasses.field(default_factory=list)
    gauge_s: list = dataclasses.field(default_factory=list)
    raw: list = dataclasses.field(default_factory=list)  # (field, seconds, gauge index, timed)
    steps: int = 0
    timed_s: float = 0.0  # summed time of the timed steps' operations
    timed_raw_s: float = 0.0  # the same, not gauge-scaled

    def take_gauge(self) -> float:
        self.gauge_s.append(gauge())
        return self.gauge_s[-1]

    def record(self, field: str, seconds: float, timed: bool = True) -> None:
        """Keep a raw time, to be scaled by the gauge samples just before and after it."""
        self.raw.append((field, seconds, len(self.gauge_s) - 1, timed))

    def scale_all(self) -> None:
        for field, seconds, index, timed in self.raw:
            scaled = seconds * 2 * GAUGE_NOMINAL_S / (self.gauge_s[index] + self.gauge_s[index + 1])
            getattr(self, field).append(scaled)
            if timed:
                self.timed_s += scaled
                self.timed_raw_s += seconds


def grow(rng: random.Random, ledgers: dict, ids: list, share: float) -> list:
    """Append one seeded block to ``share`` of the ledgers; returns their ids."""
    chosen = rng.sample(ids, round(share * len(ids)))
    for lid in chosen:
        ledgers[lid] = ledgers[lid].append(rng.randbytes(PAYLOAD_BYTES))
    return chosen


def new_object_bytes(store, params, roots, changed, known: set, first: int) -> list:
    """Bytes each round from ``first`` on added to storage: nodes and proofs.

    Walks each version's nodes that ``known`` does not hold yet (so shared
    nodes count once) and the proofs indexed for the ledgers changed in that
    round, adding every address to ``known``. Every new node must resolve
    and parse, and every changed ledger must have a proof, so the walk also
    checks that each round's writes landed.
    """
    alg = params.alg
    out = []
    for round_seq in range(first, len(roots)):
        total = 0
        stack = [roots[round_seq]]
        while stack:
            digest = stack.pop()
            if digest in known:
                continue
            known.add(digest)
            data = store.get(digest)
            total += len(data)
            node = tn.parse_node(data, params)
            if isinstance(node, tn.InternalNode):
                stack.extend(child for _, child in node.children)
        for lid in changed.get(round_seq, ()):
            address = store.find_proof(alg.hash(lid), round_seq)
            if address is None:
                raise RuntimeError(f"no proof indexed for {lid.decode()} in round {round_seq}")
            if address not in known:
                known.add(address)
                total += len(store.get(address))
        out.append(total)
    return out


def run_cycle(spec: Workload, seed: int, counts: Counts, tracer: Tracer | None,
              rundir: Path) -> Cycle:
    """Set the workload up from scratch, run its timed steps, then check the state.

    A ``directory`` workload gets a fresh directory under ``rundir``. It is
    removed with ``rundir`` when the run ends: removing tens of thousands of
    files between cycles slowed the next cycle's file writes severalfold.
    """
    alg = tn.SHA256
    params = tn.TrieParams(spec.r, spec.k, alg)
    rng = random.Random(seed)
    ids = [f"ledger-{i}".encode() for i in range(spec.ledgers)]
    cycle = Cycle()
    changed: dict[int, list] = {}

    gc.collect()
    cycle.take_gauge()
    setup_start = time.perf_counter()
    gauge_in_setup = 0.0
    ledgers = {
        lid: tn.Ledger.from_payloads(
            lid, [rng.randbytes(PAYLOAD_BYTES) for _ in range(spec.blocks)], alg
        )
        for lid in ids
    }
    if spec.directory:
        workdir = Path(tempfile.mkdtemp(dir=rundir))
        store, chain = tn.DirectoryStore(workdir, alg), tn.Chain(workdir / "chain.log")
    else:
        store, chain = tn.MemoryStore(alg), tn.Chain()
    state = tn.NotaryState(params)
    history = spec.setup_rounds // 2 if spec.round_share is None else spec.setup_rounds
    for round_seq in range(spec.setup_rounds):
        changed[round_seq] = [] if round_seq == 0 else grow(rng, ledgers, ids, spec.setup_share)
        snapshot = dict(ledgers)
        t0 = time.perf_counter()
        state, _ = tn.notarize_round(state, snapshot, store, chain)
        if round_seq >= history:
            # No timed rounds: the history's second half stands in for them.
            cycle.record("round_s", time.perf_counter() - t0, timed=False)
            gauge_in_setup += cycle.take_gauge()
    gc.collect()
    setup_s = time.perf_counter() - setup_start - gauge_in_setup
    cycle.take_gauge()
    cycle.setup_s = setup_s * GAUGE_NOMINAL_S / statistics.mean(cycle.gauge_s)

    known: set[bytes] = set()
    setup_bytes = new_object_bytes(store, params, chain.read_roots(), changed, known, 0)
    if spec.round_share is None:
        cycle.store_bytes = setup_bytes[history:]
    first_timed_round = chain.height

    if tracer is not None:
        tracer.known = set(known)

    def begin(request: int) -> float:
        if tracer is not None:
            tracer.request = request
            tracer.active = True
        return time.perf_counter()

    def end() -> float:
        now = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        return now

    request = 0
    for step in range(spec.steps):
        if spec.round_share is not None:
            # The last round of a cycle is idle, so the root is only rechained.
            share = spec.round_share if step < spec.steps - 1 else 0.0
            changed[chain.height] = grow(rng, ledgers, ids, share)
            snapshot = dict(ledgers)
            request += 1
            t0 = begin(request)
            state, _ = tn.notarize_round(state, snapshot, store, chain)
            cycle.record("round_s", end() - t0)
            counts.attempted += 1
            if spec.directory:
                fsync_dir(workdir)
            cycle.take_gauge()
        roots = chain.read_roots()
        for lid in [rng.choice(ids) for _ in range(spec.audits)]:
            ledger = ledgers[lid]
            request += 1
            t0 = begin(request)
            report = tn.audit_ledger(lid, ledger, roots, store, params)
            t1 = time.perf_counter()
            blob = tn.encode_audit_proof(
                tn.make_audit_proof(lid, len(roots) - 1, roots, store, params)
            )
            t2 = time.perf_counter()
            offline = tn.verify_audit_proof(tn.decode_audit_proof(blob), lid, roots, ledger)
            t3 = end()
            cycle.record("audit_s", t1 - t0)
            cycle.record("prove_s", t2 - t1)
            cycle.record("verify_s", t3 - t2)
            cycle.proof_bytes.append(len(blob))
            counts.check(report.exit_code == 0, f"audit of {lid.decode()} exit {report.exit_code}")
            counts.attempted += 1  # the prove request
            counts.check(offline.exit_code == 0, f"verify of {lid.decode()} exit {offline.exit_code}")
        cycle.take_gauge()
        cycle.steps += 1
    cycle.scale_all()

    if spec.round_share is not None:
        cycle.store_bytes = new_object_bytes(
            store, params, chain.read_roots(), changed, known, first_timed_round
        )
    check_state(spec, rng, params, ledgers, state, store, chain, counts)
    if spec.directory:
        fsync_dir(workdir)
    return cycle


def fsync_dir(path: Path) -> None:
    """Commit a directory's writes, so the next writes do not wait on their writeback."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def check_state(spec, rng, params, ledgers, state, store, chain, counts: Counts) -> None:
    """Compare the notarized state with the benchmark's own ledger copies."""
    alg = params.alg
    latest = tn.TrieVersion(params, state.last_root, store)
    expected = {alg.hash(lid): tn.ledger_root(ledger) for lid, ledger in ledgers.items()}
    counts.check(tn.associations(latest) == expected, "associations of the latest version")
    rounds = spec.setup_rounds + (spec.steps if spec.round_share is not None else 0)
    counts.check(chain.height == rounds, f"chain height {chain.height}, expected {rounds}")
    lid = rng.choice(sorted(ledgers))
    ledger = ledgers[lid]
    index = rng.randrange(len(ledger))
    proof = tn.prove_inclusion(ledger, index)
    value = tn.lookup(latest, alg.hash(lid))
    counts.check(
        value is not None
        and tn.verify_inclusion(value, ledger.blocks[index].block_hash, proof, alg),
        f"inclusion of block {index} of {lid.decode()}",
    )


# ------------------------------------------------------------------ metrics

def quantile(samples: list, q: int) -> float:
    """The q-th percentile (q in 50, 90) of the samples."""
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(cycles: list[Cycle]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count)."""

    def pooled(field: str) -> list:
        return [x for cycle in cycles for x in getattr(cycle, field)]

    rounds = pooled("round_s")
    store_bytes = pooled("store_bytes")
    proof_bytes = pooled("proof_bytes")
    out = {
        "setup_s": (statistics.median(c.setup_s for c in cycles), len(cycles)),
        "round_s.p50": (quantile(rounds, 50), len(rounds)),
        "store_bytes_per_round": (statistics.median(store_bytes), len(store_bytes)),
    }
    for op in ("audit", "prove", "verify"):
        samples = pooled(f"{op}_s")
        out[f"{op}_s.p50"] = (quantile(samples, 50), len(samples))
        out[f"{op}_s.p90"] = (quantile(samples, 90), len(samples))
    out["proof_bytes.p50"] = (quantile(proof_bytes, 50), len(proof_bytes))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (peak_kib / 1024, 1)
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workdir_fs": filesystem_of(WORK_DIR),
        "flush_policy": FLUSH_POLICY,
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


# --------------------------------------------------------------------- runs

def run(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full report."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_DIR))
    counts = Counts()
    cycles: list[Cycle] = []
    tracer = None
    layer_metrics = None
    deadline = time.perf_counter() + seconds
    try:
        if trace:
            cycles.append(run_cycle(spec, seed, counts, None, rundir))
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_cycle(spec, seed, counts, tracer, rundir)
            finally:
                tracer.uninstall()
            cycles.append(traced)
            layer_metrics = tracer.metrics(
                traced.steps, traced.timed_raw_s, traced.timed_s, cycles[0].timed_s
            )
            missing = uncovered(spec, layer_metrics)
            counts.check(not missing, f"layers without calls: {', '.join(missing)}")
        else:
            while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
                cycles.append(run_cycle(spec, seed, counts, None, rundir))
    except Exception:
        traceback.print_exc()
        counts.attempted += 1
        counts.failed += 1
    finally:
        shutil.rmtree(rundir)
        fsync_dir(WORK_DIR)

    report = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "cycles": len(cycles),
        "gauge_median_s": [statistics.median(c.gauge_s) for c in cycles],
        "attempted": counts.attempted,
        "failed": counts.failed,
    }
    if trace:
        units = {m["name"]: m["unit"] for m in metric_specs()}
        if layer_metrics is not None:
            report["metrics"] = {
                name: {"value": value, "unit": units[name]} for name, value in layer_metrics.items()
            }
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"{spec.name}-seed{seed}-spans.npz")
    elif cycles and counts.failed == 0:
        report["metrics"] = {
            name: {"value": value, "unit": END_TO_END[name], "samples": n}
            for name, (value, n) in end_to_end(cycles).items()
        }
    return report


def uncovered(spec: Workload, layer_metrics: dict) -> list[str]:
    """Traced functions this workload's op kinds should reach but did not."""
    kinds = {"audit"} | ({"round"} if spec.round_share is not None else set())
    return [
        f"{layer}.{fn}"
        for (layer, fn), reach in {**FUNCTIONS, **METHODS}.items()
        if kinds & set(reach) and layer_metrics[f"{layer}.{fn}.calls"] == 0
    ]


def print_report(report: dict) -> None:
    gauges = ", ".join(f"{g * 1e3:.2f}" for g in report["gauge_median_s"])
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['cycles']} cycles, speed gauge medians {gauges} ms "
          f"(times scaled to {GAUGE_NOMINAL_S * 1e3:g} ms)")
    print("environment " + json.dumps(report["environment"]))
    attempted, failed = report["attempted"], report["failed"]
    for name, metric in report.get("metrics", {}).items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}{samples}")
    print(f"  {'fail_ratio':40s} {failed / max(attempted, 1):>14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")


def result_line(report: dict) -> str:
    metrics = report.get("metrics", {})
    return json.dumps({
        "correct": report["failed"] == 0 and bool(metrics),
        "attempted": max(report["attempted"], 1),
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (self-test)")
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One fresh process per workload: peak_rss_mb is a per-process high-water mark.
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            status |= subprocess.run(cmd, check=False).returncode
        return status

    if not load_library():
        print(f"perfbench: no trienotary sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = tiny(spec)
    report = run(spec, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    line = result_line(report)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
