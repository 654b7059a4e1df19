"""tools/bench_pairs.py: how parent/change pairs are summarized."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def report(setup_s: float, rate: float, cycles: int = 3) -> dict:
    return {
        "w": {
            "cycles": cycles, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": setup_s}, "rate": {"value": rate}},
        }
    }


def test_pairs_count_for_the_side_better_in_the_metrics_direction():
    runs = {
        "parent": [report(1.0, 5.0), report(2.0, 5.0), report(3.0, 5.0)],
        "change": [report(0.5, 6.0), report(2.0, 4.0), report(3.5, 6.0)],
    }
    block = bench_pairs.summarize(SPEC, runs)["w"]
    setup = block["metrics"]["setup_s"]
    assert (setup["pairs_change_better"], setup["pairs_change_worse"]) == (1, 1)
    assert setup["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert setup["change_over_parent"] == 1.0
    assert setup["runs"]["change"] == [0.5, 2.0, 3.5]
    rate = block["metrics"]["rate"]
    assert (rate["pairs_change_better"], rate["pairs_change_worse"]) == (2, 1)
    assert block["attempted"] == {"parent": 30, "change": 30}
    assert block["cycles"]["parent"] == [3, 3, 3]


def test_a_run_without_a_report_counts_as_a_failure_and_drops_its_pair():
    runs = {
        "parent": [report(1.0, 5.0), report(2.0, 5.0)],
        "change": [{"w": None}, report(1.0, 6.0)],
    }
    block = bench_pairs.summarize(SPEC, runs)["w"]
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["metrics"]["setup_s"]["pairs_change_better"] == 1
    assert block["metrics"]["setup_s"]["runs"]["change"] == [None, 1.0]


def summary_of(parent: list, change: list) -> dict:
    """The metric blocks of pairs (setup_s, rate) of parent and change values."""
    runs = {
        "parent": [report(setup_s, rate) for setup_s, rate in parent],
        "change": [report(setup_s, rate) for setup_s, rate in change],
    }
    return bench_pairs.summarize(SPEC, runs)["w"]["metrics"]


@pytest.mark.parametrize(
    "change_setup_s, change_rate, met",
    [
        # 9 of 10 pairs won, the medians far beyond the parent's quartiles
        ([0.8] * 9 + [1.2], [6.0] * 9 + [4.0], True),
        # 8 of 10 won
        ([0.8] * 8 + [1.2] * 2, [6.0] * 8 + [4.0] * 2, False),
        # 10 of 10 won, but by less than the parent's quartile spread
        ([v - 0.01 for v in [0.95, 0.97, 0.98, 1.0, 1.0, 1.0, 1.0, 1.02, 1.03, 1.05]],
         [v + 0.01 for v in [4.9, 4.92, 4.95, 4.97, 5.0, 5.0, 5.03, 5.05, 5.08, 5.1]], False),
    ],
)
def test_the_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread(
    change_setup_s, change_rate, met
):
    parent = list(zip(
        [0.95, 0.97, 0.98, 1.0, 1.0, 1.0, 1.0, 1.02, 1.03, 1.05],
        [4.9, 4.92, 4.95, 4.97, 5.0, 5.0, 5.03, 5.05, 5.08, 5.1],
    ))
    metrics = summary_of(parent, list(zip(change_setup_s, change_rate)))
    assert metrics["setup_s"]["claim_rule_met"] is met
    assert metrics["rate"]["claim_rule_met"] is met


@pytest.mark.parametrize(
    "change, worse",
    [
        ((1.3, 5.0), (True, False)),  # setup_s 30% worse, against a 0.25 bound
        ((1.2, 5.0), (False, False)),
        ((1.0, 4.4), (False, True)),  # rate 12% lower, against a 0.1 bound
        ((1.0, 4.6), (False, False)),
        ((0.5, 9.0), (False, False)),  # better is never worse than the bound
    ],
)
def test_worse_than_bound_compares_the_medians_in_the_metrics_direction(change, worse):
    metrics = summary_of([(1.0, 5.0)] * 3, [change] * 3)
    assert (metrics["setup_s"]["worse_than_bound"], metrics["rate"]["worse_than_bound"]) == worse


@pytest.mark.parametrize("text, seeds", [("1801-1803", [1801, 1802, 1803]), ("5,7", [5, 7])])
def test_seed_lists(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_one_summary_line_per_workload_and_metric():
    runs = {
        "parent": [report(1.0, 5.0), report(2.0, 5.0), report(3.0, 5.0)],
        "change": [report(0.5, 6.0), report(2.0, 4.0), report(3.5, 6.0)],
    }
    assert bench_pairs.summary_lines(bench_pairs.summarize(SPEC, runs)) == [
        "w setup_s: median parent 2 s change 2 s, change/parent 1.000, pairs won 1 lost 1,"
        " claim_rule_met False, worse_than_bound False, separated False, unresolved True",
        "w rate: median parent 5 1/s change 6 1/s, change/parent 1.200, pairs won 2 lost 1,"
        " claim_rule_met False, worse_than_bound False, separated False, unresolved False",
    ]


@pytest.mark.parametrize(
    "parent, change, separated, unresolved",
    [
        # every change run below every parent run
        ([1.0, 1.1, 1.2], [0.8, 0.9, 0.95], True, False),
        # every change run above every parent run: separated either way
        ([1.0, 1.1, 1.2], [1.3, 1.4, 1.5], True, False),
        # a change run equal to a parent run is not separated from it
        ([1.0, 1.1, 1.2], [0.8, 0.9, 1.0], False, False),
        # overlapping runs, the parent's quartile spread (0.1) within the
        # 0.25 bound of its median
        ([1.0, 1.1, 1.2], [0.9, 1.15, 1.3], False, False),
        # overlapping runs, the parent's quartile spread (0.5) beyond it
        ([0.6, 1.0, 1.6], [0.9, 1.15, 1.3], False, True),
        # as wide a spread, but runs that do not overlap still tell
        ([0.6, 1.0, 1.6], [0.3, 0.4, 0.5], True, False),
    ],
)
def test_separated_runs_and_an_unresolved_spread(parent, change, separated, unresolved):
    setup = summary_of([(v, 5.0) for v in parent], [(v, 5.0) for v in change])["setup_s"]
    assert (setup["separated"], setup["unresolved"]) == (separated, unresolved)


def test_each_side_keeps_the_median_of_its_runs_speed_gauges_and_prints_their_ratio():
    """A run's gauge is the median of its per-cycle ``gauge_median_s``; a
    run without a report reads None and is left out of the side's median."""

    def gauged(gauges):
        run = report(1.0, 5.0)
        run["w"]["gauge_median_s"] = gauges
        return run

    runs = {
        "parent": [gauged([2.0, 4.0, 3.0]), gauged([1.0]), {"w": None}],
        "change": [gauged([1.0, 2.0]), gauged([1.0]), gauged([2.0])],
    }
    workloads = bench_pairs.summarize(SPEC, runs)
    assert workloads["w"]["gauge_s"] == {
        "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5, "runs": [3.0, 1.0, None]},
        "change": {"median": 1.5, "q1": 1.25, "q3": 1.75, "runs": [1.5, 1.0, 2.0]},
    }
    assert bench_pairs.summary_lines(workloads)[0] == (
        "w speed gauge: median parent 2 s change 1.5 s, change/parent 0.750"
    )


def test_a_run_lasts_the_seconds_benchmark_json_declares(tmp_path):
    """``run_side`` hands ``run_seconds`` to ``perfbench/run.py``: a stub
    that records its argv and writes empty reports stands in for it."""
    seconds = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "from pathlib import Path\n"
        "Path('argv.json').write_text(json.dumps(sys.argv[1:]))\n"
        "out = Path('perfbench/out')\n"
        "out.mkdir()\n"
        "(out / 'w-seed5-trace0.json').write_text('{}')\n"
    )
    assert bench_pairs.run_side(tmp_path, ["w"], 5, seconds) == {"w": {}}
    assert json.loads((tmp_path / "argv.json").read_text()) == [
        "--workload", "all", "--seed", "5", "--seconds", str(seconds), "--trace", "0",
    ]
