"""tools/bench_pairs.py: how parent/change pairs are summarized."""

from __future__ import annotations

import importlib.util
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


@pytest.mark.parametrize("text, seeds", [("1801-1803", [1801, 1802, 1803]), ("5,7", [5, 7])])
def test_seed_lists(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
