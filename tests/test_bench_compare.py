"""tools/bench_compare.py's pairing and statistics, on a stub runner.

No benchmark runs here: the real runs take minutes and stay outside
tier-1.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

_METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _run(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}, "failed": 0}


def test_worktree_paths_have_equal_length():
    # The bench puts its checkout's path into PYTHONPATH and TMPDIR.
    paths = [str(path) for path in bench_compare.SIDES.values()]
    assert len(set(paths)) == 3 and len({len(path) for path in paths}) == 1


def test_each_seed_runs_every_side_and_alternates_the_order():
    calls = []

    def runner(workload, side, seed):
        calls.append((workload, side, seed))
        return _run(ops_per_s=1.0)

    runs = bench_compare.run_seeds(runner, ["sweep", "identify"], 10)
    forward, backward = ("base", "change", "again"), ("again", "change", "base")
    orders = [forward, backward] * 5
    assert calls == [
        (workload, side, seed)
        for workload in ("sweep", "identify")
        for seed, order in zip(range(1, 11), orders)
        for side in order
    ]
    assert [(seed, order) for seed, order, _ in runs["identify"]] == list(zip(range(1, 11), orders))
    assert all(set(by_side) == {"base", "change", "again"} for _, _, by_side in runs["sweep"])
    # Over ten seeds, each side of each compared pair runs first five times.
    for other in ("change", "again"):
        base_first = sum(order.index("base") < order.index(other)
                         for _, order, _ in runs["identify"])
        assert base_first == 5


def test_summary_on_known_numbers():
    base = [_run(ops_per_s=v, op_ms_p90=1.0) for v in (10.0, 12.0, 11.0, 13.0, 9.0)]
    change = [_run(ops_per_s=v, op_ms_p90=w)
              for v, w in zip((11.0, 9.0, 8.0, 7.0, 10.0), (1.3, 1.2, 0.9, 1.4, 1.5))]
    runs = [(seed, ("base", "change"), {"base": b, "change": c})
            for seed, (b, c) in enumerate(zip(base, change))]
    rows = bench_compare.summarize(_METRICS, runs, "change")

    ops = rows["ops_per_s"]
    assert (ops["base"]["median"], ops["base"]["q1"], ops["base"]["q3"]) == (11.0, 10.0, 12.0)
    assert (ops["change"]["median"], ops["change"]["q1"], ops["change"]["q3"]) == (9.0, 8.0, 10.0)
    assert ops["change"]["values"] == [11.0, 9.0, 8.0, 7.0, 10.0]
    # Higher is better: the change won the pairs where it read more.
    assert (ops["wins"], ops["pairs"]) == (2, 5)
    assert ops["worse_by"] == pytest.approx(2.0 / 11.0)
    assert ops["worse_than_bound"] is False
    assert ops["median_within_base_quartiles"] is False
    # The base's quartiles span 2/11 of its median, inside the bound.
    assert ops["unresolved"] is False

    p90 = rows["op_ms_p90"]
    assert (p90["change"]["median"], p90["change"]["q1"], p90["change"]["q3"]) == (1.3, 1.2, 1.4)
    # Lower is better: one pair won, and a median 30% up is past the bound.
    assert p90["wins"] == 1
    assert p90["worse_by"] == pytest.approx(0.3)
    assert p90["worse_than_bound"] is True
    assert p90["unresolved"] is False


def test_a_base_wider_than_the_bound_is_unresolved_unless_every_run_is_beaten():
    # The base's quartiles 1.0-1.4 span a third of its median 1.2.
    base = [_run(ops_per_s=1.0, op_ms_p90=v) for v in (1.0, 1.4, 1.2, 0.8, 1.6)]

    def rows(change_p90):
        runs = [(seed, ("base", "again"), {"base": b, "again": _run(ops_per_s=1.0, op_ms_p90=w)})
                for seed, (b, w) in enumerate(zip(base, change_p90))]
        return bench_compare.summarize(_METRICS, runs, "again")["op_ms_p90"]

    overlapping = rows((1.1, 0.9, 1.3, 1.0, 1.2))
    assert overlapping["worse_than_bound"] is False
    assert overlapping["unresolved"] is True
    # Every change run below the base's fastest: the spread cannot hide that.
    assert rows((0.5, 0.6, 0.7, 0.4, 0.55))["unresolved"] is False
