"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 bench/selftest.py smoke
    python3 bench/selftest.py steadiness

smoke: every workload once with and once without tracing for one
second; each run must print a result line that names exactly the
metrics of BENCHMARK.json with their units and reports no failure. It
also checks that the benchmark refuses to run from a directory that
holds only BENCHMARK.json and bench/.

steadiness: two sets of RUNS runs of every workload, every run with its
own seed. For every end-to-end metric, each set's spread (distance
between the first and third quartile over the median) must stay within
the metric's bound, and the second set's median must not be worse than
the first's by more than the bound. Spreads above a third of the bound
are flagged. A summary goes to .bench_results/steadiness.json.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180
RUNS = 10  # runs per set and workload in the steadiness check
FIRST_SEED = 1000  # steadiness seeds; smoke runs use seed 1


def run(workload: str, seed: int, seconds: float, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            res = result_of(run(w["name"], 1, 1, trace))
            expected = {m["name"]: m["unit"] for m in spec}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace {trace}: result keys {sorted(res)}")
            if got != expected:
                problems.append(f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} failed")
            if trace == 0 and any(m["value"] <= 0 for m in res["metrics"].values()):
                problems.append(f"{w['name']}: an end-to-end metric is not positive")
            print(f"{w['name']} trace {trace}: {res['attempted']} operations, correct={res['correct']}")

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 1, 1, 0, root=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("benchmark ran without the siqr sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return -change if better == "higher" else change


def steadiness() -> int:
    """Seeds FIRST_SEED onwards, SPEC's run_seconds per run."""
    problems, report = [], {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        sets = []
        for k in range(2):
            rows = []
            for j in range(RUNS):
                seed = FIRST_SEED + k * RUNS + j
                res = result_of(run(workload, seed, SPEC["run_seconds"], 0))
                if not res["correct"]:
                    problems.append(f"{workload} seed {seed}: {res['failed']} failed")
                rows.append(res["metrics"])
            sets.append(rows)
        report[workload] = {}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[row[name]["value"] for row in rows] for rows in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            drift = worse_by(medians[0], medians[1], m["better"])
            report[workload][name] = {"medians": medians, "spreads": spreads, "worse_by": drift,
                                      "bound": bound}
            flag = ""
            if max(spreads) > bound:
                problems.append(f"{workload} {name}: spread {max(spreads):.3f} > bound {bound}")
                flag = "FAIL"
            elif drift > bound:
                problems.append(f"{workload} {name}: second median worse by {drift:.3f} > {bound}")
                flag = "FAIL"
            elif max(spreads) > bound / 3:
                flag = "above bound/3"
            print(f"{workload:9s} {name:20s} medians {medians[0]:11.5g} {medians[1]:11.5g}  "
                  f"spreads {spreads[0]:.3f} {spreads[1]:.3f}  worse_by {drift:+.3f}  "
                  f"bound {bound}  {flag}", flush=True)
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    (ROOT / ".bench_results" / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    for p in problems:
        print("FAIL", p)
    print("steadiness:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Tests of the siqr benchmark.")
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("smoke")
    sub.add_parser("steadiness")
    args = parser.parse_args()
    return smoke() if args.check == "smoke" else steadiness()


if __name__ == "__main__":
    sys.exit(main())
