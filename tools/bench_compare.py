"""Compare two revisions of siqr with the frozen benchmark.

    python tools/bench_compare.py BASE_REV [CHANGE_REV] --pr N

CHANGE_REV defaults to HEAD. Each revision is checked out as a detached
git worktree under `.bench_tmp/`, at `.bench_tmp/base` and
`.bench_tmp/chng`: paths of the same length, because `bench/run.py`
puts its checkout's path into PYTHONPATH and TMPDIR, and identical code
has read 10-12% slower from a path three characters shorter.
`bench/run.py` runs unchanged in each worktree, with `--trace 0` and
the base's BENCHMARK.json `run_seconds`.

For every workload of BENCHMARK.json the tool runs ten pairs. Pair i
(from 1) runs both sides on seed i, the base first in odd pairs and the
change first in even ones. For every end-to-end metric it reports each
side's median and quartiles, the pairs the change won (in the direction
of the metric's `better`), and whether the change's median is worse
than the base's by more than the metric's `bound`, relative to the
base's median. A metric is unresolved where the base's quartiles span
more than `bound` of its median, unless every change run beats every
base run: its spread is too wide for the bound to tell. Passing the
same revision twice compares it with itself, in two worktrees, which
shows how far identical code spreads on the host.

The result goes into `BENCH_<N>.json` at the repository root, under
"aa" when both revisions are one commit and under "change" otherwise; a
section the run did not make is kept.
Each section holds both commits and the host: the Python, numpy and
glibc versions, numpy's BLAS and found SIMD tiers, and the CPU count.
The worktrees are removed at the end, also when a run fails. Standard
library only; numpy is queried in a child interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Equal lengths: the checkout path reaches the bench's environment.
SIDES = {"base": ROOT / ".bench_tmp" / "base", "change": ROOT / ".bench_tmp" / "chng"}
PAIRS = 10
NUMPY_INFO = (
    "import json, numpy; c = numpy.show_config(mode='dicts'); "
    "blas = c['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, "
    "'blas': f\"{blas['name']} {blas['version']}\", "
    "'simd_found': c['SIMD Extensions']['found']}))"
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def host() -> dict:
    """The interpreter, numpy and machine the runs used."""
    info = json.loads(subprocess.run([sys.executable, "-c", NUMPY_INFO], capture_output=True,
                                     text=True, check=True).stdout)
    libc, version = platform.libc_ver()
    return {"python": platform.python_version(), **info, "libc": f"{libc} {version}",
            "nproc": os.cpu_count()}


def bench_runner(workload: str, side: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in a side's worktree: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=SIDES[side], capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(runner, workloads, pairs: int) -> dict:
    """{workload: [(seed, first side, {side: run}), ...]} over `pairs` pairs.

    `runner(workload, side, seed)` returns one run's JSON line. Pair i
    (from 1) uses seed i, and the base goes first in odd pairs.
    """
    out = {}
    for workload in workloads:
        out[workload] = []
        for seed in range(1, pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            runs = {side: runner(workload, side, seed) for side in order}
            out[workload].append((seed, order[0], runs))
    return out


def spread(values) -> dict:
    """Median and quartiles (inclusive method: they stay within the
    data), and the values in pair order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(spec_metrics, paired) -> dict:
    """Per end-to-end metric: both sides' spread, the change's wins, its
    median's relative move in the worse direction against `bound`, and
    whether the base spreads too widely for `bound` to tell."""
    rows = {}
    for metric in spec_metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [runs["base"]["metrics"][name]["value"] for _, _, runs in paired]
        change = [runs["change"]["metrics"][name]["value"] for _, _, runs in paired]
        b, c = spread(base), spread(change)
        # + 0.0 turns a -0.0 into 0.0.
        worse_by = sign * (c["median"] - b["median"]) / abs(b["median"] or 1.0) + 0.0
        beats_every_base_run = all(sign * (y - x) < 0 for x in base for y in change)
        rows[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "change": c,
            "wins": sum(sign * (y - x) < 0 for x, y in zip(base, change)),
            "pairs": len(paired),
            "worse_by": worse_by,
            "worse_than_bound": worse_by > metric["bound"],
            "change_median_within_base_quartiles": b["q1"] <= c["median"] <= b["q3"],
            "unresolved": ((b["q3"] - b["q1"]) / abs(b["median"] or 1.0) > metric["bound"]
                           and not beats_every_base_run),
        }
    return rows


def report(workload: str, rows: dict) -> None:
    print(f"{workload}: metric, base median [q1, q3], change median [q1, q3], "
          "worse by, wins")
    for name, r in rows.items():
        b, c = r["base"], r["change"]
        flag = ("  WORSE THAN BOUND" if r["worse_than_bound"] else "") + (
            "  UNRESOLVED" if r["unresolved"] else "")
        print(f"  {name:20s} {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
              f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"{r['worse_by']:+.3f} (bound {r['bound']})  {r['wins']}/{r['pairs']}{flag}")


def add_worktrees(revs: dict) -> None:
    for side, rev in revs.items():
        remove_worktree(SIDES[side])
        git("worktree", "add", "--detach", str(SIDES[side]), rev)


def remove_worktree(path: Path) -> None:
    subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    args = parser.parse_args(argv)

    commits = {side: git("rev-parse", f"{rev}^{{commit}}")
               for side, rev in (("base", args.base), ("change", args.change))}
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    try:
        add_worktrees(commits)
        spec = json.loads((SIDES["base"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]

        def runner(workload, side, seed):
            print(f"  {workload} seed {seed} {side}", file=sys.stderr, flush=True)
            return bench_runner(workload, side, seed, spec["run_seconds"])

        paired = run_pairs(runner, workloads, PAIRS)
    finally:
        for path in SIDES.values():
            remove_worktree(path)

    section = {
        "commits": commits, "host": host(), "pairs": PAIRS,
        "seconds": spec["run_seconds"], "seeds": [1, PAIRS],
        "workloads": {},
    }
    for workload, runs in paired.items():
        rows = summarize(spec["end_to_end"], runs)
        report(workload, rows)
        section["workloads"][workload] = {
            "first": [first for _, first, _ in runs],
            "failed": {side: [r[side]["failed"] for _, _, r in runs] for side in SIDES},
            "metrics": rows,
        }
    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record["aa" if commits["base"] == commits["change"] else "change"] = section
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
