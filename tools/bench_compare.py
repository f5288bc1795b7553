"""Compare two revisions of siqr with the frozen benchmark.

    python tools/bench_compare.py BASE_REV [CHANGE_REV] --pr N

CHANGE_REV defaults to HEAD. The base is checked out twice and the
change once, as detached git worktrees at `.bench_tmp/base`,
`.bench_tmp/agin` (the base again) and `.bench_tmp/chng`: paths of the
same length, because `bench/run.py` puts its checkout's path into
PYTHONPATH and TMPDIR, and identical code has read 10-12% slower from a
path three characters shorter. `bench/run.py` runs unchanged in each
worktree, with `--trace 0` and the base's BENCHMARK.json `run_seconds`.

For every workload of BENCHMARK.json the tool runs ten seeds. Seed i
(from 1) runs all three worktrees, one after the other: base, change,
again for an odd seed and again, change, base for an even one, so in
each compared pair (base and change, base and again) either side runs
first in five of the ten seeds. The comparison (base against change)
and the A/A run (base against its second worktree) are thus measured
in the same time window and under the same order, and the A/A spread
shows how far identical code reads apart on the host while the
comparison runs. For each of the two and every end-to-end metric it
reports each side's median and quartiles, the pairs the other side won
against the base (in the direction of the metric's `better`), and
whether the other side's median is worse than the base's by more than
the metric's `bound`, relative to the base's median. A metric is
unresolved where the base's quartiles span more than `bound` of its
median, unless every run of the other side beats every base run: its
spread is too wide for the bound to tell.

The result goes into `BENCH_<N>.json` at the repository root, replacing
a file of that name: both commits, the host (the Python, numpy and glibc
versions, numpy's BLAS and found SIMD tiers, and the CPU count), each
workload's run order and failed-op counts, and the statistics under
"change" (base against change) and "aa" (base against again). The
worktrees are removed at the end, also when a run fails. Standard
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
SIDES = {side: ROOT / ".bench_tmp" / name
         for side, name in (("base", "base"), ("change", "chng"), ("again", "agin"))}
SEEDS = 10
# Section of BENCH_<N>.json -> the side compared with the base.
SECTIONS = {"change": "change", "aa": "again"}
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


def run_seeds(runner, workloads, seeds: int) -> dict:
    """{workload: [(seed, order, {side: run}), ...]} over `seeds` seeds.

    `runner(workload, side, seed)` returns one run's JSON line. Seed i
    (from 1) runs every side, in SIDES' order for an odd i and reversed
    for an even one.
    """
    out = {}
    for workload in workloads:
        out[workload] = []
        for seed in range(1, seeds + 1):
            order = tuple(SIDES) if seed % 2 else tuple(reversed(SIDES))
            runs = {side: runner(workload, side, seed) for side in order}
            out[workload].append((seed, order, runs))
    return out


def spread(values) -> dict:
    """Median and quartiles (inclusive method: they stay within the
    data), and the values in pair order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(spec_metrics, runs, other: str) -> dict:
    """Per end-to-end metric: the base's and `other` side's spread,
    `other`'s wins, its median's relative move in the worse direction
    against `bound`, and whether the base spreads too widely for `bound`
    to tell."""
    rows = {}
    for metric in spec_metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [by_side["base"]["metrics"][name]["value"] for _, _, by_side in runs]
        theirs = [by_side[other]["metrics"][name]["value"] for _, _, by_side in runs]
        b, c = spread(base), spread(theirs)
        # + 0.0 turns a -0.0 into 0.0.
        worse_by = sign * (c["median"] - b["median"]) / abs(b["median"] or 1.0) + 0.0
        beats_every_base_run = all(sign * (y - x) < 0 for x in base for y in theirs)
        rows[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, other: c,
            "wins": sum(sign * (y - x) < 0 for x, y in zip(base, theirs)),
            "pairs": len(runs),
            "worse_by": worse_by,
            "worse_than_bound": worse_by > metric["bound"],
            "median_within_base_quartiles": b["q1"] <= c["median"] <= b["q3"],
            "unresolved": ((b["q3"] - b["q1"]) / abs(b["median"] or 1.0) > metric["bound"]
                           and not beats_every_base_run),
        }
    return rows


def report(title: str, rows: dict, other: str) -> None:
    print(f"{title}: metric, base median [q1, q3], {other} median [q1, q3], worse by, wins")
    for name, r in rows.items():
        b, c = r["base"], r[other]
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
        add_worktrees({**commits, "again": commits["base"]})
        spec = json.loads((SIDES["base"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]

        def runner(workload, side, seed):
            print(f"  {workload} seed {seed} {side}", file=sys.stderr, flush=True)
            return bench_runner(workload, side, seed, spec["run_seconds"])

        runs = run_seeds(runner, workloads, SEEDS)
    finally:
        for path in SIDES.values():
            remove_worktree(path)

    record = {
        "commits": commits, "host": host(), "seconds": spec["run_seconds"],
        "seeds": [1, SEEDS], "workloads": {},
        **{section: {} for section in SECTIONS},
    }
    for workload, by_seed in runs.items():
        record["workloads"][workload] = {
            "order": [list(order) for _, order, _ in by_seed],
            "failed": {side: [r[side]["failed"] for _, _, r in by_seed] for side in SIDES},
        }
        for section, other in SECTIONS.items():
            rows = summarize(spec["end_to_end"], by_seed, other)
            report(f"{workload} {section}", rows, other)
            record[section][workload] = rows
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
