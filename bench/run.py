"""siqr benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

siqr is imported from the ``src`` directory of the checkout that holds
this file and from nowhere else. The workload runs in a fresh worker
process with the BLAS/OpenMP thread variables set to 1. Every file the
run writes stays under the checkout: scratch files in ``.bench_tmp/``
(removed at the end), the stamped result of each run and the spans of
the latest traced run of each workload in ``.bench_results/``.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
holds every per-module metric instead. Workloads, metrics and the
baseline are described in bench/README.md.
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
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Fresh-interpreter imports per run, half before the worker and half
# after it, so that the median spans the run rather than one moment.
IMPORT_REPEATS = 10
# Beyond --seconds: worker start, input set-up, the checks that need the
# whole run and the accuracy panel.
WORKER_GRACE_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(tmp: Path) -> dict:
    """One thread, siqr from this checkout, temporary files under tmp."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def import_seconds(module: str, env: dict, cwd: Path, repeats: int) -> list:
    """Wall times of `import <module>` in `repeats` fresh interpreters."""
    code = (
        "import time; t0 = time.perf_counter(); "
        f"import {module} as m; t1 = time.perf_counter(); print(t1 - t0); print(m.__file__)"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
            timeout=60, check=True,
        )
        seconds, where = proc.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"{module} imported from {where}, not from {ROOT / 'src'}")
        times.append(float(seconds))
    return times


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric_values(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"worker reported no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one siqr benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "siqr" / "__init__.py").is_file():
        print(f"no siqr sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0 or args.seed < 0:
        print("--seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=ROOT / ".bench_tmp"))
    try:
        env = child_env(work)
        module = "siqr.cli" if args.trace else "siqr"
        import_times = import_seconds(module, env, work, IMPORT_REPEATS // 2)
        raw_path = work / "worker.json"
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(work), "--out", str(raw_path),
             "--spans", str(results / f"{args.workload}.spans.npz")],
            env=env, cwd=work, timeout=args.seconds + WORKER_GRACE_S, check=True,
        )
        raw = json.loads(raw_path.read_text())
        import_times += import_seconds(module, env, work, IMPORT_REPEATS - IMPORT_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    imports = {"cli.import_s" if args.trace else "setup_s": statistics.median(import_times)}
    if args.trace:
        metrics = metric_values(spec["per_layer"], {**raw["per_layer"], **imports})
    else:
        values = {
            **imports,
            "ops_per_s": raw["ops_per_s"],
            "op_ms_p90": raw["op_ms_p90"],
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": raw["peak_rss_mb"],
            **raw["accuracy"],
        }
        metrics = metric_values(spec["end_to_end"], values)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "operations": attempted,
        "timed_operations": raw["ops"],
        "busy_s": raw["busy_s"],
        "op_ms_p50": raw["op_ms_p50"],
        "failed": failed,
        "failures": raw["failures"],
        "outcomes": raw["outcomes"],
        "import_repeats": IMPORT_REPEATS,
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, {failed} failed; op timings over {raw['ops']} "
          f"{'traced ' if args.trace else ''}samples, import times over {IMPORT_REPEATS}")
    for reason, count in raw["failures"].items():
        print(f"  failed x{count}: {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
