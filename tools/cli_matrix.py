"""Digest what `python -m siqr` writes over a fixed matrix of cases.

    python tools/cli_matrix.py SRC_DIR [CASE ...]

SRC_DIR is the directory that holds the `siqr` package (a checkout's
`src`); it is the PYTHONPATH of every run. Each case runs in a fresh
temporary directory, with `out.dir = out`, and prints one line per
output file, then stdout, stderr and the exit code:

    case  name  sha256

so two revisions compare with one diff:

    python tools/cli_matrix.py old/src > old.txt
    python tools/cli_matrix.py src > new.txt
    diff old.txt new.txt

SRC_DIR is replaced by `SRC` in stdout and stderr, so a traceback
digests the same from either checkout. The `generated` case runs one
process that simulates and estimates both model kinds and digests each
source that `siqr` generated and compiled there (the RK4 blocks and the
field forms, as registered in linecache), one line each:

    generated  <siqr rk4 model>  sha256

so a diff also shows whether the generated hot loop changed. The
`library` case runs one process that digests, for each kind, library
entry points that no command reaches (`identify --t` reaches one jet).
On the noisy reference run: the observer's start (the run's first
state, `Scenario.observer_init` of the guarded first samples) and
`observer_rhs` at every 10th observer state, driven by that row's
measurements (all positive, so the guard leaves them as they are). On
the noise-free reference run over 20 days: `output_jets` at every 10th
state, and the recovery at each of those jets, its returned values or
the class name and message of what it raised:

    library  observer_rhs full  sha256
    library  recover full  sha256

Then, for 100 drawn pairs of pole vectors (each a scale from 1e-11 to
5e5 times factors from 0.5 to 2) and the all-1e-300 and all-1e300
pairs: the gains `gains(lam, mu).K` and the report of
`verify_pole_placement(gains(lam, mu), 1e5)`:

    library  gains  sha256

With CASE names, only those cases run. The whole matrix starts one
process per case, one at a time.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _cases():
    """{case name: (scenario lines, command arguments)}."""
    cases = {}
    for kind in ("full", "simplified"):
        config = f"model.kind = {kind}\n"
        for command in ("simulate", "observe", "estimate"):
            cases[f"{kind}/{command}"] = (config, [command])
            cases[f"{kind}/{command}--no-noise"] = (config, [command, "--no-noise"])
        cases[f"{kind}/identify--t3"] = (config, ["identify", "--t", "3"])
        cases[f"{kind}/check"] = (config, ["check"])
    # The first step carries the full model past Q = N (exit 3).
    for command in ("simulate", "observe", "estimate", "identify", "check"):
        args = [command, "--t", "3"] if command == "identify" else [command]
        cases[f"beta1e300/{command}"] = ("params.beta = 1e300\n", args)
    # Fast placement into quarantine, and a recovery instant past the
    # horizon (exit 2).
    cases["alpha50/simulate"] = ("params.alpha = 50\n", ["simulate"])
    # At 20 and 30 days the observer's fixed step is too long for its flow
    # poles (stiffness 0.99 and 7.98): estimate refuses both before the
    # observer steps (exit 2, no output files).
    cases["horizon30/estimate"] = ("sim.horizon = 30\n", ["estimate"])
    cases["horizon20/estimate--no-noise"] = ("sim.horizon = 20\n", ["estimate", "--no-noise"])
    # y2 = Q starts at 0: the one case whose guard substitutes a sample.
    cases["Q0zero/estimate"] = ("init.Q0 = 0\n", ["estimate"])
    cases["identify--t20"] = ("", ["identify", "--t", "20"])
    return cases


# Run with SRC_DIR on sys.path; prints "name  sha256" per generated source.
_GENERATED = """\
import hashlib, linecache
from siqr import ModelKind, Scenario
from siqr.cli import estimate_scenario
for kind in ModelKind:
    estimate_scenario(Scenario(kind=kind))
for name in sorted(name for name in linecache.cache if name.startswith("<siqr ")):
    text = "".join(linecache.cache[name][2]).encode()
    print(name, hashlib.sha256(text).hexdigest(), sep="  ")
"""


# Run with SRC_DIR on sys.path; prints "name  sha256" per library digest.
_LIBRARY = """\
import hashlib
import numpy as np
from siqr import (ModelKind, Scenario, gains, observer_rhs, output_jets, recover_full,
                  recover_simplified, verify_pole_placement)
from siqr.cli import estimate_scenario, make_measurements, simulate_truth
for kind in ModelKind:
    sc = Scenario(kind=kind)
    run = estimate_scenario(sc)[1]
    init = run.trajectory.states[0]
    record = make_measurements(sc, True)[2]
    rows = zip(run.trajectory.states[::10], record.y1[::10], record.y2[::10])
    rhs = [observer_rhs(x, y1, y2, sc.gain_set(), sc.N, kind) for x, y1, y2 in rows]
    truth = simulate_truth(Scenario(kind=kind, horizon=20.0))
    rows = zip(truth.states[::10].tolist(), truth.times[::10].tolist())
    jets = [output_jets(x, sc.params(), kind, t=t) for x, t in rows]
    recover = recover_full if kind is ModelKind.FULL else recover_simplified
    recovered = []
    for jet in jets:
        try:
            recovered.append(repr(tuple(recover(jet, sc.alpha * sc.I0, sc.N))))
        except ValueError as exc:
            recovered.append(f"{type(exc).__name__}: {exc}")
    for name, value in (("observer_init", init), ("observer_rhs", rhs), ("output_jets", jets)):
        data = np.asarray(value, dtype=float).tobytes()
        print(f"{name} {kind.value}", hashlib.sha256(data).hexdigest(), sep="  ")
    data = "\\n".join(recovered).encode()
    print(f"recover {kind.value}", hashlib.sha256(data).hexdigest(), sep="  ")
rng = np.random.default_rng(0)
poles = [tuple((rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-11.0, 5.7)).tolist())
         for _ in range(100) for n in (4, 3)]
poles = [*zip(poles[::2], poles[1::2]), *(((p,) * 4, (p,) * 3) for p in (1e-300, 1e300))]
data = np.asarray([gains(lam, mu).K for lam, mu in poles], dtype=float).tobytes()
print("gains", hashlib.sha256(data).hexdigest(), sep="  ")
data = "\\n".join(repr(verify_pole_placement(gains(lam, mu), 1e5)) for lam, mu in poles).encode()
print("verify_pole_placement", hashlib.sha256(data).hexdigest(), sep="  ")
"""
_SCRIPTS = {"generated": _GENERATED, "library": _LIBRARY}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(src: Path, case: str) -> list:
    """The `case  name  sha256` lines that the one-process case prints."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPTS[case]], env=env, capture_output=True, text=True, check=True
    )
    return [f"{case}  {line}" for line in run.stdout.splitlines()]


def run_case(src: Path, case: str, config: str, args: list) -> list:
    """The `case  name  sha256` lines of one case."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scenario.cfg").write_text(config + "out.dir = out\n")
        run = subprocess.run(
            [sys.executable, "-m", "siqr", *args, "--config", "scenario.cfg"],
            cwd=work, env=env, capture_output=True,
        )
        outputs = {
            path.relative_to(work).as_posix(): path.read_bytes()
            for path in sorted((work / "out").rglob("*")) if path.is_file()
        }
    outputs["stdout"] = run.stdout.replace(os.fsencode(src), b"SRC")
    outputs["stderr"] = run.stderr.replace(os.fsencode(src), b"SRC")
    outputs["exit"] = str(run.returncode).encode()
    return [f"{case}  {name}  {_sha(data)}" for name, data in outputs.items()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    src, chosen = Path(argv[0]).resolve(), argv[1:]
    cases = _cases()
    names = [*cases, *_SCRIPTS]
    unknown = [case for case in chosen if case not in names]
    if unknown:
        print(f"unknown case {unknown[0]!r}; cases: {', '.join(names)}", file=sys.stderr)
        return 2
    for case in chosen or names:
        lines = run_script(src, case) if case in _SCRIPTS else run_case(src, case, *cases[case])
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
