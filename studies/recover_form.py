"""What `recover_full` and `recover_simplified` gain from running as
straight-line code on the unpacked jet instead of through helpers.

Each recovery reads the jet once, takes rho and the log-derivative
chain as a plain tuple from `identify._chain` (which also runs the jet's
checks), checks the rates inline, and builds its `RecoveredParams` with
`tuple.__new__` (a `RecoveredParams` for a message only where it raises,
in `identify._refuse_rates`). Their earlier
form called `_check_finite`, `recover_rho` and `h_chain`, filtered each
root through `_admissible` and checked the rates in `_checked`, building
an `HChain` and a `RecoveredParams` through the named tuples' `__new__`;
`helper_full` and `helper_simplified` below keep that form, with their
own `_HChain` (`siqr.identify` no longer has one) and with each cube
written as a product, as `siqr.identify` writes it, so that both forms
do the same arithmetic. This study
checks that the two return the same values, by `repr`, or raise the same
exception class with the same message, on jets drawn from 20-day
outbreaks of both kinds (late full-model jets raise
`RootSelectionError`) and on literal edge jets that reach every raise
branch of both recoveries, and prints the median time per call of each
over repeats that rotate which form runs first.

    PYTHONPATH=src python studies/recover_form.py [--jets 2000] [--repeats 60]
"""
from __future__ import annotations

import argparse
import math
import statistics
import time
from typing import NamedTuple

import numpy as np

from siqr import (DegenerateInputError, IntegratorConfig, ModelKind, ModelParams, OutputJet,
                  RegimeError, RootSelectionError, SingularPointError, integrate, output_jets,
                  recover_full, recover_simplified, vector_field)
from siqr.identify import RecoveredParams
from siqr.models import is_full


class _HChain(NamedTuple):
    """The log-derivative chain of y1, as the earlier `h_chain` returned it."""

    h1: float
    dh1: float
    ddh1: float
    h2: float
    dh2: float


def _check_finite(jet):
    if 0.0 * jet.y1 * jet.dy1 * jet.d2y1 * jet.d3y1 * jet.y2 * jet.dy2 * jet.d2y2 == 0.0:
        return
    for name in ("y1", "dy1", "d2y1", "d3y1", "y2", "dy2", "d2y2"):
        value = getattr(jet, name)
        if not math.isfinite(value):
            raise DegenerateInputError(
                f"jet entry {name} must be finite, got {value!r} (t={jet.t!r})"
            )


def _recover_rho(jet):
    if jet.y2 <= 0:
        raise SingularPointError(
            f"rho recovery needs y2 > 0, got y2={jet.y2!r} (t={jet.t!r})"
        )
    return float((jet.y1 - jet.dy2) / jet.y2)


def _h_chain(jet, N):
    if jet.y1 <= 0:
        raise SingularPointError(
            f"log-derivative chain needs y1 > 0, got y1={jet.y1!r} (t={jet.t!r})"
        )
    a1 = jet.dy1 / jet.y1
    a2 = jet.d2y1 / jet.y1
    a3 = jet.d3y1 / jet.y1
    dh1 = a2 - a1 * a1
    ddh1 = a3 - 3.0 * a1 * a2 + 2.0 * (a1 * a1 * a1)
    h2 = (N - jet.y2) * dh1
    dh2 = -jet.dy2 * dh1 + (N - jet.y2) * ddh1
    if not 0.0 * a1 * dh1 * ddh1 * h2 * dh2 == 0.0:
        raise DegenerateInputError(
            f"log-derivative chain overflows, dy1/y1={a1!r} (t={jet.t!r})"
        )
    return _HChain(a1, dh1, ddh1, h2, dh2)


def _admissible(x, chain, rho, jet):
    if not x < 0:
        return None
    alpha = chain.h2 / x - chain.h1 - rho
    if not alpha > 0:
        return None
    beta = alpha * (jet.dy2 - x) / jet.y1
    if not beta > 0:
        return None
    return alpha, beta


def _checked(rec, jet):
    if not 0.0 * rec.rho * rec.alpha * rec.beta * rec.epsilon == 0.0:
        raise DegenerateInputError(f"recovery overflows, got {rec!r} (t={jet.t!r})")
    if not (rec.rho > 0 and rec.alpha > 0 and rec.beta > 0):
        raise RegimeError(f"recovered rates must be positive, got {rec!r} (t={jet.t!r})")
    return rec


def helper_full(jet, y1_at_0, N):
    """`recover_full` as it was, through the helpers above."""
    _check_finite(jet)
    rho = _recover_rho(jet)
    chain = _h_chain(jet, N)
    A = chain.dh1
    B = chain.h2 * chain.h1 - chain.dh2
    C = chain.h2 * (-chain.h1 * jet.dy2 + jet.d2y2)
    if A == 0.0:
        if B == 0.0:
            raise DegenerateInputError("recovery quadratic vanished identically")
        roots = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        if disc < 0:
            raise DegenerateInputError(
                f"recovery quadratic has no real root (discriminant {disc!r})"
            )
        if not 0.0 * disc == 0.0:
            raise DegenerateInputError(
                f"recovery quadratic overflows, discriminant {disc!r} (t={jet.t!r})"
            )
        sq = math.sqrt(disc)
        q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else 0.5 * sq
        roots = [q / A] if q == 0.0 else [q / A, C / q]
    admissible = []
    for x in roots:
        ab = _admissible(x, chain, rho, jet)
        if ab is not None:
            admissible.append((x, ab))
    if not admissible:
        raise RootSelectionError(
            f"no negative root with positive rates among {roots!r}"
        )
    if len(admissible) > 1 and not math.isclose(
        admissible[0][0], admissible[1][0], rel_tol=1e-9
    ):
        raise RootSelectionError(
            f"ambiguous root selection, candidates {[x for x, _ in admissible]!r}"
        )
    x, (alpha, beta) = admissible[0]
    return _checked(RecoveredParams(rho, float(alpha), float(beta), float(y1_at_0 / alpha)), jet)


def helper_simplified(jet, y1_at_0, N):
    """`recover_simplified` as it was, through the helpers above."""
    _check_finite(jet)
    rho = _recover_rho(jet)
    chain = _h_chain(jet, N)
    if chain.dh1 >= 0:
        raise RegimeError(
            f"dh1 must be negative on simplified-model data, got {chain.dh1!r}"
        )
    h1 = chain.h1 + rho
    a1 = chain.h1
    a2 = jet.d2y1 / jet.y1
    a3 = jet.d3y1 / jet.y1
    beta_i = N * (4.0 * a1 * a2 - 3.0 * (a1 * a1 * a1) - a3) / chain.dh1
    if beta_i == 0.0:
        raise DegenerateInputError(f"beta*I vanishes at t={jet.t!r}")
    alpha = -N * chain.dh1 / beta_i - h1
    if alpha == 0.0:
        raise DegenerateInputError(f"alpha vanishes at t={jet.t!r}")
    beta = alpha * beta_i / jet.y1
    return _checked(RecoveredParams(rho, float(alpha), float(beta), float(y1_at_0 / alpha)), jet)


FORMS = {
    ModelKind.FULL: {"straight": recover_full, "helpers": helper_full},
    ModelKind.SIMPLIFIED: {"straight": recover_simplified, "helpers": helper_simplified},
}

_NAN, _INF = float("nan"), float("inf")
# A jet of the reference outbreak (I0 = 10, Q0 = 5, dt = 0.01) at t = 3
# that both recoveries invert, as a base for edge jets.
_JET = OutputJet(3.0, 1.3953257181659284, 0.32078749994159633, 0.0737113446221819,
                 0.016919724046432664, 2.6573948047927427, 1.1295862376866541,
                 0.20782887617293092)
# Edge calls (jet, y1_at_0, N, start of the message raised), one or more
# per raise branch of each recovery, in the order of its checks.
_BOTH = [
    (_JET._replace(y1=_NAN), 0.7, 1e5, "DegenerateInputError: jet entry y1 must be finite"),
    (_JET._replace(d2y2=-_INF), 0.7, 1e5, "DegenerateInputError: jet entry d2y2 must be finite"),
    (_JET._replace(y2=0.0), 0.7, 1e5, "SingularPointError: rho recovery needs y2 > 0"),
    (_JET._replace(y1=-1.0), 0.7, 1e5, "SingularPointError: log-derivative chain needs y1 > 0"),
    # dy1/y1 = 1e103, whose cube overflows to inf, so dh2 = inf.
    (_JET._replace(y1=1.0, dy1=1e103, d2y1=-1.0, d3y1=0.0), 0.7, 1e5,
     "DegenerateInputError: log-derivative chain overflows"),
    # dy1/y1 = -inf, so dh2 = inf - inf.
    (OutputJet(1.0, 1e-300, -1e10, -1e10, -1e10, 5.0, 0.1, 0.01), 0.7, 1e5,
     "DegenerateInputError: log-derivative chain overflows"),
    # Finite rates, but epsilon = y1_at_0 / alpha overflows.
    (_JET, 1e308, 1e5, "DegenerateInputError: recovery overflows"),
]
EDGE_CALLS = {
    ModelKind.FULL: _BOTH + [
        (OutputJet(1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 0.1, 0.01), 0.7, 1e5,
         "DegenerateInputError: recovery quadratic vanished identically"),
        (OutputJet(1.0, 1.0, -1.0, 0.5, 1.0, 5.0, -1.0, 2.0), 0.7, 1e5,
         "DegenerateInputError: recovery quadratic has no real root"),
        (OutputJet(1.0, 1e-200, -1e-100, 1e-50, 1e-10, 5.0, 0.1, 0.01), 0.7, 1e5,
         "DegenerateInputError: recovery quadratic overflows"),
        # A = C = 0: the one root is -0.0.
        (OutputJet(1.0, 1.0, 1.0, 1.0, 2.0, 5.0, 0.1, 0.01), 0.7, 1e5,
         "RootSelectionError: no negative root with positive rates"),
        # The positive root fails x < 0; the negative one implies beta < 0.
        (OutputJet(1.0, 1.0, -2.0, -2.0, -2.0, 5.0, -2.0, -2.0), 0.7, 1e5,
         "RootSelectionError: no negative root with positive rates"),
        # The reference outbreak at t = 11.47: two admissible roots.
        (OutputJet(11.47, 9.758788609383606, 2.236332541302696, 0.5105683417450643,
                   0.11569005116417477, 30.530098041545155, 6.70577880522909,
                   1.565754660779787), 0.7, 1e5,
         "RootSelectionError: ambiguous root selection"),
        (OutputJet(1.0, 1.0, -1.0, 0.5, 1.0, 5.0, 2.0, -2.0), 0.7, 1e5,
         "RegimeError: recovered rates must be positive"),
    ],
    ModelKind.SIMPLIFIED: _BOTH + [
        (OutputJet(1.0, 1.0, 1.0, 2.0, 0.0, 1.0, 0.9, 0.0), 1.0, 1e5,
         "RegimeError: dh1 must be negative"),
        (OutputJet(1.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.5, 0.0), 0.7, 1.0,
         "DegenerateInputError: beta*I vanishes"),
        (OutputJet(1.0, 1.0, 0.0, -1.0, 2.0, 1.0, 0.5, 0.0), 0.7, 1.0,
         "DegenerateInputError: alpha vanishes"),
        (OutputJet(1.0, 1e-200, -1e-100, 1e-50, 1e-10, 5.0, 0.1, 0.01), 0.7, 1e5,
         "DegenerateInputError: recovery overflows"),
        (OutputJet(1.0, 1.0, -2.0, -2.0, -2.0, 5.0, -2.0, -2.0), 0.7, 1e5,
         "RegimeError: recovered rates must be positive"),
    ],
}


def outcome(recover, args) -> str:
    """The `repr` of what `recover(*args)` returns, or the class and
    message of the ValueError it raises."""
    try:
        return repr(recover(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def drawn_calls(kind, count: int, seed: int = 17) -> list:
    """`count` argument tuples (jet, y1_at_0, N) of a recovery, all Python
    floats (`ModelParams` stores the drawn rates as floats): jets at drawn
    steps of four outbreaks of `kind` with drawn rates, integrated over
    20 days."""
    rng = np.random.default_rng([seed, is_full(kind)])
    cfg = IntegratorConfig(dt=0.01, horizon=20.0)
    runs = []
    for _ in range(4):
        beta, rho, alpha, log4_n = rng.uniform([0.3, 0.08, 0.05, 0.0], [0.5, 0.12, 0.08, 1.0])
        params = ModelParams(beta=beta, rho=rho, alpha=alpha, N=5e4 * 4.0**log4_n)
        traj = integrate(vector_field(kind, params), [params.N - 15.0, 10.0, 5.0, 0.0], cfg)
        runs.append((params, traj.states.tolist(), traj.times.tolist()))
    calls = []
    for j, step in zip(rng.integers(0, len(runs), count), rng.integers(0, cfg.n_steps + 1, count)):
        params, states, times = runs[j]
        jet = output_jets(states[step], params, kind, t=times[step])
        calls.append((jet, params.alpha * 10.0, params.N))
    return calls


def measure(jets: int = 2000, repeats: int = 60) -> dict:
    """{"recover <kind>": (outcomes equal and each edge call raises as
    listed, median s per call straight, median s per call helpers)}."""
    results = {}
    for kind in ModelKind:
        forms = FORMS[kind]
        edges = EDGE_CALLS[kind]
        calls = drawn_calls(kind, jets) + [edge[:3] for edge in edges]
        outcomes = {form: [outcome(f, args) for args in calls] for form, f in forms.items()}
        edge_outcomes = outcomes["straight"][len(calls) - len(edges) :]
        edges_hit = all(out.startswith(edge[3]) for out, edge in zip(edge_outcomes, edges))
        times = {form: [] for form in forms}
        order = list(forms)
        for r in range(repeats):
            for form in order[r % len(order) :] + order[: r % len(order)]:
                recover = forms[form]
                start = time.perf_counter()
                for args in calls:
                    try:
                        recover(*args)
                    except ValueError:
                        pass
                times[form].append((time.perf_counter() - start) / len(calls))
        results[f"recover {kind.value}"] = (
            outcomes["straight"] == outcomes["helpers"] and edges_hit,
            statistics.median(times["straight"]),
            statistics.median(times["helpers"]),
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jets", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=60)
    args = parser.parse_args(argv)
    print(f"{'case':<20} {'values':<6} {'straight us':>11} {'helpers us':>10} "
          f"{'helpers/straight':>17}")
    for name, (equal, straight, helpers) in measure(args.jets, args.repeats).items():
        print(f"{name:<20} {'equal' if equal else 'DIFFER':<6} {1e6 * straight:>11.3f} "
              f"{1e6 * helpers:>10.3f} {helpers / straight:>17.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
