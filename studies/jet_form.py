"""What `output_jets` gains from writing its Taylor recurrence out order
by order instead of running it in a loop over the orders.

`output_jets` computes the Taylor coefficients of (S, I, Q) as
straight-line code, one block per model kind. Its earlier form ran the
same recurrence x_{k+1} = [rhs(x)]_k / (k+1) in a generic loop over the
three orders, with list appends, inner sum loops and per-order branches;
`loop_jets` below keeps that form. This study checks that the two give
the same bits, the sign of a zero included, on states drawn from
outbreaks of both kinds and on edge states with I = 0, and prints the
median time per call of each over repeats that rotate which form runs
first.

    PYTHONPATH=src python studies/jet_form.py [--states 2000] [--repeats 60]

An earlier attempt at the straight-line form gained about 10%, while
the jet still summed its products with `np.dot`; on Python floats the
loop's own bookkeeping is most of the cost.
"""
from __future__ import annotations

import argparse
import statistics
import struct
import time

import numpy as np

from siqr import (DomainError, EpidemicState, IntegratorConfig, ModelKind, ModelParams, OutputJet,
                  integrate, output_jets, vector_field)
from siqr.models import is_full

EDGE_STATES = [
    EpidemicState(99995.0, 0.0, 5.0, 0.0),
    EpidemicState(99990.0, 10.0, 0.0, 0.0),
    EpidemicState(1e5, 0.0, 0.0, 0.0),
    EpidemicState(-1.0, 0.0, 5.0, 0.0),
]


def _taylor_coefficients(state, params, kind):
    """Taylor coefficients of (S, I, Q) as lists of Python floats, S and
    Q to order 2, I to order 3, by the recurrence in a loop over the
    orders: the form `output_jets` replaced."""
    beta, rho, alpha = float(params.beta), float(params.rho), float(params.alpha)
    N = float(params.N)
    s0, i0, q0, _ = state
    S, I, Q = [float(s0)], [float(i0)], [float(q0)]
    full = is_full(kind)
    if full:
        pool0 = N - Q[0]
        if pool0 <= 0:
            raise DomainError(
                f"full model needs Q < N, got Q={q0!r} with N={params.N!r}"
            )
        G = []  # coefficients of S*I/(N - Q)
    for k in range(3):
        si_k = S[0] * I[k]
        for j in range(1, k + 1):
            si_k += S[j] * I[k - j]
        if full:
            # (N - Q) * G = S*I, solved coefficient by coefficient.
            correction = Q[1] * G[k - 1] if k else 0.0
            for j in range(2, k + 1):
                correction += Q[j] * G[k - j]
            G.append((si_k + correction) / pool0)
            infection_k = beta * G[k]
        else:
            infection_k = beta * si_k / N
        I.append((infection_k - alpha * I[k] - rho * I[k]) / (k + 1))
        if k < 2:
            S.append(-infection_k / (k + 1))
            Q.append((alpha * I[k] - rho * Q[k]) / (k + 1))
    return S, I, Q


def loop_jets(state, params, kind, t=0.0) -> OutputJet:
    """`output_jets` as it was, over `_taylor_coefficients`."""
    _, I, Q = _taylor_coefficients(state, params, kind)
    a = float(params.alpha)
    return OutputJet(
        float(t), a * I[0], a * I[1], 2.0 * a * I[2], 6.0 * a * I[3], Q[0], Q[1], 2.0 * Q[2]
    )


FORMS = {"straight": output_jets, "loop": loop_jets}


def drawn_calls(kind, count: int, seed: int = 17) -> list:
    """`count` argument tuples (state, params, kind, t) of `output_jets`:
    states at drawn steps of four outbreaks of `kind` with drawn rates,
    integrated over 20 days, then the edge states at the first rates."""
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
        calls.append((states[step], params, kind, times[step]))
    return calls + [(state, runs[0][0], kind, 0.0) for state in EDGE_STATES]


def measure(states: int = 2000, repeats: int = 60) -> dict:
    """{"jet <kind>": (bits equal, median s per call straight, median s
    per call loop)}."""
    results = {}
    for kind in ModelKind:
        calls = drawn_calls(kind, states)
        bits = {
            form: [struct.pack("<8d", *jet(*args)) for args in calls] for form, jet in FORMS.items()
        }
        times = {form: [] for form in FORMS}
        order = list(FORMS)
        for r in range(repeats):
            for form in order[r % len(order) :] + order[: r % len(order)]:
                jet = FORMS[form]
                start = time.perf_counter()
                for args in calls:
                    jet(*args)
                times[form].append((time.perf_counter() - start) / len(calls))
        results[f"jet {kind.value}"] = (
            bits["straight"] == bits["loop"],
            statistics.median(times["straight"]),
            statistics.median(times["loop"]),
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--states", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=60)
    args = parser.parse_args(argv)
    print(f"{'case':<16} {'bits':<6} {'straight us':>11} {'loop us':>8} {'loop/straight':>14}")
    for name, (equal, straight, loop) in measure(args.states, args.repeats).items():
        print(f"{name:<16} {'equal' if equal else 'DIFFER':<6} {1e6 * straight:>11.3f} "
              f"{1e6 * loop:>8.3f} {loop / straight:>14.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
