"""An independent classic RK4, to check that siqr's integrators keep their order.

siqr integrates with RK4 at the scenario's step. A change that makes it
less accurate (a lower-order scheme, a coarser step) keeps every state
finite and, for the epidemic model, keeps the population conserved to
round-off, so the other checks cannot see it. This module integrates
the same system with its own RK4 at the same step and at a quarter of
it. Against the quarter-step solution, siqr's error must stay within
ERROR_SLACK times the error of a true RK4 at the same step.
"""
from __future__ import annotations

import numpy as np

from siqr import observer

ERROR_SLACK = 2.0
# Below the smallest RK4 error at dt = 0.01 on the workload's scenarios
# (about 1.5e-13 of each component's scale) and above the round-off by
# which two RK4 implementations differ (below 1e-15).
ERROR_FLOOR = 1e-14
FINE = 4  # the reference solution takes FINE steps per step of siqr


def rk4(field, x0, t_end: float, n_steps: int) -> np.ndarray:
    """Classic RK4 for x' = field(x, t) on tuples of floats; every state."""
    dt = t_end / n_steps
    h = 0.5 * dt
    x = tuple(float(v) for v in x0)
    states = [x]
    for k in range(n_steps):
        t = k * dt
        k1 = field(x, t)
        k2 = field(tuple(a + h * b for a, b in zip(x, k1)), t + h)
        k3 = field(tuple(a + h * b for a, b in zip(x, k2)), t + h)
        k4 = field(tuple(a + dt * b for a, b in zip(x, k3)), t + dt)
        x = tuple(a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4))
        states.append(x)
    return np.array(states)


def siqr_field(full: bool, beta: float, rho: float, alpha: float, n: float):
    """The SIQR right-hand side, written out from the model equations."""

    def field(x, t):
        s, i, q, _ = x
        infection = beta * s * i / (n - q if full else n)
        return (-infection, infection - (alpha + rho) * i, alpha * i - rho * q, rho * (i + q))

    return field


def observer_field(times, y1, y2, gains, n: float):
    """siqr's observer field, driven by measurements interpolated linearly."""

    def field(x, t):
        u1, u2 = np.interp(t, times, y1), np.interp(t, times, y2)
        return tuple(observer.observer_rhs(observer.ObserverState(*x), u1, u2, gains, n))

    return field


def _error(states, fine) -> float:
    """Worst deviation from the fine solution, per component's scale."""
    on_grid = fine[::FINE]
    scale = np.max(np.abs(fine), axis=0)
    return float(np.max(np.max(np.abs(states - on_grid), axis=0) / scale))


def order_problem(field, x0, t_end: float, states) -> str | None:
    """None if `states` (n + 1 steps over [0, t_end]) are as accurate as RK4."""
    n_steps = len(states) - 1
    fine = rk4(field, x0, t_end, FINE * n_steps)
    limit = ERROR_SLACK * _error(rk4(field, x0, t_end, n_steps), fine) + ERROR_FLOOR
    error = _error(np.asarray(states), fine)
    if not error <= limit:
        return f"error {error:.3g} against a quarter-step RK4, limit {limit:.3g}"
    return None
