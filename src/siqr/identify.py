"""Exact recovery of (rho, alpha, beta) and the initial infected count.

On noise-free data the model parameters are algebraic functions of one
output jet taken at any instant with positive measurements. The recovery
route differs between the two model variants:

* full model: the log-derivative chain of y1 leads to a quadratic in the
  auxiliary variable X = dQ/dt - beta*I whose admissible root yields
  alpha, then beta;
* simplified model: beta*I has a closed form in the first and second
  derivatives of the log-derivative of y1.

Both routes share rho = (y1 - dy2) / y2, read directly off the
quarantine dynamics.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DegenerateInputError,
    RegimeError,
    RootSelectionError,
    SingularPointError,
)
from .observation import OutputJet

__all__ = [
    "RecoveredParams",
    "recover_full",
    "recover_simplified",
    "check_initial_inequalities",
]


class RecoveredParams(NamedTuple):
    """Rates (1/day) plus the initial infected count (individuals), a
    length-4 tuple."""

    rho: float
    alpha: float
    beta: float
    epsilon: float


def _chain(t, y1, dy1, d2y1, d3y1, y2, dy2, d2y2, N):
    """rho and the log-derivative chain of y1 from a jet's entries, as
    the plain tuple (rho, h1, dh1, ddh1, h2, dh2); both recoveries open
    with it on their unpacked jet (unpacking a named tuple costs more
    than passing its entries on).

    h1 is dy1/y1 (full-model convention; the simplified route adds rho
    separately), dh1 and ddh1 its first two time derivatives, h2 the
    pool-scaled slope (N - y2) * dh1 and dh2 its derivative. In this
    order it raises DegenerateInputError naming the first jet entry that
    is not finite, SingularPointError for y2 <= 0 (rho) and for y1 <= 0
    (the chain), and DegenerateInputError where the chain overflows.
    """
    # 0.0 * x is a zero for finite x and NaN for an infinite or NaN x, so
    # one product checks the seven entries; the loop names one.
    if not 0.0 * y1 * dy1 * d2y1 * d3y1 * y2 * dy2 * d2y2 == 0.0:
        for name, value in zip(OutputJet._fields[1:], (y1, dy1, d2y1, d3y1, y2, dy2, d2y2)):
            if not math.isfinite(value):
                raise DegenerateInputError(
                    f"jet entry {name} must be finite, got {value!r} (t={t!r})"
                )
    if y2 <= 0:
        raise SingularPointError(f"rho recovery needs y2 > 0, got y2={y2!r} (t={t!r})")
    rho = float((y1 - dy2) / y2)
    if y1 <= 0:
        raise SingularPointError(
            f"log-derivative chain needs y1 > 0, got y1={y1!r} (t={t!r})"
        )
    a1 = dy1 / y1
    a2 = d2y1 / y1
    a3 = d3y1 / y1
    dh1 = a2 - a1 * a1
    ddh1 = a3 - 3.0 * a1 * a2 + 2.0 * (a1 * a1 * a1)
    h2 = (N - y2) * dh1
    dh2 = -dy2 * dh1 + (N - y2) * ddh1
    # One product checks the five values, as for the jet's entries.
    if not 0.0 * a1 * dh1 * ddh1 * h2 * dh2 == 0.0:
        raise DegenerateInputError(
            f"log-derivative chain overflows, dy1/y1={a1!r} (t={t!r})"
        )
    return rho, a1, dh1, ddh1, h2, dh2


def _refuse_rates(t, rho, alpha, beta, epsilon):
    """Raise DegenerateInputError for rates that overflow, else
    RegimeError for rates that are not all positive."""
    rec = RecoveredParams(rho, alpha, beta, epsilon)
    if not 0.0 * rho * alpha * beta * epsilon == 0.0:
        raise DegenerateInputError(f"recovery overflows, got {rec!r} (t={t!r})")
    raise RegimeError(f"recovered rates must be positive, got {rec!r} (t={t!r})")


def recover_full(jet: OutputJet, y1_at_0: float, N: float) -> RecoveredParams:
    """Recover all parameters from a full-model jet at some t > 0.

    Solves dh1*X^2 + (h2*h1 - dh2)*X + h2*(d2y2 - h1*dy2) = 0 for
    X = dy2 - beta*I and keeps the negative root that implies positive
    rates. Early in an epidemic the negative root is unique; later both
    roots may be negative, and only one survives the positivity filter.
    A jet with an entry that is not finite raises DegenerateInputError,
    and so does a finite jet whose chain, quadratic or rates overflow.
    Finite rates with rho <= 0 raise RegimeError.
    """
    # Straight-line code on the unpacked jet, with no named tuple built on
    # the way: helper calls and NamedTuple construction cost more than the
    # arithmetic (studies/recover_form.py).
    t, y1, dy1, d2y1, d3y1, y2, dy2, d2y2 = jet
    rho, h1, dh1, _, h2, dh2 = _chain(t, y1, dy1, d2y1, d3y1, y2, dy2, d2y2, N)
    B = h2 * h1 - dh2
    C = h2 * (-h1 * dy2 + d2y2)
    if dh1 == 0.0:
        if B == 0.0:
            raise DegenerateInputError("recovery quadratic vanished identically")
        roots = [-C / B]
    else:
        disc = B * B - 4.0 * dh1 * C
        if disc < 0:
            raise DegenerateInputError(
                f"recovery quadratic has no real root (discriminant {disc!r})"
            )
        if not 0.0 * disc == 0.0:
            raise DegenerateInputError(
                f"recovery quadratic overflows, discriminant {disc!r} (t={t!r})"
            )
        sq = math.sqrt(disc)
        # Stable form: avoid cancellation between -B and the radical.
        q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else 0.5 * sq
        roots = [q / dh1] if q == 0.0 else [q / dh1, C / q]
    # (x, alpha, beta) per admissible root: x < 0 and positive rates,
    # each test written so that NaN fails it.
    admissible = []
    for x in roots:
        if x < 0:
            alpha = h2 / x - h1 - rho
            if alpha > 0:
                beta = alpha * (dy2 - x) / y1
                if beta > 0:
                    admissible.append((x, alpha, beta))
    if not admissible:
        raise RootSelectionError(
            f"no negative root with positive rates among {roots!r}"
        )
    x, alpha, beta = admissible[0]
    if len(admissible) > 1 and not math.isclose(x, admissible[1][0], rel_tol=1e-9):
        raise RootSelectionError(
            f"ambiguous root selection, candidates {[a[0] for a in admissible]!r}"
        )
    alpha, beta, epsilon = float(alpha), float(beta), float(y1_at_0 / alpha)
    if not (0.0 * rho * alpha * beta * epsilon == 0.0 and rho > 0 and alpha > 0 and beta > 0):
        _refuse_rates(t, rho, alpha, beta, epsilon)
    return tuple.__new__(RecoveredParams, (rho, alpha, beta, epsilon))


def recover_simplified(jet: OutputJet, y1_at_0: float, N: float) -> RecoveredParams:
    """Recover all parameters from a simplified-model jet at some t > 0.

    With the rho-shifted convention h1 = dy1/y1 + rho one has
    dh1 = -(beta*I/N)*(h1 + alpha) and ddh1 = dh1*(h1 - rho - beta*I/N),
    hence beta*I = -N*(ddh1/dh1 - h1 + rho) and then
    alpha = -N*dh1/(beta*I) - h1. Requires dh1 < 0, which holds on any
    simplified-model trajectory with I > 0; a non-negative dh1 signals
    the wrong model or no epidemic. A jet with an entry that is not
    finite, one whose chain or rates overflow, or one that makes beta*I
    or alpha exactly zero, raises DegenerateInputError. A rate <= 0, as
    on runs with R0 <= 1, raises RegimeError.
    """
    # Straight-line code on the unpacked jet, as in recover_full.
    t, y1, dy1, d2y1, d3y1, y2, dy2, d2y2 = jet
    rho, a1, dh1, _, _, _ = _chain(t, y1, dy1, d2y1, d3y1, y2, dy2, d2y2, N)
    if dh1 >= 0:
        raise RegimeError(
            f"dh1 must be negative on simplified-model data, got {dh1!r}"
        )
    h1 = a1 + rho
    # beta*I/N = dy1/y1 - ddh1/dh1 evaluated in fused form: the staged
    # version subtracts two nearly equal O(1) ratios and loses the tiny
    # difference to roundoff.
    a2 = d2y1 / y1
    a3 = d3y1 / y1
    beta_i = N * (4.0 * a1 * a2 - 3.0 * (a1 * a1 * a1) - a3) / dh1
    if beta_i == 0.0:
        raise DegenerateInputError(f"beta*I vanishes at t={t!r}")
    alpha = -N * dh1 / beta_i - h1
    if alpha == 0.0:
        raise DegenerateInputError(f"alpha vanishes at t={t!r}")
    beta = alpha * beta_i / y1
    alpha, beta, epsilon = float(alpha), float(beta), float(y1_at_0 / alpha)
    if not (0.0 * rho * alpha * beta * epsilon == 0.0 and rho > 0 and alpha > 0 and beta > 0):
        _refuse_rates(t, rho, alpha, beta, epsilon)
    return tuple.__new__(RecoveredParams, (rho, alpha, beta, epsilon))


def check_initial_inequalities(params, epsilon: float) -> dict:
    """Sign conditions at t = 0 (outbreak seeded with Q(0) = 0).

    dh1_at_0 is the initial slope of the y1 log-derivative,
    (beta*eps/N)(alpha - beta)(1 - eps/N); cterm_at_0 is the constant
    coefficient of the recovery quadratic,
    alpha*beta*rho*eps^2*(beta - alpha)(1 - eps/N). Root selection is
    well posed near t = 0 when the first is negative and the second
    positive, which happens exactly when beta > alpha.
    """
    if not 0 < epsilon < params.N:
        raise ValueError(f"epsilon must lie in (0, N), got {epsilon!r}")
    depletion = 1.0 - epsilon / params.N
    dh1_at_0 = params.beta * epsilon / params.N * (params.alpha - params.beta) * depletion
    cterm_at_0 = (
        params.alpha
        * params.beta
        * params.rho
        * (epsilon * epsilon)
        * (params.beta - params.alpha)
        * depletion
    )
    return {
        "dh1_at_0": dh1_at_0,
        "cterm_at_0": cterm_at_0,
        "ok": dh1_at_0 < 0 and cterm_at_0 > 0,
    }
