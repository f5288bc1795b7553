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
    "HChain",
    "recover_rho",
    "h_chain",
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


class HChain(NamedTuple):
    """Log-derivative chain of y1 evaluated from one jet, a length-5 tuple.

    h1 is dy1/y1 (full-model convention; the simplified route adds rho
    separately), dh1 and ddh1 its first two time derivatives, h2 the
    pool-scaled slope (N - y2) * dh1 and dh2 its derivative.
    """

    h1: float
    dh1: float
    ddh1: float
    h2: float
    dh2: float


def _check_finite(jet: OutputJet) -> None:
    """Raise DegenerateInputError naming the first entry of the jet that
    is not finite."""
    # 0.0 * x is a zero for finite x and NaN for an infinite or NaN x, so
    # one product checks the seven entries; the loop only names one.
    if 0.0 * jet.y1 * jet.dy1 * jet.d2y1 * jet.d3y1 * jet.y2 * jet.dy2 * jet.d2y2 == 0.0:
        return
    for name in ("y1", "dy1", "d2y1", "d3y1", "y2", "dy2", "d2y2"):
        value = getattr(jet, name)
        if not math.isfinite(value):
            raise DegenerateInputError(
                f"jet entry {name} must be finite, got {value!r} (t={jet.t!r})"
            )


def recover_rho(jet: OutputJet) -> float:
    """rho = (y1 - dy2)/y2; singular where the quarantine is empty."""
    if jet.y2 <= 0:
        raise SingularPointError(
            f"rho recovery needs y2 > 0, got y2={jet.y2!r} (t={jet.t!r})"
        )
    return float((jet.y1 - jet.dy2) / jet.y2)


def h_chain(jet: OutputJet, N: float) -> HChain:
    """Evaluate the log-derivative chain of y1 from a jet; raise
    DegenerateInputError if one of its values overflows."""
    if jet.y1 <= 0:
        raise SingularPointError(
            f"log-derivative chain needs y1 > 0, got y1={jet.y1!r} (t={jet.t!r})"
        )
    a1 = jet.dy1 / jet.y1
    a2 = jet.d2y1 / jet.y1
    a3 = jet.d3y1 / jet.y1
    dh1 = a2 - a1 * a1
    try:
        ddh1 = a3 - 3.0 * a1 * a2 + 2.0 * a1 ** 3
    except OverflowError:  # a float power raises where a float product gives inf
        ddh1 = math.inf
    h2 = (N - jet.y2) * dh1
    dh2 = -jet.dy2 * dh1 + (N - jet.y2) * ddh1
    # One product checks the five values, as in _check_finite.
    if not 0.0 * a1 * dh1 * ddh1 * h2 * dh2 == 0.0:
        raise DegenerateInputError(
            f"log-derivative chain overflows, dy1/y1={a1!r} (t={jet.t!r})"
        )
    return HChain(a1, dh1, ddh1, h2, dh2)


def _admissible(x, chain, rho, jet):
    """alpha and beta implied by a candidate root, or None if unphysical.

    Written as `not ... < 0` and `not ... > 0`, so that NaN is unphysical.
    """
    if not x < 0:
        return None
    alpha = chain.h2 / x - chain.h1 - rho
    if not alpha > 0:
        return None
    beta = alpha * (jet.dy2 - x) / jet.y1
    if not beta > 0:
        return None
    return alpha, beta


def _checked(rec: RecoveredParams, jet: OutputJet) -> RecoveredParams:
    """rec, unless it overflows (DegenerateInputError) or has a rate <= 0 (RegimeError)."""
    if not 0.0 * rec.rho * rec.alpha * rec.beta * rec.epsilon == 0.0:
        raise DegenerateInputError(f"recovery overflows, got {rec!r} (t={jet.t!r})")
    if not (rec.rho > 0 and rec.alpha > 0 and rec.beta > 0):
        raise RegimeError(f"recovered rates must be positive, got {rec!r} (t={jet.t!r})")
    return rec


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
    _check_finite(jet)
    rho = recover_rho(jet)
    chain = h_chain(jet, N)
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
        # Stable form: avoid cancellation between -B and the radical.
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
    _check_finite(jet)
    rho = recover_rho(jet)
    chain = h_chain(jet, N)
    if chain.dh1 >= 0:
        raise RegimeError(
            f"dh1 must be negative on simplified-model data, got {chain.dh1!r}"
        )
    h1 = chain.h1 + rho
    # beta*I/N = dy1/y1 - ddh1/dh1 evaluated in fused form: the staged
    # version subtracts two nearly equal O(1) ratios and loses the tiny
    # difference to roundoff.
    a1 = chain.h1
    a2 = jet.d2y1 / jet.y1
    a3 = jet.d3y1 / jet.y1
    beta_i = N * (4.0 * a1 * a2 - 3.0 * a1 ** 3 - a3) / chain.dh1
    if beta_i == 0.0:
        raise DegenerateInputError(f"beta*I vanishes at t={jet.t!r}")
    alpha = -N * chain.dh1 / beta_i - h1
    if alpha == 0.0:
        raise DegenerateInputError(f"alpha vanishes at t={jet.t!r}")
    beta = alpha * beta_i / jet.y1
    return _checked(RecoveredParams(rho, float(alpha), float(beta), float(y1_at_0 / alpha)), jet)


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
        * epsilon ** 2
        * (params.beta - params.alpha)
        * depletion
    )
    return {
        "dh1_at_0": dh1_at_0,
        "cterm_at_0": cterm_at_0,
        "ok": dh1_at_0 < 0 and cterm_at_0 > 0,
    }
