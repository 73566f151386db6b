"""Majority-vote error reduction.

Repeating a bounded-error subroutine r times (r odd, so there are no
ties) and taking the majority drives the error down exponentially in r.
This module computes exact binomial majority probabilities, the minimal
odd repetition count meeting a target error, the per-round schedule of
the search algorithm (round k gets error budget 2^-(k+5)), and the exact
effect of one error-reduction step on a structured state: each class
keeps the majority-probability share of its flag-1 mass and pushes the
rest back to flag 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import NORM_TOL, InvariantError, ProblemInstance, StructuredState, total_mass

# Base error of the promise: each subroutine is wrong with probability <= 1/10.
BASE_ERROR = 0.1

# Hard cap on the repetition scan; reached only for absurdly small budgets.
_MAX_REPS = 100_001

# Largest round index the schedule serves. Round 479 needs r = 649, but
# from r = 647 on every term of majority_prob(r, 1/10) underflows to 0.0,
# so the scan would stop short; every r_k up to this cap is exact.
MAX_ROUNDS = 478


@dataclass(frozen=True)
class RoundSchedule:
    """Error budget and repetition count for one round.

    ``eps`` is the round's majority-error budget 2^-(k+5); ``r`` is the
    minimal odd repetition count whose majority error at base error 1/10
    stays within the budget.
    """

    k: int
    eps: float
    r: int


def majority_prob(r: int, p: float) -> float:
    """Probability that the majority of r independent runs outputs 1.

    Each run outputs 1 with probability p; returns
    P[Binomial(r, p) >= (r+1)/2]. r must be odd so ties cannot occur.
    Exact integer binomial coefficients keep the sum stable to ~1e-15
    relative error.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetition count must be odd and positive, got {r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    q = 1.0 - p
    # Sum ascending so the largest terms are added last.
    return math.fsum(
        math.comb(r, j) * p**j * q ** (r - j) for j in range((r + 1) // 2, r + 1)
    )


@cache
def repetitions_for(eps: float, p_fail: float) -> int:
    """Minimal odd r whose majority error at base error p_fail is <= eps.

    Equivalently: minimal odd r with majority_prob(r, 1 - p_fail) >= 1 - eps
    (the failure event of one form is the success event of the other, so
    the two probabilities sum to exactly 1 for odd r). The failure
    probability is summed directly, which is the numerically meaningful
    form when eps is tiny. Scales as O(log(1/eps)) for p_fail < 1/2.
    Memoized: the scan costs O(r^2) and callers ask for the same budgets.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if not 0.0 <= p_fail < 0.5:
        raise ValueError(f"base error must lie in [0, 0.5), got {p_fail!r}")
    r = 1
    while majority_prob(r, p_fail) > eps:
        r += 2
        if r > _MAX_REPS:
            raise ValueError(f"no odd r <= {_MAX_REPS} meets eps={eps}")
    return r


def schedule_for_round(k: int) -> RoundSchedule:
    """Round k's schedule: budget eps_k = 2^-(k+5), minimal odd repetitions."""
    if not 1 <= k <= MAX_ROUNDS:
        raise ValueError(f"round index must lie in [1, {MAX_ROUNDS}], got {k}")
    eps = 2.0 ** -(k + 5)
    return RoundSchedule(k=k, eps=eps, r=repetitions_for(eps, BASE_ERROR))


def apply_error_reduction(
    state: StructuredState,
    k: int,
    instance: ProblemInstance,
    ledger=None,
) -> StructuredState:
    """Apply the round-k error-reduction step E_k to a structured state.

    Conditioned on flag 1, E_k majority-votes r_k fresh runs of the
    index's subroutine into a new flag qubit: a class with per-run
    probability p keeps share m (its majority probability) of its flag-1
    mass on flag 1 and pushes 1 - m of it back to flag 0, into a junk
    sector orthogonal to the existing flag-0 part. Flag-0 mass is
    otherwise unchanged. Charges r_k queries to ``ledger``.
    """
    if state.round != k:
        raise ValueError(f"state is at round {state.round}, not {k}")
    if abs(total_mass(state, instance) - 1.0) > NORM_TOL:
        raise InvariantError("state is not normalized")
    sched = schedule_for_round(k)
    m = np.array([majority_prob(sched.r, c.p) for c in instance.classes])
    if ledger is not None:
        ledger.add(sched.r)
    return StructuredState(
        w1=state.w1 * m, w0=state.w0 + state.w1 * np.maximum(0.0, 1.0 - m), round=k + 1
    )
