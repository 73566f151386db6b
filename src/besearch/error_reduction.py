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
from functools import cache

import numpy as np

from .model import (
    NORM_TOL, PROMISE_BAD, InvariantError, ProblemInstance, StructuredState, check_int, check_prob,
    total_mass,
)

# Cap on the repetition scan: the largest r whose majority coefficients
# C(r, j) fit in a float (see _majority_terms). Only budgets far below
# the schedule's or a base error near 1/2 reach it.
_MAX_REPS = 1029

# Largest round index the schedule serves. Round 479 needs r = 649, but
# from r = 647 on every term of majority_prob(r, 1/10) underflows to 0.0,
# so the scan would stop short; every r_k up to this cap is exact.
MAX_ROUNDS = 478


@cache
def _majority_terms(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(r, j), j and r - j for j = (r+1)/2 .. r, as read-only float arrays.

    Each coefficient is an exact integer, from C(r, j+1) = C(r, j)(r-j)/(j+1),
    rounded once to float. The cache stays small: past r = 1029 the
    largest coefficient overflows a float and this raises OverflowError.
    """
    ones = range((r + 1) // 2, r + 1)
    coeffs, c = [], math.comb(r, ones[0])
    for j in ones:
        coeffs.append(float(c))
        c = c * (r - j) // (j + 1)
    terms = (
        np.array(coeffs),
        np.array(ones, dtype=float),
        np.array([r - j for j in ones], dtype=float),
    )
    for a in terms:
        a.flags.writeable = False
    return terms


def majority_prob(r: int, p):
    """Probability that the majority of r independent runs outputs 1.

    Each run outputs 1 with probability p; returns
    P[Binomial(r, p) >= (r+1)/2]. r must be odd so ties cannot occur.
    ``p`` is a float or an array of floats; the result is a float or an
    array of the same shape, one value per entry. A scalar p goes through
    ``check_prob``; an array is checked entry by entry in one pass. One
    numpy pass builds the terms C(r, j) p^j (1-p)^(r-j), j ascending, for
    every entry and adds each entry's terms by pairwise summation. The
    result is not correctly rounded: for odd r up to 647 it was measured
    within 3 ulp (3.3e-16 absolute) of the correctly rounded sum of the
    terms.
    """
    r = check_int("r", r, 1)
    if r % 2 == 0:
        raise ValueError(f"r must be odd, got {r}")
    if not isinstance(p, np.ndarray) and np.ndim(p) == 0:
        p = check_prob("p", p)  # a scalar is checked whole: bool, str and None too
    p = np.asarray(p, dtype=float)
    col = p.reshape(-1, 1)
    q = 1.0 - col
    ok = col * q >= 0.0  # p(1-p) >= 0 exactly when 0 <= p <= 1; NaN fails
    if not ok.all():
        check_prob("p", float(col[~ok][0]))  # raises, naming the first bad entry
    coeffs, ones, zeros = _majority_terms(r)
    m = (coeffs * col**ones * q**zeros).sum(axis=1).reshape(p.shape)
    return m if m.ndim else float(m)


def _min_odd_reps(eps: float, p_fail: float, r: int) -> int:
    """Smallest odd r' >= r whose majority error at base error p_fail is <= eps."""
    while majority_prob(r, p_fail) > eps:
        r += 2
        if r > _MAX_REPS:
            raise ValueError(f"no odd r <= {_MAX_REPS} meets eps={eps}")
    return r


@cache
def repetitions_for(eps: float, p_fail: float) -> int:
    """Minimal odd r whose majority error at base error p_fail is <= eps.

    Equivalently: minimal odd r with majority_prob(r, 1 - p_fail) >= 1 - eps
    (the failure event of one form is the success event of the other, so
    the two probabilities sum to exactly 1 for odd r). The failure
    probability is summed directly, which is the numerically meaningful
    form when eps is tiny. Scales as O(log(1/eps)) for p_fail < 1/2.
    Memoized: the scan costs O(r^2) and callers ask for the same budgets.
    eps must lie in (0, 1) and p_fail in [0, 1/2); a budget that no odd
    r <= _MAX_REPS meets raises a ValueError naming eps.
    """
    eps, p_fail = check_prob("eps", eps), check_prob("p_fail", p_fail)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if not p_fail < 0.5:
        raise ValueError(f"p_fail must lie in [0, 0.5), got {p_fail!r}")
    return _min_odd_reps(eps, p_fail, 1)


# Round index k -> r_k, for rounds 1..len(_schedule), built on demand.
# The budget halves every round and the majority error falls as r grows,
# so r_k never decreases: each round's scan resumes from r_{k-1}, and the
# whole table to MAX_ROUNDS costs O(r_MAX_ROUNDS + MAX_ROUNDS) majority
# evaluations. Keyed by round, so two callers filling it at once store
# the same entries.
_schedule: dict[int, int] = {}


def schedule_for_round(k: int) -> int:
    """Round k's repetition count r_k: the minimal odd r whose majority
    error at base error 1/10 is within the round's budget 2^-(k+5)."""
    k = check_int("round index", k, 1, MAX_ROUNDS)
    while len(_schedule) < k:
        j = len(_schedule) + 1
        _schedule[j] = _min_odd_reps(2.0 ** -(j + 5), PROMISE_BAD, _schedule.get(j - 1, 1))
    return _schedule[k]


def apply_error_reduction(
    state: StructuredState,
    k: int,
    instance: ProblemInstance,
) -> StructuredState:
    """Apply the round-k error-reduction step E_k to a structured state.

    Conditioned on flag 1, E_k majority-votes r_k fresh runs of the
    index's subroutine into a new flag qubit: a class with per-run
    probability p keeps share m (its majority probability) of its flag-1
    mass on flag 1 and pushes 1 - m of it back to flag 0, into a junk
    sector orthogonal to the existing flag-0 part. Flag-0 mass is
    otherwise unchanged. The caller knows k: the state has no round index.
    """
    if abs(total_mass(state) - 1.0) > NORM_TOL:
        raise InvariantError("state is not normalized")
    m = majority_prob(schedule_for_round(k), instance.ps)
    return StructuredState(w1=state.w1 * m, w0=state.w0 + state.w1 * np.maximum(0.0, 1.0 - m))
