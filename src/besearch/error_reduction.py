"""Majority-vote error reduction.

Repeating a bounded-error subroutine r times (r odd, so there are no
ties) and taking the majority drives the error down exponentially in r.
This module computes exact binomial majority probabilities, the minimal
odd r meeting a target error at the promise's base error 1/10, the
per-round schedule of the search algorithm (round k gets error budget
2^-(k+5)), and the exact effect of one error-reduction step on a
structured state: each class keeps the majority-probability share of its
flag-1 mass and pushes the rest back to flag 0.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_left
from functools import cache
from typing import Iterator

import numpy as np

from .model import (
    NORM_TOL, PROMISE_BAD, InvariantError, ProblemInstance, StructuredState, check_int, check_prob,
    check_state,
)

# Largest r majority_prob takes: the largest r whose majority
# coefficients C(r, j) fit in a float (see _majority_terms).
_MAX_REPS = 1029

# Largest round index the schedule serves; r_478 = 647. The error table
# is exact far past it, but the push-back's majority vectors are not:
# _class_powers forms each p^j as one float power, at p = 1/10 subnormal
# from j = 308 and 0.0 from j = 324, so from about r = 621 a class at p =
# 1/10 keeps an inexact share (0.0 at r = 647 instead of 3.4e-146), and
# later rounds would only lose more.
MAX_ROUNDS = 478

# The exponents 0 .. _MAX_REPS, one read-only contiguous float row that
# _class_powers slices.
_EXPONENTS = np.arange(_MAX_REPS + 1, dtype=float)
_EXPONENTS.flags.writeable = False


@cache
def _majority_terms(r: int) -> np.ndarray:
    """C(r, j) for j = (r+1)/2 .. r, as a read-only float column.

    Each coefficient is an exact integer, from C(r, j+1) = C(r, j)(r-j)/(j+1),
    rounded once to float. The cache stays small: past r = 1029 the
    largest coefficient overflows a float and this raises OverflowError.
    """
    ones = range((r + 1) // 2, r + 1)
    coeffs, c = [], math.comb(r, ones[0])
    for j in ones:
        coeffs.append(float(c))
        c = c * (r - j) // (j + 1)
    column = np.array(coeffs).reshape(-1, 1)
    column.flags.writeable = False
    return column


def majority_prob(r: int, p):
    """Probability that the majority of r independent runs outputs 1.

    Each run outputs 1 with probability p; returns
    P[Binomial(r, p) >= (r+1)/2]. r must be odd so ties cannot occur.
    ``p`` is a float, a list or tuple of floats, or an integer or float
    ndarray; the result is a float or an array of the same shape, one
    value per entry. A scalar p and each entry of a list or tuple go
    through ``check_prob``; an ndarray is checked entry by entry in one
    pass. The entries' power tables for this one r (``_class_powers``) give
    the terms C(r, j) p^j (1-p)^(r-j), j ascending, and ``_majority`` adds
    each entry's terms by pairwise summation, as the round chain does
    from its tables for every r_k. The result is not correctly rounded:
    for odd r up to 647 it was measured within 3 ulp (3.3e-16 absolute)
    of the correctly rounded sum of the terms.
    """
    r = check_int("r", r, 1, _MAX_REPS)
    if r % 2 == 0:
        raise ValueError(f"r must be odd, got {r}")
    if isinstance(p, (list, tuple)):
        p = [check_prob("p", x) for x in p]  # each entry is checked like a scalar
    elif not isinstance(p, np.ndarray):
        p = check_prob("p", p)  # a scalar is checked whole: bool, str and None too
    elif p.dtype.kind not in "iuf":
        raise ValueError(f"p must be a number, got an array of dtype {p.dtype}")
    p = np.asarray(p, dtype=float)
    col = p.reshape(-1, 1)
    ok = col * (1.0 - col) >= 0.0  # p(1-p) >= 0 exactly when 0 <= p <= 1; NaN fails
    if not ok.all():
        check_prob("p", float(col[~ok][0]))  # raises, naming the first bad entry
    low = (r + 1) // 2
    m = _majority(r, *_class_powers(col, low, r), low).reshape(p.shape)
    return m if m.ndim else float(m)


def _class_powers(ps: np.ndarray, low: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The power tables of the probabilities ``ps``, unchecked: row c of the
    first holds p_c^j for j = low .. top, row c of the second (1-p_c)^j for
    j = 0 .. (top-1)/2, each power computed once.

    Each table is a column of bases against a row of exponents, C-ordered,
    one row per class. numpy's ``power`` gives the same bits for the same
    (p, j) whatever the layout, with one exception: with a stride-0
    exponent (``ps ** E[:, None]``, one row per exponent) it squares for
    exponent 2, which does not always round as the general power does.
    """
    col = ps.reshape(-1, 1)
    return col ** _EXPONENTS[low:top + 1], (1.0 - col) ** _EXPONENTS[:(top - 1) // 2 + 1]


def _majority(r: int, pw: np.ndarray, qw: np.ndarray, low: int) -> np.ndarray:
    """The core of ``majority_prob``, unchecked: one majority probability
    of r runs per row of the tables ``_class_powers(ps, low, top)`` gives,
    for an odd r with (r+1)/2 >= low and r <= top.

    The h = (r+1)/2 terms of a class are added as numpy adds a contiguous
    row of them: left to right under 8 terms, which adding a C-ordered
    block of one term row per j down its columns does too, and pairwise
    from 8, so such a block is built with one row per class and added
    along its rows.
    """
    h = (r + 1) // 2
    coeffs, a, b = _majority_terms(r), h - low, r - low + 1
    if h < 8:
        terms = np.multiply(coeffs, pw[:, a:b].T, order="C")
        terms *= qw[:, h - 1::-1].T
        return np.add.reduce(terms, axis=0)
    terms = coeffs.T * pw[:, a:b]
    terms *= qw[:, h - 1::-1]
    return np.add.reduce(terms, axis=1)


# The last r whose h = (r+1)/2 terms numpy adds as one row (h <= 128).
_PADDED_TOP = 253


@cache
def _padded_plan(k: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """low = (r_1+1)/2 and the term rows, padded to width 8k+7, of every odd
    r from r_1 to min(16k+13, 253): each entry's coefficient C(r, j) and its
    columns in a p^j table from p^low and a (1-p)^j table from (1-p)^0, with
    coefficient 0 and columns 0 in the padding. Callers keep k <= 15, and
    threads that race build the same plan.

    numpy adds a contiguous row of n floats to 0.0: under 8 one by one; up
    to 128 in 8 running sums over the first 8 floor(n/8), one per position
    mod 8, combined as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), then the other
    n mod 8 one by one; past 128 it splits the row. So an r's h terms laid
    out as their first 8 floor(h/8), zeros up to position 8k, their other
    h mod 8 and zeros up to 8k+7 add to the same float: padding adds zeros.
    """
    first = schedule_for_round(1)
    rs = range(first, min(16 * k + 13, _PADDED_TOP) + 1, 2)
    plan = np.zeros((3, len(rs), 8 * k + 7))
    for row, r in enumerate(rs):
        h = (r + 1) // 2
        ones = np.arange(h, r + 1)
        at = np.r_[0:h - h % 8, 8 * k:8 * k + h % 8]
        plan[:, row, at] = _majority_terms(r).ravel(), ones - (first + 1) // 2, r - ones
    columns = plan[1:].astype(np.intp)
    plan.flags.writeable = columns.flags.writeable = False
    return (first + 1) // 2, plan[0], *columns


def _chain_majorities(ps: np.ndarray, top: int) -> np.ndarray:
    """The majority vector of every odd r from r_1 to ``top``, row (r -
    r_1)/2, for the probabilities ``ps`` (unchecked) of an instance under 8
    classes, as ``_majority`` gives it: up to r = 253 from one C-ordered
    (classes, rows, 8k+7) block of the narrowest plan that covers ``top``,
    gathered by ``take`` (fancy indexing gives another order) and added
    along its rows, and past 253 from ``_majority`` on the same tables."""
    low, coeffs, p_column, q_column = _padded_plan(min(15, (top + 1) // 16))
    rows = (min(top, _PADDED_TOP) + 1) // 2 - low + 1  # one per h = (r+1)/2
    pw, qw = _class_powers(ps, low, top)
    terms = pw.take(p_column[:rows], axis=1)
    terms *= coeffs[:rows]
    terms *= qw.take(q_column[:rows], axis=1)
    vectors = np.add.reduce(terms, axis=2).T
    if top <= _PADDED_TOP:
        return vectors
    return np.vstack([vectors, *(_majority(r, pw, qw, low)
                                 for r in range(_PADDED_TOP + 2, top + 1, 2))])


def _majority_errors() -> Iterator[float]:
    """Yield the majority error of r = 3, 5, 7, ... runs at base error 1/10,
    each the correctly rounded float of an exact fraction.

    The error of r runs is T(r) / 10^r with T(r) = sum_{j > r/2} C(r, j)
    9^(r-j), an integer. T(1) = 1, and with h = (r-1)/2, T(r+2) = 100 T(r)
    - 8 9^(h+1) C(r, h): two more runs give a majority to the outcomes of r
    runs with h ones if both say 1 (chance 1/100) and take it from those
    with h+1 ones if both say 0 (chance 81/100), and C(r, h) = C(r, h+1).
    Python divides the integers with one rounding, down to the smallest
    subnormal, so no entry is formed from float powers of 1/10, which are
    subnormal from (1/10)^308.
    """
    tail, r, nines, scale = 1, 1, 9, 10  # T(r), r, 9^(h+1), 10^r
    while True:
        tail = 100 * tail - 8 * nines * math.comb(r, (r - 1) // 2)
        r, nines, scale = r + 2, nines * 9, scale * 100
        yield tail / scale


# The one table every repetition count reads: entry i is the majority
# error of 2i + 1 runs at base error PROMISE_BAD, negated so it ascends,
# each computed once, on demand, by _more_errors. The error falls
# strictly until it rounds to 0.0 at r = 1451, so every eps in (0, 1) is
# met, at r = 1449 at the latest, and the table never holds more than
# 725 entries. Threads extend it one at a time: the generator runs in one
# thread at a time, and its entries must be appended in order.
_neg_errors: list[float] = [-PROMISE_BAD]
_more_errors = _majority_errors()
_errors_lock = threading.Lock()


def _reps_within(eps: float) -> int:
    """First odd r whose entry in the majority-error table is <= eps."""
    if -_neg_errors[-1] > eps:
        with _errors_lock:
            while -_neg_errors[-1] > eps:
                _neg_errors.append(-next(_more_errors))
    return 2 * bisect_left(_neg_errors, -eps) + 1


def repetitions_for(eps: float) -> int:
    """Minimal odd r whose majority error at base error PROMISE_BAD is <= eps.

    That error is 1 - majority_prob(r, 1 - PROMISE_BAD) for odd r, but is
    summed directly, the numerically meaningful form when eps is tiny.
    O(log(1/eps)). eps must lie in (0, 1), checked before the table is read.
    """
    eps = check_prob("eps", eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return _reps_within(eps)


def schedule_for_round(k: int) -> int:
    """Round k's repetition count r_k: the minimal odd r whose majority
    error at base error 1/10 is within the round's budget 2^-(k+5)."""
    k = check_int("round index", k, 1, MAX_ROUNDS)
    return _reps_within(2.0 ** -(k + 5))


def _push_back(
    w1: np.ndarray, w0: np.ndarray, keep: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One push-back on the class arrays of a normalized state: each class
    keeps share ``keep`` (its majority probability) of its flag-1 mass and
    moves share ``drop`` = max(0, 1 - keep) to flag 0. Both shares depend
    only on r_k, so the round chain computes them once per distinct r_k.
    Returns fresh arrays."""
    if not abs(float(np.add.reduce(w1) + np.add.reduce(w0)) - 1.0) <= NORM_TOL:  # NaN fails too
        raise InvariantError("state is not normalized")
    return w1 * keep, w0 + w1 * drop


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
    check_state(state, instance)
    keep = majority_prob(schedule_for_round(k), instance.ps)
    return StructuredState._adopt(
        *_push_back(state.w1, state.w0, keep, np.maximum(0.0, 1.0 - keep))
    )
