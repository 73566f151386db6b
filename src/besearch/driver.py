"""Search driver: round recursion, query costs, and the full search loop.

The round recursion interleaves one amplification with one error
reduction: starting from the base preparation (all subroutines run once
in superposition), round k first triples the solution weight and then
majority-filters the false positives within budget 2^-(k+5). Query cost
follows C(0) = 1, C(k) = 3 C(k-1) + r_k, which stays O(3^m).

The full search loop sweeps m = 0 .. ceil(log9 n) - 1, runs the m-round
preparation ``shots`` times, and classically verifies each measured
index by a majority vote sized so the whole execution's false-accept
probability stays below 1/100. Because the exact output distribution is
available, shots are sampled from it directly; no per-shot state-vector
evolution is needed -- randomness enters only through the classical
control flow.
"""
from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .amplification import _amplify, _gains
from .error_reduction import (
    MAX_ROUNDS, _chain_majorities, _class_powers, _majority, _push_back, majority_prob,
    repetitions_for, schedule_for_round,
)
from .model import (
    NORM_TOL,
    InvariantError,
    ProblemInstance,
    StructuredState,
    _base_masses,
    _stats_row,
    _stats_rows,
    check_int,
    check_prob,
)

#: Classical repetitions of the whole measurement block, per the driver's
#: success analysis. Configurable in run_search; tests pin the default.
DEFAULT_SHOTS = 1000

#: Largest shot count per block: a block draws its uniforms in float64
#: arrays of at most twice this length, so the cap keeps each at 16 MB.
MAX_SHOTS = 10**6

#: The execution-wide false-accept budget is 1/VERIFICATION_CONFIDENCE.
VERIFICATION_CONFIDENCE = 100

#: Largest space size the search loop takes: its last block has MAX_ROUNDS rounds.
MAX_N = 9 ** (MAX_ROUNDS + 1)

# 31699251 / 10^7 exceeds log2(9) = 3.16992500144..., so (bits - 1) times
# its inverse, rounded down, is a lower bound on ceil_log9(n) for an n of
# that many bits, at most 3 + bits / 10^8 below it.
_LOG2_9_UP = (31_699_251, 10**7)

# States per statistics pass from 8 classes on: a curve or trace of such an
# instance computes its rows from tables of at most this many states.
_STATS_ROWS = 64

# Instances with fewer classes than this run the round chain on tuples of
# Python floats, form their base masses and their cdf in them, and compute
# each state's statistics in one pass of float additions, holding one state
# at a time. numpy adds fewer than 8 contiguous float64 one after another
# (its pairwise sum starts at 8 terms), as functools.reduce(add, ...) and
# += from 0.0 do, and every product and every sum of two values is one IEEE
# operation either way, so the floats are the same without numpy's
# per-call cost, which on a few classes exceeds the arithmetic. From 8
# classes on, the order of numpy's sums differs, so wider instances keep
# the array kernels.
_FLOAT_CLASSES = 8

# A uniform this close to its class's cut, or to numpy's restart point,
# leaves its block to the binomial path (see _cut_block). numpy's
# inversion loop subtracts at most 87 terms from a uniform below 1 (its
# bound is at most 30 + 10 sqrt(31)), each rounding by at most 2^-54, and
# the cut table adds the same terms, each rounding by at most 2^-53: both
# lie within 87 * 1.5 * 2^-53 < 2^-45 of the exact partial sums. A last-bit
# difference between numpy's array exp and log and the C library's moves
# the sums by about 2^-52 more. 2^-40 is over 30 times all of it.
_BAND = 2.0**-40

# r_k for k = 0 .. len - 1, r_0 = 0: every repetition count _schedule
# reads, each looked up once, on demand, from schedule_for_round. It holds
# at most MAX_ROUNDS + 1 entries. Entry k is appended at position k, so
# threads fill it one at a time.
_round_reps: list[int] = [0]
_round_reps_lock = threading.Lock()

Seed = Union[int, np.random.SeedSequence]

# One state's class masses as the round chain holds them (see _rounds).
Masses = Union[tuple[float, ...], np.ndarray]


@dataclass(frozen=True)
class CurvePoint:
    """One row of the exact success curve: statistics after m rounds."""

    m: int
    alpha: float
    beta: float
    theta: float
    p_solution: float
    cost: int


@dataclass(frozen=True)
class TraceRow(CurvePoint):
    """Per-block record of one search execution: the block's curve point,
    its shot count and the number of samples verified."""

    shots: int
    verified: int


def _row(cls: type, m: int, stats: tuple, cost: int, shots: int = 0, verified: int = 0):
    """``CurvePoint(m, *stats, cost)``, or ``TraceRow(m, *stats, cost, shots,
    verified)`` for ``cls`` TraceRow, without the frozen dataclass's
    ``__init__``, which sets each field through ``object.__setattr__``: the
    fields go straight into the new row's ``__dict__``, in field order, so
    the row compares, hashes and prints as the constructor's does."""
    row = object.__new__(cls)
    fields = row.__dict__
    fields["m"] = m
    fields["alpha"], fields["beta"], fields["theta"], fields["p_solution"] = stats
    fields["cost"] = cost
    if cls is TraceRow:
        fields["shots"] = shots
        fields["verified"] = verified
    return row


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one full search execution."""

    outcome: str  # "found" | "no_solutions"
    found_class: Optional[int]
    total_cost: int
    trace: tuple[TraceRow, ...]


@dataclass(frozen=True)
class ExactOutcome:
    """Exact outcome distribution of ``run_search`` with a shot count: the
    chances that it accepts a solution, accepts a non-solution, or ends
    with no_solutions, and its expected total cost. Entry m of
    ``block_found`` and ``block_false_accept`` is the chance that block m,
    run alone as ``run_block`` runs it, accepts a solution or a non-solution.
    """

    p_found: float
    p_false_accept: float
    p_nothing: float
    expected_cost: float
    block_found: tuple[float, ...]
    block_false_accept: tuple[float, ...]


def ceil_log9(n: int) -> int:
    """Smallest M >= 0 with 9^M >= n (integer-exact).

    9^M >= n >= 2^(bits - 1) gives M >= (bits - 1) / log2(9), so the
    search starts there and steps up by exact integer products, a few
    steps whatever the size of n.
    """
    n = check_int("n", n, 1)
    num, den = _LOG2_9_UP
    m = (n.bit_length() - 1) * den // num
    power = 9**m
    while power < n:
        power *= 9
        m += 1
    return m


def check_shots(shots: int) -> int:
    """Return the shot count as an ``int``, or reject one that is not an
    integer (bool, float, str and None included) or lies outside
    [1, MAX_SHOTS] before anything is sampled. numpy integers pass."""
    return check_int("shots", shots, 1, MAX_SHOTS)


def _schedule(rounds: int) -> Iterator[tuple[int, int]]:
    """Yield (r_k, C(k)) for k = 0 .. rounds, r_0 = 0: each round's majority
    size and the query cost of the k-round preparation.

    The only place C(k) is formed. C(0) = 1: the base preparation runs
    every subroutine once in superposition. C(k) = 3 C(k-1) + r_k:
    amplification runs the preparation twice more, once inverted, and
    error reduction adds r_k runs. One unit is one invocation of any F_i
    or its inverse; one superposed call over all indices costs 1. The
    round count is checked before anything is yielded, and r_k is read
    from ``_round_reps``, which is filled up to it first.
    """
    rounds = check_int("rounds", rounds, 0, MAX_ROUNDS)
    reps = _round_reps
    if len(reps) <= rounds:
        with _round_reps_lock:
            while len(reps) <= rounds:
                reps.append(schedule_for_round(len(reps)))
    c = 1
    yield 0, c
    for r in itertools.islice(reps, 1, rounds + 1):
        c = 3 * c + r
        yield r, c


def analytic_cost(m: int) -> int:
    """Query cost C(m) of the m-round preparation."""
    *_, (_, c) = _schedule(check_int("m", m, 0, MAX_ROUNDS))
    return c


def verification_repetitions(n: int, shots: int = DEFAULT_SHOTS) -> int:
    """Majority size for classically verifying one measured index.

    The per-verification error budget is
    1 / (VERIFICATION_CONFIDENCE * shots * (ceil_log9(n) + 1)), so by a
    union bound over at most shots * ceil_log9(n) verifications the whole
    execution's false-accept probability stays below 1/100. O(log n).
    Every path that takes a shot count calls this or ``check_shots``
    first, so shots outside [1, MAX_SHOTS] are rejected before any sample
    array is allocated.
    """
    shots = check_shots(shots)
    budget = 1.0 / (VERIFICATION_CONFIDENCE * shots * (ceil_log9(n) + 1))
    return repetitions_for(budget)


def _rounds(
    instance: ProblemInstance, rounds: int
) -> Iterator[tuple[int, Masses, Masses, int]]:
    """Yield (m, w1, w0, C(m)) for m = 0 .. rounds: the m-round state's
    flag-1 and flag-0 class masses and its query cost.

    The only place the round recursion is chained. Each state is built
    when it is asked for, so a consumer that stops early builds no more.
    Round m is ``apply_error_reduction(apply_amplification(state), m,
    instance)``. Its majority vector and push-back share depend only on
    r_m; they are computed from round 1 on, so a 0-round chain computes none.

    An instance with fewer than ``_FLOAT_CLASSES`` classes is chained on
    tuples of floats by ``_float_round``, with the vectors of every odd r
    up to r_rounds from padded term rows (``_chain_majorities``). A wider one
    is chained on read-only arrays by ``_amplify`` and ``_push_back``, with
    each distinct r_m's vector computed by ``_majority`` from one pair of
    power tables (``_class_powers``). Both give the floats of the public
    operators. A consumer that needs arrays converts tuples itself (on
    tuples ``w1 + w0`` concatenates).
    """
    schedule = _schedule(rounds)
    _, cost = next(schedule)  # checks the round count before any state is built
    floats = instance.ps.size < _FLOAT_CLASSES
    if floats:
        n = float(instance.n)
        pairs = list(zip(instance.counts.tolist(), instance.ps.tolist()))
        w1 = tuple([c * p / n for c, p in pairs])
        w0 = tuple([c * (1.0 - p) / n for c, p in pairs])
    else:
        w1, w0 = _base_masses(instance)
        w1.flags.writeable = w0.flags.writeable = False
    yield 0, w1, w0, cost
    if not rounds:
        return
    first, top = _round_reps[1], _round_reps[rounds]
    if floats:
        vectors = _chain_majorities(instance.ps, top)
        keeps, drops = vectors.tolist(), np.maximum(0.0, 1.0 - vectors).tolist()
        for m, (r, cost) in enumerate(schedule, start=1):
            i = (r - first) // 2
            w1, w0 = _float_round(w1, w0, keeps[i], drops[i])
            yield m, w1, w0, cost
        return
    low = (first + 1) // 2
    pw, qw = _class_powers(instance.ps, low, top)
    last = 0  # r_0: no majority vector yet
    for m, (r, cost) in enumerate(schedule, start=1):
        if r != last:
            keep = _majority(r, pw, qw, low)
            drop = np.maximum(0.0, 1.0 - keep)
            last = r
        w1, w0 = _push_back(*_amplify(w1, w0), keep, drop)
        w1.flags.writeable = w0.flags.writeable = False
        yield m, w1, w0, cost


def _float_round(
    w1: tuple[float, ...], w0: tuple[float, ...], keep: list[float], drop: list[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``_push_back(*_amplify(w1, w0), keep, drop)`` on a state of fewer than
    ``_FLOAT_CLASSES`` classes held as tuples of floats: the same norm
    checks, sin^2 share and gains, and the same float operations in the
    same order. Sums run left to right through ``reduce``; ``sum`` is not
    used, since from Python 3.12 it compensates float sums."""
    flag1 = reduce(add, w1)
    total = flag1 + reduce(add, w0)
    if not abs(total - 1.0) <= NORM_TOL:  # NaN fails too
        raise InvariantError("state is not normalized")
    g1, g0 = _gains(math.asin(math.sqrt(min(1.0, flag1 / total))))
    g1, g0 = g1**2, g0**2
    w1 = [x * g1 for x in w1]
    w0 = [x * g0 for x in w0]
    if not abs(reduce(add, w1) + reduce(add, w0) - 1.0) <= NORM_TOL:
        raise InvariantError("state is not normalized")
    return tuple(map(mul, w1, keep)), tuple(map(add, w0, map(mul, w1, drop)))


def _with_stats(instance: ProblemInstance, states: Iterable[tuple]) -> Iterator[tuple]:
    """Pair each (m, w1, w0, ...) entry of ``states`` with the statistics
    ``state_stats`` gives its state.

    Under ``_FLOAT_CLASSES`` classes each entry's three mass sums are added
    in one pass over its classes, in class order from 0.0, as numpy adds
    so few, one entry at a time. Wider instances go through ``_stats_rows``
    ``_STATS_ROWS`` states per pass, so from an iterator at most that many
    entries are held at once."""
    if instance.ps.size < _FLOAT_CLASSES:
        solution = instance.solution.tolist()
        for entry in states:
            alpha2 = beta2 = p_solution = 0.0
            for x, y, s in zip(entry[1], entry[2], solution):
                if s:
                    alpha2 += x
                    p_solution += x + y
                else:
                    beta2 += x
            yield entry, _stats_row(alpha2, beta2, p_solution)
        return
    states = iter(states)
    while batch := list(itertools.islice(states, _STATS_ROWS)):
        w1 = np.array([entry[1] for entry in batch])
        w0 = np.array([entry[2] for entry in batch])
        yield from zip(batch, _stats_rows(w1, w0, instance))


def build_state(instance: ProblemInstance, rounds: int) -> tuple[StructuredState, int]:
    """Build the preparation state with the given number of amplify/reduce
    rounds, and its query cost C(rounds); rounds = 0 is the base state (cost 1)."""
    for _, w1, w0, cost in _rounds(instance, rounds):
        pass
    return StructuredState._adopt(np.asarray(w1), np.asarray(w0)), cost


def exact_success_curve(
    instance: ProblemInstance, m_max: int
) -> tuple[CurvePoint, ...]:
    """Exact per-round statistics for m = 0 .. m_max.

    Computed in one incremental pass; since the round maps are
    deterministic, each row equals an independent m-round build.
    """
    chain = _rounds(instance, check_int("m_max", m_max, 0, MAX_ROUNDS))
    return tuple(
        _row(CurvePoint, m, stats, cost) for (m, _, _, cost), stats in _with_stats(instance, chain)
    )


def search_blocks(n: int) -> int:
    """Number of m-blocks the search loop executes for a space of size n.

    ceil(log9 n), with a floor of one block so that n = 1 still runs the
    base preparation instead of skipping the loop entirely. Each block's
    round count is at most MAX_ROUNDS, so n must be at most 9^(MAX_ROUNDS + 1).
    """
    n = check_int("n", n, 1)
    if n > MAX_N:
        raise ValueError(f"n must lie in [1, 9^{MAX_ROUNDS + 1}], got a {n.bit_length()}-bit n")
    return max(1, ceil_log9(n))


def full_sweep_cost(n: int, shots: int = DEFAULT_SHOTS) -> int:
    """Worst-case cost of a search that exhausts every block without a hit.

    Each of the search_blocks(n) blocks runs the preparation ``shots``
    times and classically verifies every sample, so the total is
    sum_m shots * (C(m) + v(n)).
    """
    shots = check_shots(shots)
    blocks = search_blocks(n)
    v = verification_repetitions(n, shots)
    return shots * (sum(c for _, c in _schedule(blocks - 1)) + blocks * v)


def check_seed(seed: Seed) -> None:
    """Reject a seed that is not a nonnegative integer or a SeedSequence
    (bool, float, str and None included) before anything is seeded from it."""
    if not isinstance(seed, np.random.SeedSequence):
        check_int("seed", seed, 0)


def _rng(seed: Seed) -> np.random.Generator:
    """The generator of one seeded run, from a seed ``check_seed`` passes."""
    check_seed(seed)
    return np.random.default_rng(seed)


def _cdf(weights: Masses) -> Union[list[float], np.ndarray]:
    """The running sum that ``Generator.choice(len(weights), p=weights /
    weights.sum())`` looks its uniforms up in, without its per-call
    validation: sum, divide, running sum, divide by its last entry.

    Fewer than ``_FLOAT_CLASSES`` weights (the chain holds such masses as
    tuples) take these steps one float at a time, each sum left to right
    as numpy adds so few, and give a list whose last entry is exactly 1.0;
    more take them in numpy and give an array. Weights that are not finite
    or sum to 0 raise ValueError.
    """
    floats = len(weights) < _FLOAT_CLASSES
    mass = reduce(add, weights) if floats else float(np.add.reduce(weights))
    if not 0.0 < mass < math.inf:
        raise ValueError(f"measurement weights must be finite with a positive sum, got {mass}")
    if not floats:
        cdf = np.add.accumulate(weights / mass)
        cdf /= cdf[-1]
        return cdf
    cdf = list(itertools.accumulate([w / mass for w in weights]))
    last = cdf[-1]
    return [c / last for c in cdf]


def _classes(cdf: Union[list[float], np.ndarray], u: np.ndarray) -> np.ndarray:
    """The class of each uniform in ``u``: ``cdf.searchsorted(u,
    side="right")``, the count of cdf entries at or below it, as int64.
    A list's last entry, 1.0, lies above every uniform, so on a list the
    count is that of its other entries, one compare each."""
    if isinstance(cdf, np.ndarray):
        return cdf.searchsorted(u, side="right")
    steps = cdf[:-1]
    if not steps:
        return np.zeros(u.size, np.intp)
    index = (u >= steps[0]).astype(np.intp)
    for step in steps[1:]:
        index += u >= step
    return index


def _measure(rng: np.random.Generator, weights: Masses, shots: int) -> np.ndarray:
    """Draw ``shots`` class indices with probabilities proportional to
    ``weights``: the indices, their dtype and the generator's state
    afterwards are those of ``Generator.choice(len(weights), shots,
    p=weights / weights.sum())``. Unusable weights raise ValueError before
    anything is drawn."""
    cdf = _cdf(weights)
    return _classes(cdf, rng.random(shots))


class _Cuts(NamedTuple):
    """One run's verification votes as cuts on uniforms, built by ``_vote_cuts``."""

    v: int
    ps: np.ndarray  # the instance's ps, for the binomial path
    cut: Optional[tuple[float, ...]]  # per class; None: every block takes the binomial path
    sign: Optional[tuple[float, ...]]  # 1.0: accepted above the cut (p <= 1/2); -1.0: below it
    top: float  # a uniform above this may restart numpy's loop
    lo: Optional[np.ndarray]  # per class, a uniform in (lo, hi] is certainly a rejection
    hi: Optional[np.ndarray]


def _inversion_sums(
    v: int, p: float, q: float, qn: float, at: int, steps: int
) -> tuple[float, float]:
    """(S_at, S_steps), 1 <= at <= steps, of numpy's inversion loop for
    Binomial(v, p), q = 1 - p and qn = q^v: S_x = px_0 + ... + px_(x-1),
    with px_x by the loop's own recurrence."""
    total = 0.0
    px = qn
    for x in range(1, steps + 1):
        total += px
        if x == at:
            partial = total
        px = ((v - x + 1) * p * px) / (x * q)
    return partial, total


def _vote_cuts(ps: np.ndarray, v: int) -> _Cuts:
    """The cut table of a run with v votes per verification.

    For v * min(p, 1 - p) <= 30 numpy draws Binomial(v, p) by inversion:
    with p' = min(p, 1 - p), q = 1 - p' and px_0 = q^v, it draws one
    uniform U and returns the first X with U - S_X <= px_X (S_X as in
    ``_inversion_sums``), or v - X for p > 1/2; past X = bound it draws a
    fresh uniform and starts again. So a sample with p <= 1/2 is accepted
    (X > v // 2) iff U > S_(v//2 + 1), one with p > 1/2 (v - X > v // 2) iff
    U <= S_(v - v//2), and the loop restarts iff U > S_(bound + 1). A cut
    past the restart point stands at it. p = 0 draws no uniform.

    Each class's safe-reject interval (lo, hi] holds the uniforms at least
    ``_BAND`` on its rejecting side of the cut and at or below ``top``:
    below the cut for p <= 1/2, above it for p > 1/2.

    An instance with a class at p = 0 or in numpy's BTPE regime, or of
    ``_FLOAT_CLASSES`` classes or more, gets no cuts: its blocks take the
    binomial path (``_first_accept``). The table is set up in Python
    floats, with the C library's exp and log as numpy's loop uses.
    """
    binomial = _Cuts(v, ps, None, None, 0.0, None, None)
    probabilities = ps.tolist()
    if len(probabilities) >= _FLOAT_CLASSES or 0.0 in probabilities:
        return binomial
    half = v // 2
    cut, sign, restart = [], [], []
    for p in probabilities:
        low = p <= 0.5
        p = p if low else 1.0 - p
        if p * v > 30.0:
            return binomial
        q = 1.0 - p
        mean = v * p
        bound = int(min(v, mean + 10.0 * math.sqrt(mean * q + 1)))
        at = min(half + 1 if low else v - half, bound + 1)
        at_cut, at_restart = _inversion_sums(v, p, q, math.exp(v * math.log(q)), at, bound + 1)
        cut.append(at_cut)
        sign.append(1.0 if low else -1.0)
        restart.append(at_restart)
    top = min(restart) - _BAND
    lo = [-math.inf if s > 0.0 else c + _BAND for c, s in zip(cut, sign)]
    hi = [min(c - _BAND, top) if s > 0.0 else top for c, s in zip(cut, sign)]
    return _Cuts(v, ps, tuple(cut), tuple(sign), top, np.array(lo), np.array(hi))


def _cut_block(
    rng: np.random.Generator, cdf: list[float], cuts: _Cuts, shots: int
) -> Optional[tuple[Optional[int], int]]:
    """One block measured and voted on from uniforms alone: (accepted class
    or None, samples verified), or None where a vote is too close to its
    cut, or to a restart, to tell.

    The block's 2 * shots uniforms, the measurement's first, come from one
    call: ``random(2 k)`` is ``random(k)`` followed by ``random(k)``. If the
    smallest and the largest measurement uniform fall in one class, every
    sample is in it, and if the smallest and the largest vote also lie in
    its safe-reject interval, every sample is rejected: most blocks of a
    search end there. Only the extremes the test reads are reduced: no
    largest measurement uniform when the smallest lies in the last class,
    no vote when the samples span classes, and no smallest vote when the
    interval is open below. Otherwise the votes up to the first acceptance
    must lie in their classes' safe-reject intervals, and the accepted one
    at least ``_BAND`` past its cut and at or below ``cuts.top``.
    """
    u = rng.random(2 * shots)
    measured, votes = u[:shots], u[shots:]
    # The cdf's last entry, 1.0, lies above every uniform, so if the
    # smallest is in the last class, all are; lo is -inf where sign is 1.0.
    c = bisect_right(cdf, np.minimum.reduce(measured))
    if (
        (c == len(cdf) - 1 or bisect_right(cdf, np.maximum.reduce(measured)) == c)
        and np.maximum.reduce(votes) <= cuts.hi[c]
        and (cuts.sign[c] > 0.0 or cuts.lo[c] < np.minimum.reduce(votes))
    ):
        return None, shots
    classes = _classes(cdf, measured)
    rejected = (votes > cuts.lo.take(classes)) & (votes <= cuts.hi.take(classes))
    first = int(rejected.argmin())
    if rejected[first]:
        return None, shots
    c, u = int(classes[first]), float(votes[first])
    if (u - cuts.cut[c]) * cuts.sign[c] < _BAND or u > cuts.top:
        return None
    return c, first + 1


def _first_accept(rng: np.random.Generator, cuts: _Cuts, sampled: np.ndarray) -> int:
    """Position of the first of the ``sampled`` classes whose v votes accept
    it, or ``len(sampled)`` when none is accepted, from one array-p
    ``rng.binomial(v, ps[sampled])`` call: the binomial path."""
    accepts = rng.binomial(cuts.v, cuts.ps[sampled]) > cuts.v // 2
    first = int(accepts.argmax())
    return first if accepts[first] else sampled.size


def _weights(w1: Masses, w0: Masses) -> Masses:
    """The measurement weights w1 + w0 of a state, in the form of its masses."""
    return tuple(map(add, w1, w0)) if isinstance(w1, tuple) else w1 + w0


def _sample_block(
    rng: np.random.Generator, weights: Masses, cuts: _Cuts, shots: int
) -> tuple[Optional[int], int]:
    """Sample one measurement block of the state with measurement weights
    ``weights`` (w1 + w0) and verify sample-by-sample.

    Returns (accepted class id or None, number of samples verified).
    Verification of index j majority-votes v fresh runs of F_j, i.e. a
    Binomial(v, p_j) draw compared against v/2, with v and the ps those of
    the run's cut table ``cuts`` (``_vote_cuts``); it stops at the first
    accepted sample.

    The result, and the generator's state after a block that accepts
    nothing, are those of ``Generator.choice`` over the classes followed by
    one ``rng.binomial(v, ps[sampled])`` call. Where the table holds cuts,
    ``_cut_block`` finds the classes by compares on the cdf and decides the
    votes from the block's one draw of 2 * shots uniforms, each one output
    of the generator's PCG64 (``_rng``). A block it cannot decide rewinds
    the generator by those 2 * shots outputs, to where it stood before the
    measurement, and takes the binomial path, ``_measure`` and then
    ``_first_accept``, as every block of a table without cuts does. After
    an acceptance the generator stands further on; no caller draws again.
    """
    if cuts.cut is not None:
        cdf = _cdf(weights)  # unusable weights raise before anything is drawn
        block = _cut_block(rng, cdf, cuts, shots)
        if block is not None:
            return block
        rng.bit_generator.advance(-2 * shots)
    sampled = _measure(rng, weights, shots)
    first = _first_accept(rng, cuts, sampled)
    return (None, shots) if first == shots else (int(sampled[first]), first + 1)


def run_search(
    instance: ProblemInstance,
    seed: Seed,
    shots: int = DEFAULT_SHOTS,
) -> SearchResult:
    """Run the full search loop and return its outcome, cost, and trace.

    For m = 0 .. search_blocks(n) - 1: build the m-round preparation
    exactly, sample ``shots`` measured indices from its exact
    distribution, and verify each sampled index classically; stop at the
    first verified solution. Charges shots * C(m) per entered block plus
    v(n) per verified sample.
    """
    shots = check_shots(shots)
    rng = _rng(seed)
    v = verification_repetitions(instance.n, shots)
    cuts = _vote_cuts(instance.ps, v)
    total = 0
    blocks = []  # (m, w1, w0, C(m), verified) of every block entered
    for m, w1, w0, cost in _rounds(instance, search_blocks(instance.n) - 1):
        hit, verified = _sample_block(rng, _weights(w1, w0), cuts, shots)
        total += shots * cost + verified * v
        blocks.append((m, w1, w0, cost, verified))
        if hit is not None:
            break
    trace = tuple(
        _row(TraceRow, m, stats, cost, shots, verified)
        for (m, _, _, cost, verified), stats in _with_stats(instance, blocks)
    )
    return SearchResult("no_solutions" if hit is None else "found", hit, total, trace)


def run_block(
    instance: ProblemInstance,
    m: int,
    seed: Seed,
    shots: int = DEFAULT_SHOTS,
) -> tuple[Optional[int], int]:
    """Run a single m-block in isolation (for per-block success studies).

    Builds the m-round preparation, samples ``shots`` indices, verifies
    sample-by-sample. Returns (accepted class id or None, total cost).
    """
    m = check_int("m", m, 0, MAX_ROUNDS)
    shots = check_shots(shots)
    rng = _rng(seed)
    v = verification_repetitions(instance.n, shots)
    for _, w1, w0, cost in _rounds(instance, m):
        pass
    hit, verified = _sample_block(rng, _weights(w1, w0), _vote_cuts(instance.ps, v), shots)
    return hit, shots * cost + verified * v


class _BlockLaw(NamedTuple):
    """The exact law of one block of ``run_search`` (see ``_block_laws``)."""

    m: int
    cost: int  # C(m)
    v: int  # votes per verified sample
    q_good: float  # chance that one shot is an accepted solution
    q_bad: float  # chance that one shot is an accepted non-solution
    log_miss: float  # ln(1 - q), q = q_good + q_bad; -inf when q >= 1
    verified: float  # expected samples verified


def _block_laws(instance: ProblemInstance, shots: int) -> Iterator[_BlockLaw]:
    """Yield the law of each block m = 0 .. search_blocks(n) - 1, built when
    it is asked for; the only place the law is formed. One shot measures
    class c with chance w_c (the normalized measurement weights) and the v
    votes accept it with chance acc_c = majority_prob(v, p_c), computed
    once, so a shot is accepted with chance q = sum_c w_c acc_c. The block
    verifies samples until one is accepted: (1 - (1 - q)^shots) / q of them
    on average, all of them when q = 0.
    """
    v = verification_repetitions(instance.n, shots)
    acc = majority_prob(v, instance.ps)
    for m, w1, w0, c in _rounds(instance, search_blocks(instance.n) - 1):
        w = np.add(w1, w0)
        accepted = w * acc / w.sum()
        q_good = float(accepted[instance.solution].sum())
        q_bad = float(accepted[instance.nonsolution].sum())
        q = q_good + q_bad
        log_miss = math.log1p(-q) if q < 1.0 else -math.inf
        verified = -math.expm1(shots * log_miss) / q if q > 0.0 else shots  # accurate for tiny q
        yield _BlockLaw(m, c, v, q_good, q_bad, log_miss, verified)


def exact_outcome(instance: ProblemInstance, shots: int = DEFAULT_SHOTS) -> ExactOutcome:
    """The exact outcome distribution of ``run_search``, a fold over the
    block laws: block m accepts a solution with chance E q_good and a
    non-solution with chance E q_bad, E its expected samples verified.
    O(blocks x classes); nothing is sampled."""
    shots = check_shots(shots)
    reach = 1.0  # chance that the search enters the block
    p_found = p_false = cost = 0.0
    found: list[float] = []
    false_accept: list[float] = []
    for law in _block_laws(instance, shots):
        found.append(law.verified * law.q_good)
        false_accept.append(law.verified * law.q_bad)
        cost += reach * (shots * law.cost + law.verified * law.v)
        p_found += reach * found[-1]
        p_false += reach * false_accept[-1]
        reach *= math.exp(shots * law.log_miss)
    return ExactOutcome(p_found, p_false, reach, cost, tuple(found), tuple(false_accept))


def _found_blocks(instance: ProblemInstance, shots: int) -> Iterator[tuple]:
    """Yield (start, v, found) per block of ``run_search``: once it has
    verified j of the block's samples, 1 <= j <= shots, the run has paid
    start + j v and has accepted a solution with chance found(j).
    found(shots) sums P(found) through the block as ``exact_outcome`` does."""
    reach, done, start = 1.0, 0.0, 0
    for law in _block_laws(instance, shots):
        start += shots * law.cost

        def found(j: int, done: float = done, reach: float = reach, law: _BlockLaw = law) -> float:
            q_good, q = law.q_good, law.q_good + law.q_bad
            return done + reach * (-math.expm1(j * law.log_miss) / q * q_good if q_good else 0.0)

        yield start, law.v, found
        done = found(shots)
        reach *= math.exp(shots * law.log_miss)
        start += shots * law.v


def exact_cost_quantile(
    instance: ProblemInstance, confidence: float, shots: int = DEFAULT_SHOTS
) -> Optional[int]:
    """The smallest integer x such that ``run_search`` accepts a solution
    with total_cost <= x with chance >= ``confidence``, which lies in
    (0, 1); None when P(found) is below it. It stops at the first block
    whose end reaches the confidence and bisects the samples verified
    there: O(blocks + log shots)."""
    confidence = check_prob("confidence", confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    shots = check_shots(shots)
    for start, v, found in _found_blocks(instance, shots):
        if found(shots) >= confidence:
            return start + v * (1 + bisect_left(range(1, shots), confidence, key=found))
    return None
