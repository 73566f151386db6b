"""Domain model for quantum search over bounded-error subroutines.

The search space is a family of n black-box subroutines; subroutine i
outputs a "this index is a solution" bit that is correct only with some
probability p_i per run. Indices sharing the same (p, is_solution) pair
are grouped into an :class:`IndexClass`. By symmetry every index of a
class carries the same amplitudes, and the round operators either scale
a class's flag-1 or flag-0 part or move mass from flag 1 to flag 0, so
the state is two numbers per class: its flag-1 and flag-0 mass. State
size is the number of classes, independent of n and of the round count,
which keeps exact simulation cheap for n up to ~1e12. The state holds
no round index, and ``state_stats`` returns its statistics as a tuple.

Workspace/junk registers are never materialized: every flag-0 part a
push-back creates sits in a junk sector orthogonal to everything else,
so only its mass matters to later rounds and to every statistic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# The promise separating solutions from non-solutions: a solution
# subroutine says "1" with probability >= 9/10, a non-solution with
# probability <= 1/10.
PROMISE_GOOD = 0.9
PROMISE_BAD = 0.1

# Tolerance for the "state is normalized" precondition of round operations.
NORM_TOL = 1e-6


class InvariantError(ValueError):
    """A round operator's precondition on the state, or the unitarity of
    a matrix an oracle builds (``oracles.UnitarityError``), does not hold."""


def check_int(name: str, value, lo: int, hi: Optional[int] = None) -> int:
    """Return ``value`` as an ``int``, or raise a ``ValueError`` naming
    ``name`` if it is not an integer (bool, float, str and None included)
    or lies outside [lo, hi] (no upper bound when hi is None). numpy
    integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        high = "inf" if hi is None else _int_text(hi)
        raise ValueError(f"{name} must lie in [{lo}, {high}], got {_int_text(value)}")
    return int(value)


def _int_text(value: int) -> str:
    """An int as an error writes it: past 30 digits by its bit length, as
    Python writes no int of more than 4300 digits."""
    sign = "negative " if value < 0 else ""
    return str(value) if abs(value) < 10**30 else f"a {sign}{value.bit_length()}-bit int"


def check_prob(name: str, value, hi: float = 1.0, hi_text: str = "1") -> float:
    """Return ``value`` as a ``float``, or raise a ``ValueError`` naming
    ``name`` if it is not a real number (bool, str and None included) or
    lies outside [0, hi] (NaN included); the error writes hi as
    ``hi_text``. numpy floats and integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= hi:
        shown = _int_text(value) if isinstance(value, int) else repr(value)
        raise ValueError(f"{name} must lie in [0, {hi_text}], got {shown}")
    return float(value)


def check_bool(name: str, value) -> bool:
    """Return ``value`` as a ``bool``, or raise a ``ValueError`` naming
    ``name`` if it is not one (0, 1, 1.0, str and None included). numpy
    bools pass."""
    if not isinstance(value, (bool, np.bool_)):
        shown = _int_text(value) if isinstance(value, int) else repr(value)
        raise ValueError(f"{name} must be a bool, got {shown}")
    return bool(value)


@dataclass(frozen=True, slots=True)
class IndexClass:
    """A group of indices whose subroutines behave identically.

    Parameters
    ----------
    p : float
        Probability that one run of the subroutine outputs 1, as a ``float``.
    count : int
        Number of indices in the class (>= 1), stored as an ``int``.
    is_solution : bool
        Whether these indices really are solutions, stored as a ``bool``.
    """

    p: float
    count: int
    is_solution: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_prob("p", self.p))
        object.__setattr__(self, "count", check_int("count", self.count, 1))
        if type(self.is_solution) is not bool:  # an exact bool needs no call and no store
            object.__setattr__(self, "is_solution", check_bool("is_solution", self.is_solution))


@dataclass(frozen=True)
class ProblemInstance:
    """A search space of bounded-error subroutines, collapsed by class.

    ``strict=True`` enforces the promise: solution classes must have
    p >= 9/10 and non-solution classes p <= 1/10. Relaxed instances are
    allowed for exploratory sweeps and are flagged in all CLI output.

    Construction also fixes the per-class arrays the round operators use,
    all read-only with one entry per class: ``ps`` (success probability),
    ``counts`` (class size as a float), ``solution`` (truth mask) and
    ``nonsolution`` (its negation), and the total number of indices ``n``.
    """

    classes: tuple[IndexClass, ...]
    strict: bool = True
    n: int = field(init=False, repr=False, compare=False)
    ps: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    solution: np.ndarray = field(init=False, repr=False, compare=False)
    nonsolution: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if type(self.strict) is not bool:  # an exact bool needs no call and no store
            object.__setattr__(self, "strict", check_bool("strict", self.strict))
        object.__setattr__(self, "n", sum(c.count for c in self.classes))
        try:
            float(self.n)
        except OverflowError:
            raise ValueError("instance size n is too large for float masses") from None
        truth = [c.is_solution for c in self.classes]
        for name, values, dtype in (
            ("ps", [c.p for c in self.classes], float),
            ("counts", [float(c.count) for c in self.classes], float),
            ("solution", truth, bool),
            ("nonsolution", [not x for x in truth], bool),
        ):
            array = np.array(values, dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.n < 1:
            raise ValueError("instance must contain at least one index")
        if self.strict:
            for c in self.classes:
                if c.is_solution and c.p < PROMISE_GOOD:
                    raise ValueError(
                        f"strict mode: solution class has p={c.p} < {PROMISE_GOOD}"
                    )
                if not c.is_solution and c.p > PROMISE_BAD:
                    raise ValueError(
                        f"strict mode: non-solution class has p={c.p} > {PROMISE_BAD}"
                    )

    @property
    def t(self) -> int:
        """Number of solution indices."""
        return sum(c.count for c in self.classes if c.is_solution)


def make_instance(
    n: int,
    t: int,
    p_good: float,
    p_bad: float,
    strict: bool = True,
) -> ProblemInstance:
    """Build the canonical two-class instance: t solutions, n - t non-solutions.

    Raises ``ValueError`` for a non-integer n or t, t > n, a probability
    that is not a number in [0, 1], a strict that is not a bool, or
    strict-mode promise violations.
    """
    strict = check_bool("strict", strict)
    n = check_int("n", n, 1)
    t = check_int("t", t, 0, n)
    p_good, p_bad = check_prob("p_good", p_good), check_prob("p_bad", p_bad)
    if strict:
        if p_good < PROMISE_GOOD:
            raise ValueError(f"strict mode requires p_good >= {PROMISE_GOOD}, got {p_good}")
        if p_bad > PROMISE_BAD:
            raise ValueError(f"strict mode requires p_bad <= {PROMISE_BAD}, got {p_bad}")
    classes = []
    if t > 0:
        classes.append(IndexClass(p=p_good, count=t, is_solution=True))
    if t < n:
        classes.append(IndexClass(p=p_bad, count=n - t, is_solution=False))
    return ProblemInstance(classes=tuple(classes), strict=strict)


def expand_classes(instance: ProblemInstance) -> ProblemInstance:
    """Split every class into singleton classes (one per index).

    Exact statistics are invariant under this expansion; it exists for
    cross-checks and for the per-index dense validation harness.
    """
    singles = tuple(
        IndexClass(p=c.p, count=1, is_solution=c.is_solution)
        for c in instance.classes
        for _ in range(c.count)
    )
    return ProblemInstance(classes=singles, strict=instance.strict)


@dataclass(frozen=True, eq=False)
class StructuredState:
    """Per-class masses of a preparation state A_k|0>.

    ``w1[c]`` and ``w0[c]`` are the probabilities that measuring the
    index and flag registers yields an index of class c with flag 1 and
    flag 0. Both are read-only float arrays with one entry per class:
    1-D, of one length, and not empty.
    """

    w1: np.ndarray
    w0: np.ndarray

    def __post_init__(self) -> None:
        for name in ("w1", "w0"):
            masses = np.array(getattr(self, name), dtype=float)
            if masses.ndim != 1 or not masses.size:
                raise ValueError(
                    f"state {name} must be a nonempty 1-D array, got shape {masses.shape}"
                )
            # NaN fails both comparisons, so one min and one max settle it.
            if not (0.0 <= masses.min() and masses.max() < math.inf):
                bad = masses[~(masses >= 0.0) | (masses == math.inf)][0]
                raise ValueError(f"state {name} must hold finite nonnegative masses, got {bad}")
            masses.flags.writeable = False
            object.__setattr__(self, name, masses)
        if self.w1.size != self.w0.size:
            raise ValueError(
                f"state w1 and w0 must have one length, got {self.w1.size} and {self.w0.size}"
            )

    @classmethod
    def _adopt(cls, w1: np.ndarray, w0: np.ndarray) -> "StructuredState":
        """A state that takes ownership of two fresh float arrays from a round
        kernel, already 1-D, nonempty and of one length: they are made
        read-only in place, with no copy and no checks."""
        state = object.__new__(cls)
        for name, masses in (("w1", w1), ("w0", w0)):
            masses.flags.writeable = False
            object.__setattr__(state, name, masses)
        return state


def check_state(state: StructuredState, instance: ProblemInstance) -> None:
    """Reject a state whose class count is not the instance's."""
    if state.w1.size != instance.ps.size:
        raise ValueError(
            f"state has {state.w1.size} classes but the instance has {instance.ps.size}"
        )


def _base_masses(instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (w1, w0) class arrays of the base state ``init_state`` returns."""
    n = float(instance.n)
    return instance.counts * instance.ps / n, instance.counts * (1.0 - instance.ps) / n


def init_state(instance: ProblemInstance) -> StructuredState:
    """Run every subroutine once in uniform superposition over indices.

    Class c gets flag-1 mass count*p/n and flag-0 mass count*(1-p)/n.
    """
    return StructuredState._adopt(*_base_masses(instance))


def total_mass(state: StructuredState) -> float:
    """Total probability mass of the state (1 for a normalized state)."""
    return float(state.w1.sum() + state.w0.sum())


def state_stats(state: StructuredState, instance: ProblemInstance) -> tuple[float, ...]:
    """(alpha, beta, theta, p_solution) of a structured state, in
    ``CurvePoint`` field order: the square roots of the flag-1 solution
    and non-solution masses, the amplification angle
    arcsin(sqrt(alpha^2 + beta^2)), and the probability that measuring
    the index register yields a solution index (any flag)."""
    check_state(state, instance)
    return _stats_rows(state.w1.reshape(1, -1), state.w0.reshape(1, -1), instance)[0]


def _stats_rows(
    w1: np.ndarray, w0: np.ndarray, instance: ProblemInstance
) -> list[tuple[float, float, float, float]]:
    """``state_stats`` of every row of two C-ordered (rows, classes) tables
    of flag-1 and flag-0 masses, in one pass; callers pass at most 64 rows.

    Each mass sum is ``np.add.reduce`` along a row of a C-ordered
    ``np.compress`` of the table, so a row is summed in the order a 1-D
    array of its classes is. (``table[:, mask]`` would come out F-ordered
    and sum eight or more classes in another order.)
    """
    sol = instance.solution
    alpha2 = np.add.reduce(np.compress(sol, w1, axis=1), axis=1).tolist()
    beta2 = np.add.reduce(np.compress(instance.nonsolution, w1, axis=1), axis=1).tolist()
    p_solution = np.add.reduce(np.compress(sol, w1 + w0, axis=1), axis=1).tolist()
    return list(map(_stats_row, alpha2, beta2, p_solution))


def _stats_row(alpha2: float, beta2: float, p_solution: float) -> tuple[float, float, float, float]:
    """(alpha, beta, theta, p_solution) from the flag-1 solution mass
    alpha^2, the flag-1 non-solution mass beta^2 and the solution mass."""
    return (
        math.sqrt(alpha2),
        math.sqrt(beta2),
        math.asin(min(1.0, math.sqrt(min(1.0, alpha2 + beta2)))),
        p_solution,
    )


def measurement_weights(state: StructuredState) -> np.ndarray:
    """Exact index-register measurement distribution, per class.

    Entry c is the probability that measuring the index register yields
    an index of class c (any flag): w1[c] + w0[c].
    """
    return state.w1 + state.w0
