#!/usr/bin/env python3
"""Check the majority vectors built from power tables against the per-r
formula, bit for bit, on this numpy.

``besearch.error_reduction._class_powers`` computes every p^j and (1-p)^j
once, one row per class, per round chain or per ``majority_prob`` call.
From 8 classes on, and in ``majority_prob``, ``_majority`` forms each r's
terms C(r, j) p^j (1-p)^(r-j) from column slices of those tables. A chain
under 8 classes instead gathers the terms of every odd r from r_1 to its
last r_k, up to r = 253, into padded rows of one width
(``error_reduction._padded_plan``) that one reduction adds. Either gives
the floats of the formula that computed every power anew for each r only
because numpy's ``power`` rounds a given (p, j) in the tables as in the
formula, and the terms of a class are added in the formula's order. The
padded rows add in that order only under numpy's summation rule, which
``row_sum`` states. This script checks:

* ``row_sum`` against numpy on rows of 1 .. 700 floats, with -0.0 and
  subnormal entries; a numpy that adds otherwise fails here, by name;
* ``majority_prob`` at every odd r up to 1029, at 1, 2, 3, 7, 8, 64 and
  600 classes, on probability vectors that hold 0, 1, 1/2, 0.1, 0.9,
  1e-300 and the smallest subnormal among random values;
* at 1 .. 8, 64 and 600 classes, the majority vector of a MAX_ROUNDS-round
  chain at every distinct r_k, and every chain of 1 .. MAX_ROUNDS rounds
  against the longest. From 8 classes on its power tables must be the
  leading columns of the longest chain's and its majority vector at its
  last r_m must equal the longest chain's; under 8, its majority vectors
  must be the leading rows of the longest chain's.

The class counts are checked in ``WORKERS`` processes. The script prints
numpy's version and the number of compared entries, and exits 1 naming
the first mismatch.

    python3 scripts/power_table_check.py
"""
from __future__ import annotations

import functools
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import besearch.driver as driver  # noqa: E402
from besearch.error_reduction import (  # noqa: E402
    _MAX_REPS, MAX_ROUNDS, _chain_majorities, _class_powers, _majority,
    majority_prob, schedule_for_round,
)
from besearch.model import IndexClass, ProblemInstance  # noqa: E402

CLASSES = (1, 2, 3, 7, 8, 64, 600)
CHAIN_CLASSES = (*range(1, 9), 64, 600)
EDGES = (0.0, 1.0, 0.5, 0.1, 0.9, 1e-300, 5e-324)

# The class counts are checked in this many processes; the 600-class
# majority_prob sweep, most of the work, is split between them.
WORKERS = 2


@functools.cache
def _coefficients(r: int) -> np.ndarray:
    """C(r, j) for j = (r+1)/2 .. r, each exact integer rounded once, from
    the row C(r, 0 .. r)."""
    row = [1]
    for j in range(r):
        row.append(row[-1] * (r - j) // (j + 1))
    return np.array([float(c) for c in row[(r + 1) // 2:]])


def reference_majority(r: int, p) -> np.ndarray:
    """The majority formula that computed every power anew for each r:
    the powers with the exponents on the inner axis, and each entry's
    terms added along one contiguous row."""
    col = np.asarray(p, dtype=float).reshape(-1, 1)
    q = 1.0 - col
    ones = np.arange((r + 1) // 2, r + 1, dtype=float)
    zeros = r - ones
    return np.add.reduce(_coefficients(r) * col**ones * q**zeros, axis=1)


def p_grids(classes: int) -> list[np.ndarray]:
    """Probability vectors of ``classes`` entries that hold, between them,
    every value of EDGES, padded with random values, and one random vector."""
    rng = np.random.default_rng(classes)
    edges = np.array(EDGES)
    rows = -(-edges.size // classes)
    padded = rng.permutation(np.concatenate([edges, rng.random(rows * classes - edges.size)]))
    return [*padded.reshape(rows, classes), rng.random(classes)]


def row_sum(row: list[float]) -> float:
    """numpy's ``add.reduce`` of a contiguous float row, in pure Python:
    the row's pairwise sum added to 0.0."""
    return 0.0 + _pairwise(row)


def _pairwise(row: list[float]) -> float:
    """numpy's pairwise sum of a contiguous float64 row."""
    n = len(row)
    if n < 8:
        total = 0.0
        for x in row:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(row[:half]) + _pairwise(row[half:])
    sums, cut = row[:8], n - n % 8
    for i in range(8, cut):
        sums[i % 8] += row[i]
    s0, s1, s2, s3, s4, s5, s6, s7 = sums
    total = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
    for x in row[cut:]:
        total += x
    return total


def summation_rows(n: int) -> np.ndarray:
    """Rows of ``n`` floats for the rule check: one of random magnitudes
    and signs, one with -0.0 and subnormal entries among them, and one all
    -0.0."""
    rng = np.random.default_rng(n)
    mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    zeros = mixed.copy()
    zeros[rng.random(n) < 0.3] = -0.0
    zeros[rng.random(n) < 0.2] = 5e-324
    return np.array([mixed, zeros, np.full(n, -0.0)])


def check_summation() -> tuple[Optional[str], int]:
    """numpy's summation of rows of 1 .. 700 floats against ``row_sum``."""
    compared = 0
    for n in range(1, 701):
        rows = summation_rows(n)
        want = np.array([row_sum(row) for row in rows.tolist()])
        if _differ(np.add.reduce(rows, axis=1), want):
            return (f"numpy's summation of {n} floats breaks the rule the padded "
                    f"term rows rely on (numpy {np.__version__})"), compared
        compared += rows.size
    return None, compared


def _differ(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape != want.shape or got.tobytes() != want.tobytes()


def _not_leading(part: np.ndarray, whole: np.ndarray) -> bool:
    """Whether the table ``part`` differs from the leading columns of ``whole``."""
    return _differ(part, whole[:, :part.shape[1]])


def check_majority(classes: int, part: int, parts: int) -> tuple[Optional[str], int]:
    """``majority_prob`` against the per-r formula at every ``parts``-th odd
    r from the ``part``-th, on every vector of ``p_grids(classes)``."""
    compared = 0
    for ps in p_grids(classes):
        for r in range(2 * part + 1, _MAX_REPS + 1, 2 * parts):
            if _differ(majority_prob(r, ps), reference_majority(r, ps)):
                return f"majority_prob({r}, ...) at {classes} classes differs", compared
            compared += classes
    return None, compared


def check_chains(classes: int) -> tuple[Optional[str], int]:
    """The chain's majority vectors and the tables of every chain prefix, on
    a relaxed instance whose probabilities are ``p_grids(classes)[0]``."""
    rng = np.random.default_rng(classes)
    ps = p_grids(classes)[0]
    inst = ProblemInstance(tuple(
        IndexClass(p, int(c), bool(s))
        for p, c, s in zip(ps.tolist(), rng.integers(1, 10**6, classes), rng.random(classes) < 0.5)
    ), strict=False)
    if classes < driver._FLOAT_CLASSES:
        return _check_padded_chains(inst)
    tables, keeps = [], {}

    def powers(ps, low, top):
        tables.append((low, *_class_powers(ps, low, top)))
        return tables[-1][1:]

    def majority(r, pw, qw, low):
        keeps[r] = _majority(r, pw, qw, low)
        return keeps[r]

    driver._class_powers, driver._majority = powers, majority
    try:
        _run_chains(inst)
    finally:
        driver._class_powers, driver._majority = _class_powers, _majority
    compared = 0
    for r, keep in keeps.items():
        if _differ(keep, reference_majority(r, inst.ps)):
            return f"the chain's majority vector at r = {r}, {classes} classes, differs", compared
        compared += classes
    (low, pw, qw), prefixes = tables[0], tables[1:]
    for m, (_, pw_m, qw_m) in enumerate(prefixes, start=1):
        r = schedule_for_round(m)
        if _not_leading(pw_m, pw) or _not_leading(qw_m, qw):
            return f"the tables of {m} rounds, {classes} classes, differ", compared
        if _differ(_majority(r, pw_m, qw_m, low), keeps[r]):
            return f"the majority vector of {m} rounds, {classes} classes, differs", compared
        compared += pw_m.size + qw_m.size + classes
    return None, compared


def _run_chains(inst: ProblemInstance) -> None:
    """Run a MAX_ROUNDS-round chain, then each chain of 1 .. MAX_ROUNDS - 1
    rounds to its first round, where it builds its tables."""
    for _ in driver._rounds(inst, MAX_ROUNDS):
        pass
    for m in range(1, MAX_ROUNDS):
        chain = driver._rounds(inst, m)
        next(chain)
        next(chain)


def _check_padded_chains(inst: ProblemInstance) -> tuple[Optional[str], int]:
    """``check_chains`` under 8 classes, where a chain reads every majority
    vector from the padded term rows."""
    classes, first = inst.ps.size, schedule_for_round(1)
    chains = []  # (last r_k, majority vectors) of every chain, the longest first

    def majorities(ps, top):
        chains.append((top, _chain_majorities(ps, top)))
        return chains[-1][1]

    driver._chain_majorities = majorities
    try:
        _run_chains(inst)
    finally:
        driver._chain_majorities = _chain_majorities
    (top, keeps), prefixes = chains[0], chains[1:]
    distinct = {schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)}
    rs = range(first, top + 1, 2)
    if set(rs) != distinct or len(keeps) != len(rs):
        return f"the chain's majority vectors at {classes} classes miss an r_k", 0
    compared = 0
    for r, keep in zip(rs, keeps):
        if _differ(keep, reference_majority(r, inst.ps)):
            return f"the chain's majority vector at r = {r}, {classes} classes, differs", compared
        compared += classes
    for m, (top_m, keeps_m) in enumerate(prefixes, start=1):
        if top_m != schedule_for_round(m) or _differ(keeps_m, keeps[:len(keeps_m)]):
            return f"the majority vectors of {m} rounds, {classes} classes, differ", compared
        compared += keeps_m.size
    return None, compared


def main() -> int:
    tasks = [functools.partial(check_majority, CLASSES[-1], part, WORKERS)
             for part in range(WORKERS)]
    tasks += [functools.partial(check_majority, classes, 0, 1) for classes in CLASSES[:-1]]
    tasks += [functools.partial(check_chains, classes) for classes in CHAIN_CLASSES]
    print(f"numpy {np.__version__}: row sums of 1 .. 700 floats, classes "
          f"{', '.join(map(str, CLASSES))} at every odd r up to {_MAX_REPS}, chains of "
          f"1 .. {MAX_ROUNDS} rounds at {', '.join(map(str, CHAIN_CLASSES))}")
    error, compared = check_summation()
    if error:
        print(error)
        return 1
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        for error, count in pool.map(_run, tasks):
            compared += count
            if error:
                print(error)
                pool.shutdown(cancel_futures=True)
                return 1
    print(f"{compared} entries compared")
    print("power table check: ok")
    return 0


def _run(task):
    return task()


if __name__ == "__main__":
    sys.exit(main())
