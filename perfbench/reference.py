"""Independent checks of every benchmark output.

Nothing here calls ``besearch``. Repetition counts are found in exact
integer arithmetic: with promise error 1/10 the majority error of r runs
is T(r) / 10^r, where T(r) = sum_{j > r/2} C(r, j) 9^(r-j), so
"error <= a/b" is the integer test T(r) * b <= a * 10^r. The exact
per-round statistics come from a per-class mass recursion in numpy:
per class c, w1 and w0 are the flag-1 and flag-0 masses; with
s = sum(w1), amplification maps w1 *= (3-4s)^2, w0 *= (1-4s)^2, and the
round-k push-back maps w0 += w1 (1-m_c), w1 *= m_c, where m_c is the
majority probability of r_k runs at the class's p.
"""
from __future__ import annotations

import math

import numpy as np

SHOTS = 1000  # the driver's default shots per block
VERIFY_CONFIDENCE = 100  # execution-wide false-accept budget is 1/100
TOL = 1e-9  # the one-round dense cross-check tolerance

# Aggregate quality thresholds used by the acceptance tests: found in
# >= 375/500 planted searches, no_solutions in >= 495/500 empty ones,
# and tree evaluations agreeing with the truth in >= 180/200 runs.
MAX_MISS_RATE = 0.25
MAX_FALSE_ACCEPT_RATE = 0.01
MIN_AGREE_RATE = 0.9
# An observed count fails a rate threshold only when a count at least
# that extreme has probability below this at the threshold rate.
SIGNIFICANCE = 1e-6


def ceil_log9(n: int) -> int:
    m, power = 0, 1
    while power < n:
        power *= 9
        m += 1
    return m


class Repetitions:
    """Exact minimal odd majority sizes at promise error 1/10."""

    def __init__(self) -> None:
        self._tail = {}
        self._rounds = [None]  # r_k by k; index 0 unused
        self._costs = [1]  # C(m)

    def tail(self, r: int) -> int:
        if r not in self._tail:
            self._tail[r] = sum(math.comb(r, j) * 9 ** (r - j) for j in range(r // 2 + 1, r + 1))
        return self._tail[r]

    def minimal(self, num: int, den: int, start: int = 1) -> int:
        """Smallest odd r >= start whose majority error is <= num/den."""
        r = start
        while self.tail(r) * den > num * 10**r:
            r += 2
        return r

    def round_reps(self, k: int) -> int:
        """r_k: budget 2^-(k+5); budgets shrink, so each scan resumes."""
        while len(self._rounds) <= k:
            j = len(self._rounds)
            self._rounds.append(self.minimal(1, 2 ** (j + 5), self._rounds[-1] or 1))
        return self._rounds[k]

    def cost(self, m: int) -> int:
        """C(m) = 3 C(m-1) + r_m, C(0) = 1."""
        while len(self._costs) <= m:
            k = len(self._costs)
            self._costs.append(3 * self._costs[-1] + self.round_reps(k))
        return self._costs[m]

    def verify_reps(self, n: int, shots: int = SHOTS) -> int:
        return self.minimal(1, VERIFY_CONFIDENCE * shots * (ceil_log9(n) + 1))

    def simple_search_cost(self, n: int) -> int:
        # The iteration count is defined in floating point; only the
        # repetition count has an exact route.
        return math.ceil(math.pi / 4 * math.sqrt(n)) * self.minimal(1, 100 * n)


def majority(r: int, p: np.ndarray) -> np.ndarray:
    js = np.arange(r // 2 + 1, r + 1)
    coef = np.array([float(math.comb(r, j)) for j in js])
    return (coef * p[:, None] ** js * (1.0 - p[:, None]) ** (r - js)).sum(axis=1)


def mass_curve(p, count, solution, m_max: int, reps: Repetitions) -> np.ndarray:
    """Rows (alpha, beta, p_solution) for m = 0..m_max."""
    p = np.asarray(p, dtype=float)
    sol = np.asarray(solution, dtype=bool)
    n = sum(count)
    frac = np.array([c / n for c in count])
    w1, w0 = frac * p, frac * (1.0 - p)
    rows = []
    for k in range(m_max + 1):
        rows.append((math.sqrt(w1[sol].sum()), math.sqrt(w1[~sol].sum()), (w1 + w0)[sol].sum()))
        if k == m_max:
            break
        s = min(1.0, w1.sum())
        w1 = w1 * (3.0 - 4.0 * s) ** 2
        w0 = w0 * (1.0 - 4.0 * s) ** 2
        keep = majority(reps.round_reps(k + 1), p)
        w0 = w0 + w1 * (1.0 - keep)
        w1 = w1 * keep
    return np.array(rows)


def two_class(spec: dict):
    """(p, count, solution) arrays of a two-class spec, as make_instance orders them."""
    n, t = spec["n"], spec["t"]
    classes = []
    if t > 0:
        classes.append((spec["p_good"], t, True))
    if t < n:
        classes.append((spec["p_bad"], n - t, False))
    return tuple(zip(*classes))


def check_rows(rows, expected: np.ndarray, reps: Repetitions, problems: list, what: str) -> None:
    """Compare (m, alpha, beta, p_solution, cost) rows with the recursion."""
    for i, row in enumerate(rows):
        if row.m != i or row.cost != reps.cost(i):
            problems.append(f"{what} row {i}: m={row.m} cost={row.cost}, want cost {reps.cost(i)}")
            return
        got = (row.alpha, row.beta, row.p_solution)
        dev = max(abs(g - e) for g, e in zip(got, expected[i]))
        if not dev <= TOL:
            problems.append(f"{what} row {i}: deviation {dev:.3e} from mass recursion")
            return


def check_search(result, spec: dict, reps: Repetitions, problems: list) -> None:
    """Reconcile a run_search result: structure, statistics, and the ledger in integers."""
    p, count, solution = two_class(spec)
    n = spec["n"]
    blocks = max(1, ceil_log9(n))
    trace = result.trace
    if not 1 <= len(trace) <= blocks:
        problems.append(f"search: {len(trace)} blocks, expected 1..{blocks}")
        return
    check_rows(trace, mass_curve(p, count, solution, len(trace) - 1, reps), reps, problems, "search")
    v = reps.verify_reps(n)
    found = result.outcome == "found"
    if result.outcome not in ("found", "no_solutions") or found != (result.found_class is not None):
        problems.append(f"search: outcome {result.outcome!r} with class {result.found_class!r}")
    elif found and not 0 <= result.found_class < len(p):
        problems.append(f"search: found class {result.found_class} out of range")
    elif not found and len(trace) != blocks:
        problems.append("search: no_solutions before the last block")
    for i, row in enumerate(trace):
        last = i == len(trace) - 1
        full = row.verified == row.shots
        if row.shots != SHOTS or not 1 <= row.verified <= row.shots or (not last and not full) or (
            last and not found and not full
        ):
            problems.append(f"search row {i}: shots={row.shots} verified={row.verified}")
    ledger = sum(row.shots * reps.cost(row.m) + row.verified * v for row in trace)
    if result.total_cost != ledger:
        problems.append(f"search: total_cost {result.total_cost} != ledger {ledger}")


def search_outcome(result, spec: dict) -> tuple[bool, bool]:
    """(missed, false_accept) of one search."""
    solution = two_class(spec)[2]
    false_accept = result.found_class is not None and not solution[result.found_class]
    return spec["t"] > 0 and result.outcome == "no_solutions", false_accept


def tree_truth(spec: dict) -> int:
    """Truth of an AND-OR tree: reduce levels bottom-up; gates alternate from the root."""
    vals = np.frombuffer(spec["bits"], dtype=np.uint8).reshape(spec["fanouts"]).astype(bool)
    for level in range(spec["depth"] - 1, -1, -1):
        is_or = (spec["root"] == "OR") == (level % 2 == 0)
        vals = vals.any(axis=-1) if is_or else vals.all(axis=-1)
    return int(vals)


def check(kind: str, spec: dict, out, reps: Repetitions) -> list:
    """Problems found in one operation's output (empty when correct)."""
    problems = []
    if kind == "search":
        check_search(out, spec, reps, problems)
    elif kind == "andor":
        if out not in (0, 1):
            problems.append(f"andor: result {out!r} is not a bit")
    elif kind == "curve":
        if len(out) != spec["m"] + 1:
            problems.append(f"curve: {len(out)} rows for m={spec['m']}")
        else:
            expected = mass_curve(spec["p"], spec["count"], spec["solution"], spec["m"], reps)
            check_rows(out, expected, reps, problems, "curve")
    elif kind == "huge":
        curve, sweep, v, simple, result = out
        n, m = spec["n"], spec["m"]
        expected = mass_curve(*two_class(spec), m, reps)
        if len(curve) != m + 1:
            problems.append(f"huge: {len(curve)} curve rows for m={m}")
        else:
            check_rows(curve, expected, reps, problems, "huge curve")
        want_v = reps.verify_reps(n)
        want_sweep = sum(SHOTS * (reps.cost(b) + want_v) for b in range(max(1, ceil_log9(n))))
        for name, got, want in (
            ("verification_repetitions", v, want_v),
            ("full_sweep_cost", sweep, want_sweep),
            ("simple_search_cost", simple, reps.simple_search_cost(n)),
        ):
            if got != want:
                problems.append(f"huge: {name} {got} != {want}")
        check_search(result, spec, reps, problems)
    elif kind == "check_facts":
        code, text = out
        lines = text.splitlines()
        if code != 0 or len(lines) != 4 or not all(line.endswith(": ok") for line in lines):
            problems.append(f"check-facts: exit {code}, output {text!r}")
    return problems


def binomial_tail(n: int, k: int, rate: float, upper: bool) -> float:
    """P[Binomial(n, rate) >= k] (upper) or P[... <= k] (lower)."""
    js = range(k, n + 1) if upper else range(0, k + 1)
    log_r, log_q, log_n = math.log(rate), math.log1p(-rate), math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_r + (n - j) * log_q)
        for j in js
    )


def rate_ok(count: int, total: int, threshold: float, upper: bool) -> bool:
    """Whether ``count`` of ``total`` is consistent with a rate on the right side of ``threshold``."""
    if total == 0:
        return True
    if (count <= threshold * total) if upper else (count >= threshold * total):
        return True
    return binomial_tail(total, count, threshold, upper) >= SIGNIFICANCE
