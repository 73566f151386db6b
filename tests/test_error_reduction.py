import functools
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import besearch.driver as driver
import besearch.error_reduction as error_reduction
from besearch import (
    MAX_ROUNDS,
    IndexClass,
    InvariantError,
    ProblemInstance,
    StructuredState,
    apply_amplification,
    apply_error_reduction,
    build_state,
    init_state,
    majority_prob,
    make_instance,
    repetitions_for,
    schedule_for_round,
    state_stats,
    total_mass,
)
from besearch.driver import verification_repetitions
from besearch.oracles import enumerate_majority
from conftest import load_script, strict_instances

odd_r = st.integers(0, 6).map(lambda k: 2 * k + 1)


def count_majority_calls(monkeypatch) -> list:
    """Count calls of the majority kernel from inside error_reduction."""
    calls = [0]
    kernel = error_reduction.majority_prob

    def counted(r, p):
        calls[0] += 1
        return kernel(r, p)

    monkeypatch.setattr(error_reduction, "majority_prob", counted)
    return calls


class TestMajorityProb:
    def test_single_run_is_identity(self):
        for p in (0.0, 0.3, 0.9, 1.0):
            assert majority_prob(1, p) == pytest.approx(p, abs=1e-15)

    def test_three_runs_at_point_nine(self):
        # exhaustive over 2^3 outcomes: 0.9^3 + 3 * 0.9^2 * 0.1
        assert majority_prob(3, 0.9) == pytest.approx(enumerate_majority(3, 0.9), abs=1e-15)
        assert majority_prob(3, 0.9) == pytest.approx(0.972, abs=1e-12)

    def test_symmetry_at_half(self):
        assert majority_prob(5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_five_runs_at_point_nine(self):
        assert majority_prob(5, 0.9) == pytest.approx(enumerate_majority(5, 0.9), abs=1e-15)
        assert majority_prob(5, 0.9) == pytest.approx(0.99144, abs=1e-12)

    def test_rejects_even_or_invalid(self):
        with pytest.raises(ValueError):
            majority_prob(4, 0.5)
        with pytest.raises(ValueError):
            majority_prob(-1, 0.5)
        with pytest.raises(ValueError):
            majority_prob(3, 1.5)

    @given(odd_r, st.floats(0.0, 1.0, allow_nan=False))
    def test_matches_enumeration_oracle(self, r, p):
        assert abs(majority_prob(r, p) - enumerate_majority(r, p)) <= 1e-12

    @given(odd_r, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nondecreasing_in_p(self, r, p1, p2):
        lo, hi = sorted((p1, p2))
        assert majority_prob(r, lo) <= majority_prob(r, hi) + 1e-15

    @given(odd_r, st.floats(0.0, 1.0, allow_nan=False))
    def test_monotone_in_repetitions(self, r, p):
        a, b = majority_prob(r, p), majority_prob(r + 2, p)
        if p > 0.5:
            assert b >= a - 1e-15
        elif p < 0.5:
            assert b <= a + 1e-15

    def test_array_matches_scalar_and_keeps_shape(self):
        grid = np.array([[0.0, 0.1, 0.37], [0.5, 0.93, 1.0]])
        for r in (1, 5, 37, 201):
            m = majority_prob(r, grid)
            assert m.shape == grid.shape
            assert m.tolist() == [[majority_prob(r, p) for p in row] for row in grid.tolist()]
            assert isinstance(majority_prob(r, 0.3), float)
            assert majority_prob(r, np.array([0.3])).shape == (1,)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_rejects_nan_or_out_of_range_entry(self, bad):
        with pytest.raises(ValueError):
            majority_prob(5, np.array([0.1, bad, 0.9]))

    @pytest.mark.parametrize("bad", [
        [True], ["0.9"], (0.1, True), [None], np.array(True), np.array([True]), np.array(["0.9"]),
    ], ids=["list-bool", "list-str", "tuple-bool", "list-None", "array-bool-0d", "array-bool",
            "array-str"])
    def test_rejects_non_number_entries(self, bad):
        with pytest.raises(ValueError, match="^p must be a number"):
            majority_prob(5, bad)

    def test_list_and_tuple_equal_the_array(self):
        for p in ([0.1, 0.9], (0.0, 0.5, 1.0), [0, 1], ()):
            assert majority_prob(5, p).tolist() == majority_prob(5, np.array(p, float)).tolist()
        assert majority_prob(5, np.array([0, 1])).tolist() == [0.0, 1.0]

    def test_array_matches_enumeration(self):
        grid = np.array([0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
        for r in range(1, 14, 2):
            want = [enumerate_majority(r, p) for p in grid.tolist()]
            assert np.max(np.abs(majority_prob(r, grid) - want)) <= 1e-12

    def test_r_is_capped_where_coefficients_overflow(self):
        # The cap is the largest r whose coefficients fit in a float, so r
        # past it is named before C(r, j) overflows.
        cap = error_reduction._MAX_REPS
        error_reduction._majority_terms(cap)
        with pytest.raises(OverflowError):
            error_reduction._majority_terms(cap + 2)
        assert majority_prob(cap, 0.5) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match=f"^r must lie in \\[1, {cap}\\], got {cap + 2}$"):
            majority_prob(cap + 2, 0.5)

    def test_within_eight_ulp_of_fsum_up_to_cap_repetitions(self):
        # The schedule's largest r is 647; the reference adds the same
        # terms in Python floats with a correctly rounded sum.
        grid = [0.1, 0.3, 0.5, 0.62, 0.9]
        for r in range(1, 648, 2):
            coeffs = [math.comb(r, j) for j in range((r + 1) // 2, r + 1)]
            want = [
                math.fsum(c * p**j * (1 - p) ** (r - j)
                          for j, c in enumerate(coeffs, (r + 1) // 2))
                for p in grid
            ]
            got = majority_prob(r, np.array(grid))
            assert np.all(np.abs(got - want) <= 8 * np.spacing(want)), r


@functools.cache
def _coefficients(r: int) -> np.ndarray:
    """C(r, j) for j = (r+1)/2 .. r, each exact integer rounded once, from
    the row C(r, 0 .. r)."""
    row = [1]
    for j in range(r):
        row.append(row[-1] * (r - j) // (j + 1))
    return np.array([float(c) for c in row[(r + 1) // 2:]])


def reference_majority(r: int, p) -> np.ndarray:
    """The majority formula that computed every power anew for each r, kept
    verbatim: the powers with the exponents on the inner axis, and each
    entry's terms added along one contiguous row."""
    col = np.asarray(p, dtype=float).reshape(-1, 1)
    q = 1.0 - col
    ones = np.arange((r + 1) // 2, r + 1, dtype=float)
    zeros = r - ones
    coeffs = _coefficients(r)
    return np.add.reduce(coeffs * col**ones * q**zeros, axis=1)


def p_grids(classes: int) -> list[np.ndarray]:
    """Probability vectors of ``classes`` entries that hold, between them,
    every edge value (0, 1, 1/2, 0.1, 0.9, 1e-300 and the smallest
    subnormal), padded and followed by random values."""
    rng = np.random.default_rng(classes)
    edges = np.array([0.0, 1.0, 0.5, 0.1, 0.9, 1e-300, 5e-324])
    rows = -(-edges.size // classes)
    padded = rng.permutation(np.concatenate([edges, rng.random(rows * classes - edges.size)]))
    return [*padded.reshape(rows, classes), rng.random(classes)]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestPowerTables:
    # Majority probabilities come from tables of p^j and (1-p)^j built once
    # (error_reduction._class_powers) and must equal the per-r formula bit for
    # bit. r = 3 (h = 2) is the case a table built with one row per
    # exponent gets wrong: with a stride-0 exponent numpy squares for
    # exponent 2, which differs from its general power in the last bit.
    @pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 64, 600])
    def test_majority_prob_equals_the_per_r_formula(self, classes):
        rs = range(1, error_reduction._MAX_REPS + 1, 2)
        if classes == 600:
            # Every r of under 8 terms, then every eighth: the chain test
            # below meets every r_k up to 647 at 600 classes, and
            # scripts/power_table_check.py checks every odd r.
            rs = [r for r in rs if r < 16 or r % 16 == 1]
        for ps in p_grids(classes):
            for r in rs:
                assert _bits(majority_prob(r, ps)) == _bits(reference_majority(r, ps)), r

    @pytest.mark.parametrize("classes", [1, 2, 8, 600])
    def test_chain_keep_vectors_equal_the_per_r_formula(self, classes, monkeypatch):
        # One keep vector per distinct r_k of a MAX_ROUNDS-round chain: under
        # 8 classes from _chain_majorities, row (r - r_1)/2; from 8 on from
        # the chain's one pair of power tables.
        keeps = {}
        chain, kernel = driver._chain_majorities, driver._majority

        def chained(ps, top):
            out = chain(ps, top)
            keeps.update(zip(range(schedule_for_round(1), top + 1, 2), out))
            return out

        def recorded(r, pw, qw, low):
            keeps[r] = kernel(r, pw, qw, low)
            return keeps[r]

        monkeypatch.setattr(driver, "_chain_majorities", chained)
        monkeypatch.setattr(driver, "_majority", recorded)
        rng = np.random.default_rng(classes)
        inst = ProblemInstance(tuple(
            IndexClass(p, int(c), bool(s))
            for p, c, s in zip(p_grids(classes)[0].tolist(), rng.integers(1, 10**6, classes),
                               rng.random(classes) < 0.5)
        ), strict=False)
        build_state(inst, MAX_ROUNDS)
        assert sorted(keeps) == sorted({schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)})
        for r, keep in keeps.items():
            assert _bits(keep) == _bits(reference_majority(r, inst.ps)), r


    def test_class_powers_hold_one_c_ordered_row_per_class(self):
        ps = np.random.default_rng(5).random(600)
        pw, qw = error_reduction._class_powers(ps, 323, 645)
        assert pw.shape == qw.shape == (600, 323)
        assert pw.flags.c_contiguous and qw.flags.c_contiguous
        for c in (0, 1, 599):
            assert _bits(pw[c]) == _bits(ps[c] ** np.arange(323.0, 646.0))
            assert _bits(qw[c]) == _bits((1.0 - ps[c]) ** np.arange(323.0))

    def test_wide_majority_prob_makes_no_table_copy(self):
        # At r = 645 on 600 entries the two power tables and the block of
        # terms are each 600 x 323 floats; a transposed copy of any of them
        # would take the peak to 4 tables.
        ps = np.random.default_rng(6).random(600)
        table = 600 * 323 * 8
        majority_prob(645, ps)  # the coefficients are cached outside the trace
        tracemalloc.start()
        try:
            majority_prob(645, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * table, peak / table


power_table_check = load_script("power_table_check")


class TestChainTerms:
    # Under 8 classes the round chain reads every majority vector up to r =
    # 253 from padded term rows of one width (error_reduction._padded_plan),
    # added by one reduction, and each later one from _majority.
    TOP = schedule_for_round(MAX_ROUNDS)

    @pytest.mark.parametrize("classes", range(1, 8))
    def test_vectors_equal_the_per_r_formula(self, classes):
        # Every odd r from r_1 to r_MAX_ROUNDS = 647, the p_grids edges, and
        # vectors of -0.0, alone and among 0, 1 and the smallest subnormal.
        grids = [*p_grids(classes), np.full(classes, -0.0),
                 np.resize([-0.0, 5e-324, 1.0, 0.0, 0.5], classes)]
        first = schedule_for_round(1)
        for ps in grids:
            vectors = error_reduction._chain_majorities(ps, self.TOP)
            assert vectors.shape == ((self.TOP - first) // 2 + 1, classes)
            for r, vector in zip(range(first, self.TOP + 1, 2), vectors):
                assert _bits(vector) == _bits(reference_majority(r, ps)), (r, ps)
            for top in (first, first + 2, 15, 17, 59, 61):
                shorter = error_reduction._chain_majorities(ps, top)
                assert _bits(shorter) == _bits(vectors[:len(shorter)]), top

    def test_numpy_adds_rows_by_the_stated_rule(self):
        # The padded rows give each r's own sum only under numpy's summation
        # rule, stated in pure Python by scripts/power_table_check.py's
        # row_sum and checked on rows of 1 .. 700 floats, some with -0.0
        # and subnormal entries and some all -0.0.
        rows = power_table_check.summation_rows(700)
        assert np.signbit(rows[1][rows[1] == 0.0]).any() and (rows[1] == 5e-324).any()
        assert np.signbit(rows[2]).all()
        assert power_table_check.check_summation() == (None, 3 * 700 * 701 // 2)

    @pytest.mark.parametrize("k", range(16))
    def test_plan_rows_are_the_padded_terms_of_every_odd_r(self, k):
        low, coeffs, p_column, q_column = error_reduction._padded_plan(k)
        first = schedule_for_round(1)
        rs = range(first, min(16 * k + 13, 253) + 1, 2)
        assert low == (first + 1) // 2
        assert coeffs.shape == p_column.shape == q_column.shape == (len(rs), 8 * k + 7)
        assert not (coeffs.flags.writeable or p_column.flags.writeable or q_column.flags.writeable)
        for row, r in enumerate(rs):
            h = (r + 1) // 2
            at = [*range(h - h % 8), *range(8 * k, 8 * k + h % 8)]
            padding = np.ones(8 * k + 7, bool)
            padding[at] = False
            ones = np.arange(h, r + 1)
            assert _bits(coeffs[row, at]) == _bits(error_reduction._majority_terms(r).ravel()), r
            assert np.array_equal(p_column[row, at], ones - low), r
            assert np.array_equal(q_column[row, at], r - ones), r
            assert _bits(coeffs[row, padding]) == _bits(np.zeros(padding.sum())), r
            assert not p_column[row, padding].any() and not q_column[row, padding].any(), r

    def test_threads_share_the_plans(self, monkeypatch):
        # Eight threads at shuffled tops on an empty plan cache, switching
        # every microsecond, get the bits of a single-thread call, and the
        # cache ends with one plan per k.
        tops = sorted({schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)})
        tops = [top for top in tops if top <= 255] + [self.TOP]
        ps = p_grids(3)[-1]
        want = {top: error_reduction._chain_majorities(ps, top) for top in tops}
        plans = functools.cache(error_reduction._padded_plan.__wrapped__)
        monkeypatch.setattr(error_reduction, "_padded_plan", plans)
        got = []

        def run(seed):
            for top in np.random.default_rng(seed).permutation(tops).tolist():
                got.append((top, error_reduction._chain_majorities(ps, top)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 * len(tops)
        for top, vectors in got:
            assert _bits(vectors) == _bits(want[top]), top
        assert plans.cache_info().currsize == 16

    @pytest.mark.parametrize("classes", [1, 2, 7])
    def test_majority_runs_only_past_253(self, classes, monkeypatch):
        calls = []
        kernel = error_reduction._majority
        monkeypatch.setattr(error_reduction, "_majority",
                            lambda r, *tables: calls.append(r) or kernel(r, *tables))
        ps = p_grids(classes)[-1]
        for top in (schedule_for_round(1), 13, 15, 251, 253):
            error_reduction._chain_majorities(ps, top)
        assert calls == []
        for top in (255, 257, self.TOP):
            calls.clear()
            error_reduction._chain_majorities(ps, top)
            assert calls == list(range(255, top + 1, 2)), top


class TestRepetitionsFor:
    def test_one_sixty_fourth(self):
        # r=3 fails: majority error 0.028 > 1/64; r=5 reaches ~0.00856
        assert enumerate_majority(3, 0.1) == pytest.approx(0.028, abs=1e-15)
        assert enumerate_majority(5, 0.1) == pytest.approx(0.00856, abs=1e-15)
        assert repetitions_for(1 / 64) == 5

    def test_one_128th(self):
        assert repetitions_for(1 / 128) == 7

    def test_loose_budget_needs_single_run(self):
        assert repetitions_for(0.5) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            repetitions_for(0.0)
        with pytest.raises(ValueError):
            repetitions_for(1.0)

    @pytest.mark.parametrize("eps,p", [(0.01, 0.4999), (1e-30, 0.45)])
    def test_scan_past_the_cap_is_named(self, eps, p):
        # These budgets once sent a scan at base error p past the cap. The
        # scan now runs at 1/10 and stops below the cap; a vote past the cap
        # is named by majority_prob before C(r, j) overflows.
        cap = error_reduction._MAX_REPS
        r = repetitions_for(eps)
        assert r < 647 < cap
        assert majority_prob(r, 0.1) <= eps
        with pytest.raises(ValueError, match=f"^r must lie in \\[1, {cap}\\], got {cap + 2}$"):
            majority_prob(cap + 2, p)

    @given(st.floats(1e-9, 0.999))
    @settings(max_examples=60)
    def test_result_is_minimal_odd(self, eps):
        r = repetitions_for(eps)
        assert r % 2 == 1
        assert majority_prob(r, 0.1) <= eps
        if r > 1:
            assert majority_prob(r - 2, 0.1) > eps


class TestSchedule:
    def test_first_rounds(self):
        # r_k is the minimal odd r whose majority error meets 2^-(k+5).
        for k, eps, r in ((1, 1 / 64, 5), (2, 1 / 128, 7), (3, 1 / 256, 7)):
            assert schedule_for_round(k) == r
            assert enumerate_majority(r, 0.1) <= eps < enumerate_majority(r - 2, 0.1)

    def test_round_three_via_oracle(self):
        # P(Bin(7, 0.1) >= 4) ~ 0.00273 <= 1/256, and r=5 fails
        assert enumerate_majority(7, 0.1) <= 1 / 256
        assert enumerate_majority(5, 0.1) > 1 / 256

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            schedule_for_round(0)

    def test_round_cap_is_exact(self):
        # At base error 1/10 the majority error of r runs is T(r) / 10^r with
        # T(r) = sum_{j > r/2} C(r, j) 9^(r-j), so this scan is integer-exact.
        # Round k resumes from r_{k-1}.
        tails = {}

        def over_budget(r, k):
            if r not in tails:
                tails[r] = sum(math.comb(r, j) * 9 ** (r - j) for j in range(r // 2 + 1, r + 1))
            return tails[r] * 2 ** (k + 5) > 10**r

        r = 1
        for k in range(1, MAX_ROUNDS + 1):
            while over_budget(r, k):
                r += 2
            assert schedule_for_round(k) == r, k
        assert r == 647
        with pytest.raises(ValueError):
            schedule_for_round(MAX_ROUNDS + 1)

    def test_one_majority_evaluation_per_odd_r(self, monkeypatch):
        # From an empty table: r = 1 is the base error itself, and every
        # odd r from 3 to r_MAX_ROUNDS = 647 is evaluated once, by whichever
        # count first needs it, from exact integers: majority_prob is not
        # called. Verification sizes then read the same table.
        table = [schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)]
        calls = count_majority_calls(monkeypatch)
        entries = [0]

        def counted():
            for error in error_reduction._majority_errors():
                entries[0] += 1
                yield error

        monkeypatch.setattr(error_reduction, "_neg_errors", [-0.1])
        monkeypatch.setattr(error_reduction, "_more_errors", counted())
        assert schedule_for_round(MAX_ROUNDS) == table[-1] == 647
        assert [schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)] == table
        assert entries[0] == 323
        for n in [1] + [9**e for e in range(1, 41)]:
            for shots in (1, 7, 100, 1000, 10**6):
                verification_repetitions(n, shots)
        assert entries[0] == 323
        assert calls[0] == 0

    def test_threads_extend_the_table_in_order(self, monkeypatch):
        # Eight threads asking for r = 1449 from an empty table, switching
        # every microsecond: each gets it, and the table ascends.
        monkeypatch.setattr(error_reduction, "_neg_errors", [-0.1])
        monkeypatch.setattr(error_reduction, "_more_errors", error_reduction._majority_errors())
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(repetitions_for(1e-300)))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [repetitions_for(1e-300)] * 8
        errors = error_reduction._neg_errors
        assert all(a < b for a, b in zip(errors, errors[1:]))

    def test_budget_memo_stays_bounded(self):
        # A sweep over shot counts asks for thousands of distinct budgets;
        # no memo keeps them: every count is read from the one table, which
        # holds one entry per odd r up to 1449 whatever was asked.
        table = [schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)]
        sizes = [verification_repetitions(6561, shots) for shots in range(1, 5001)]
        assert len(error_reduction._neg_errors) <= 725
        assert not hasattr(error_reduction._reps_within, "cache_info")
        assert [schedule_for_round(k) for k in range(1, MAX_ROUNDS + 1)] == table
        assert sizes[0] == verification_repetitions(6561, 1) and sizes == sorted(sizes)

    def test_table_falls_strictly_until_zero_at_1451(self):
        # Every eps in (0, 1) is met: the smallest subnormal too.
        errors = [0.1, *itertools.takewhile(lambda e: e > 0.0, error_reduction._majority_errors())]
        assert len(errors) == 725  # r = 1 .. 1449; r = 1451 is the first 0.0
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] == math.ulp(0.0)
        assert repetitions_for(math.ulp(0.0)) == 1449
        assert [-e for e in error_reduction._neg_errors] == errors

    def test_entries_equal_the_integer_sums(self):
        # Each entry is T(r) / 10^r rounded once, T(r) = sum_{j > r/2}
        # C(r, j) 9^(r-j) summed directly, not by the table's recurrence.
        repetitions_for(1e-300)  # fills the table past r = 701
        for r in range(1, 702, 2):
            tail = sum(math.comb(r, j) * 9 ** (r - j) for j in range(r // 2 + 1, r + 1))
            assert -error_reduction._neg_errors[r // 2] == tail / 10**r, r

    @pytest.mark.parametrize("eps, r", [(1e-146, 651), (9e-146, 647), (1e-150, 669),
                                        (1e-200, 893)])
    def test_budgets_below_the_float_powers(self, eps, r):
        # Below about 1e-145 the float table once read 645 or 647 for all
        # of these: its terms were formed from 0.1^j, subnormal from j = 308.
        def error(r):
            return sum(math.comb(r, j) * 9 ** (r - j) for j in range(r // 2 + 1, r + 1)) / 10**r

        assert repetitions_for(eps) == r
        assert error(r) <= eps < error(r - 2)

    @given(st.integers(1, 25))
    @settings(max_examples=25)
    def test_budget_formula_and_logarithmic_growth(self, k):
        r = schedule_for_round(k)
        # The budget is 2^-(k+5): r_k equals the count for that budget.
        assert r == repetitions_for(2.0 ** -(k + 5))
        # r = O(log(1/eps)) = O(k): generous linear envelope
        assert r <= 2 * (k + 5) + 1


class TestApplyErrorReduction:
    def test_solution_branch_split_factor(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state = apply_amplification(init_state(inst))
        after = apply_error_reduction(state, 1, inst)
        # solution class (id 0): flag-1 mass scaled by 0.99144
        assert after.w1[0] == pytest.approx(
            state.w1[0] * enumerate_majority(5, 0.9), abs=1e-15
        )
        # non-solution class (id 1): scaled by 0.00856
        assert after.w1[1] == pytest.approx(
            state.w1[1] * enumerate_majority(5, 0.1), abs=1e-15
        )
        # The caller's round index picks the vote size: round 2 takes r_2 = 7.
        second = apply_error_reduction(state, 2, inst)
        assert second.w1[0] == pytest.approx(
            state.w1[0] * enumerate_majority(7, 0.9), abs=1e-15
        )

    def test_perfect_subroutine_spawns_no_branch(self):
        # p = 1 keeps all flag-1 mass: nothing is pushed back to flag 0.
        inst = make_instance(2, 2, 1.0, 0.1)
        state = init_state(inst)
        after = apply_error_reduction(state, 1, inst)
        assert after.w1 == pytest.approx([1.0])
        assert list(after.w0) == [0.0]

    def test_flag_zero_branches_untouched(self):
        # Flag-0 mass only gains what flag 1 pushes back: w0 + w1 (1 - m).
        inst = make_instance(4, 1, 0.9, 0.1)
        state = init_state(inst)
        after = apply_error_reduction(state, 1, inst)
        m = [enumerate_majority(5, c.p) for c in inst.classes]
        assert all(after.w0 >= state.w0)
        for c in range(len(inst.classes)):
            assert after.w0[c] == pytest.approx(
                state.w0[c] + state.w1[c] * (1 - m[c]), abs=1e-15
            )

    def test_wide_push_back_matches_per_class_reference(self):
        rng = np.random.default_rng(3)
        solution = rng.random(600) < 0.1
        ps = np.where(solution, rng.uniform(0.9, 1.0, 600), rng.uniform(0.0, 0.1, 600))
        inst = ProblemInstance(tuple(
            IndexClass(p=p, count=int(c), is_solution=bool(s))
            for p, c, s in zip(ps.tolist(), rng.integers(1, 1000, 600), solution)
        ))
        state = apply_amplification(init_state(inst))
        after = apply_error_reduction(state, 1, inst)
        m = np.array([enumerate_majority(5, p) for p in ps.tolist()])
        assert np.max(np.abs(after.w1 - state.w1 * m)) <= 1e-15
        assert np.max(np.abs(after.w0 - (state.w0 + state.w1 * (1 - m)))) <= 1e-15

    @pytest.mark.parametrize("classes", [1, 2, 600])
    def test_one_majority_evaluation_per_round(self, monkeypatch, classes):
        inst = ProblemInstance(tuple(
            IndexClass(p=0.95 if c == 0 else 0.05, count=1, is_solution=c == 0)
            for c in range(classes)
        ))
        schedule_for_round(4)
        calls = count_majority_calls(monkeypatch)
        state = init_state(inst)
        for k in range(1, 5):
            state = apply_error_reduction(apply_amplification(state), k, inst)
        assert calls[0] == 4

    def test_unnormalized_state_rejected(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        with pytest.raises(InvariantError, match="not normalized"):
            apply_error_reduction(StructuredState(w1=[0.5, 0.1], w0=[0.1, 0.1]), 1, inst)

    def test_nan_state_rejected(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state = StructuredState._adopt(np.array([np.nan, 0.0]), np.array([0.0, 0.5]))
        with pytest.raises(InvariantError, match="not normalized"):
            apply_error_reduction(state, 1, inst)

    def test_state_of_another_class_count_rejected(self):
        # A one-class state used to broadcast against the two-class
        # instance into a state of total mass 2.
        inst = make_instance(4, 1, 0.9, 0.1)
        with pytest.raises(ValueError, match="state has 1 classes but the instance has 2"):
            apply_error_reduction(StructuredState(w1=[0.5], w0=[0.5]), 1, inst)

    def test_round_index_out_of_range_rejected(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        for k in (0, MAX_ROUNDS + 1):
            with pytest.raises(ValueError, match="round index"):
                apply_error_reduction(init_state(inst), k, inst)

    @given(strict_instances(), st.integers(1, 5))
    @settings(max_examples=50)
    def test_strict_split_factors_meet_budget(self, inst, k):
        r, eps = schedule_for_round(k), 2.0 ** -(k + 5)
        for c in inst.classes:
            a2 = majority_prob(r, c.p)
            if c.is_solution:
                assert a2 >= 1 - eps - 1e-15
            else:
                assert a2 <= eps + 1e-15

    @given(strict_instances(), st.integers(1, 4))
    @settings(max_examples=40)
    def test_norm_preserved(self, inst, k):
        state = init_state(inst)
        for j in range(1, k + 1):
            state = apply_amplification(state)
            state = apply_error_reduction(state, j, inst)
        assert abs(total_mass(state) - 1.0) <= 1e-12

    def test_beta_decay_and_alpha_growth_one_round(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        s0 = init_state(inst)
        alpha0, beta0, theta0, _ = state_stats(s0, inst)
        g1 = 3 - 4 * math.sin(theta0) ** 2
        s1 = apply_error_reduction(apply_amplification(s0), 1, inst)
        alpha1, beta1, _, _ = state_stats(s1, inst)
        assert alpha1 >= alpha0 * g1 * math.sqrt(1 - 2.0**-6) - 1e-12
        assert beta1 <= beta0 * g1 * 2.0 ** (-6 / 2) + 1e-12
