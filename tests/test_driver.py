import ctypes
import dataclasses
import hashlib
import itertools
import math
import pickle
import sys
import threading
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import besearch.driver
from besearch import (
    GATE_OR,
    MAX_ROUNDS,
    MAX_SHOTS,
    AndOrTree,
    analytic_cost,
    apply_amplification,
    apply_error_reduction,
    build_state,
    ceil_log9,
    evaluate_quantum_cost,
    exact_cost_quantile,
    exact_outcome,
    exact_success_curve,
    full_sweep_cost,
    init_state,
    make_instance,
    run_block,
    run_search,
    schedule_for_round,
    search_blocks,
    state_stats,
    verification_repetitions,
)
from besearch.driver import (
    DEFAULT_SHOTS, VERIFICATION_CONFIDENCE, CurvePoint, TraceRow, _cdf, _classes, _measure,
    _sample_block, _vote_cuts,
)
from besearch.error_reduction import majority_prob
from besearch.model import IndexClass, ProblemInstance, StructuredState, _stats_rows
from besearch.oracles import enumerate_majority
from conftest import found_within, load_script, strict_instances
from test_contracts import IntegerCases, ProbabilityCases, ShotCases

vote_stream_check = load_script("vote_stream_check")
cost_table = load_script("cost_table")


def oracle_reps(eps: float) -> int:
    """Independent scan with the exhaustive 2^r oracle."""
    r = 1
    while enumerate_majority(r, 0.1) > eps:
        r += 2
    return r


class TestCeilLog9:
    def test_exact_powers(self):
        assert [ceil_log9(9**j) for j in range(5)] == [0, 1, 2, 3, 4]

    def test_between_powers(self):
        assert ceil_log9(2) == 1
        assert ceil_log9(10) == 2
        assert ceil_log9(82) == 3

    def test_equals_the_multiplying_loop(self):
        def loop(n):
            m, power = 0, 1
            while power < n:
                power *= 9
                m += 1
            return m

        grid = [*range(1, 10**4 + 1)]
        grid += [n for k in range(601) for n in (9**k - 1, 9**k, 9**k + 1) if n >= 1]
        assert [ceil_log9(n) for n in grid] == [loop(n) for n in grid]

    def test_huge_n_is_fast(self):
        # Multiplying up from 9^0 took seconds at n = 10^100000.
        start = time.perf_counter()
        assert verification_repetitions(10**300000) == 43
        m = ceil_log9(10**300000)
        assert time.perf_counter() - start < 1.0
        assert 9 ** (m - 1) < 10**300000 <= 9**m

    def test_blocks_floor_at_one(self):
        assert search_blocks(1) == 1
        assert search_blocks(9) == 1
        assert search_blocks(10) == 2


class TestAnalyticCost:
    def test_first_values(self):
        # C(0)=1; C(1)=3+r1=8; C(2)=24+r2=31; C(3)=93+r3=100
        assert [analytic_cost(m) for m in range(4)] == [1, 8, 31, 100]

    def test_recursion_consistency(self):
        c = 1
        for k in range(1, 12):
            c = 3 * c + schedule_for_round(k)
            assert analytic_cost(k) == c

    def test_big_o_of_three_to_m(self):
        ratios = [analytic_cost(m) / 3**m for m in range(21)]
        assert max(ratios) <= 4.0  # measured max ~3.876


class TestRoundReps:
    """_schedule reads r_k from one table, each entry looked up once from
    schedule_for_round when first needed."""

    def test_table_holds_the_schedule(self, monkeypatch):
        calls, lookup = [], besearch.driver.schedule_for_round
        monkeypatch.setattr(besearch.driver, "schedule_for_round",
                            lambda k: calls.append(k) or lookup(k))
        monkeypatch.setattr(besearch.driver, "_round_reps", [0])
        schedule = besearch.driver._schedule
        assert [r for r, _ in schedule(5)] == [0, *map(lookup, range(1, 6))]
        assert [r for r, _ in schedule(3)] == [0, *map(lookup, range(1, 4))]
        assert calls == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError, match="rounds"):
            next(schedule(MAX_ROUNDS + 1))
        reps = [r for r, _ in schedule(MAX_ROUNDS)]
        assert reps == [0, *map(lookup, range(1, MAX_ROUNDS + 1))]
        assert calls == list(range(1, MAX_ROUNDS + 1))
        assert besearch.driver._round_reps == reps

    def test_threads_fill_the_table_in_order(self, monkeypatch):
        monkeypatch.setattr(besearch.driver, "_round_reps", [0])
        want = [0, *map(schedule_for_round, range(1, MAX_ROUNDS + 1))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: list(besearch.driver._schedule(MAX_ROUNDS)))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert besearch.driver._round_reps == want

    def test_table_stays_bounded(self):
        for rounds in (MAX_ROUNDS, 3, MAX_ROUNDS, 0):
            list(besearch.driver._schedule(rounds))
            assert len(besearch.driver._round_reps) == MAX_ROUNDS + 1


class TestBuildState:
    def test_zero_rounds_is_base_state(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state, cost = build_state(inst, 0)
        base = init_state(inst)
        assert np.array_equal(state.w1, base.w1)
        assert np.array_equal(state.w0, base.w0)
        assert cost == 1
        # It is the state round 1 starts from.
        one, _ = build_state(inst, 1)
        after = apply_error_reduction(apply_amplification(state), 1, inst)
        assert np.array_equal(after.w1, one.w1) and np.array_equal(after.w0, one.w0)

    def test_one_round_against_arithmetic_oracle(self):
        # alpha1 * (3 - 4 * 0.3) * sqrt(majority(5, 0.9)), beta scaled by
        # sqrt(majority(5, 0.1)); frozen values from that arithmetic.
        inst = make_instance(4, 1, 0.9, 0.1)
        state, cost = build_state(inst, 1)
        alpha, beta, _, _ = state_stats(state, inst)
        alpha_expected = math.sqrt(0.225) * 1.8 * math.sqrt(enumerate_majority(5, 0.9))
        beta2_expected = 0.075 * 1.8**2 * enumerate_majority(5, 0.1)
        assert alpha == pytest.approx(alpha_expected, abs=1e-12)
        assert beta**2 == pytest.approx(beta2_expected, abs=1e-12)
        assert alpha == pytest.approx(0.8501527862684448, abs=1e-12)
        assert beta**2 == pytest.approx(0.00208008, abs=1e-12)
        assert cost == 8

    def test_rejects_rounds_past_cap_up_front(self):
        # Each call would otherwise scan r_k for hundreds of rounds first.
        inst = make_instance(4, 1, 0.9, 0.1)
        huge = 9 ** (MAX_ROUNDS + 2)  # needs MAX_ROUNDS + 1 rounds
        start = time.perf_counter()
        for call in (
            lambda: build_state(inst, MAX_ROUNDS + 1),
            lambda: exact_success_curve(inst, MAX_ROUNDS + 1),
            lambda: analytic_cost(MAX_ROUNDS + 1),
            lambda: full_sweep_cost(huge),
            lambda: run_search(make_instance(huge, 1, 0.9, 0.1), 0),
        ):
            with pytest.raises(ValueError):
                call()
        assert time.perf_counter() - start < 1.0

    @given(strict_instances(), st.integers(0, 6))
    @settings(max_examples=40)
    def test_ledger_equals_analytic_cost(self, inst, rounds):
        expected = 1
        for k in range(1, rounds + 1):
            expected = 3 * expected + schedule_for_round(k)
        _, cost = build_state(inst, rounds)
        assert cost == expected

    @given(strict_instances(max_classes=600, max_count=1000), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_every_round_equals_the_public_operators(self, inst, rounds):
        self.check_chain(inst, rounds)

    def test_forty_rounds_at_nine_to_the_fortieth(self):
        for t in (0, 1, 5):
            self.check_chain(make_instance(9**40, t, 0.95, 0.05), 40)

    @pytest.mark.parametrize("seed", range(3))
    def test_float_chain_equals_the_public_operators(self, seed):
        # Under 8 classes the chain runs on tuples of floats; the public
        # operators run on arrays. Relaxed instances of 1 to 7 classes.
        rng = np.random.default_rng(seed)
        for k in range(1, 8):
            ps = rng.choice([0.0, 0.5, 1.0, *rng.random(4)], size=k)
            inst = ProblemInstance(tuple(
                IndexClass(float(p), int(c), bool(s))
                for p, c, s in zip(ps, rng.integers(1, 10**6, k), rng.random(k) < 0.5)
            ), strict=False)
            self.check_chain(inst, 40)

    @staticmethod
    def check_chain(inst, rounds):
        # The chain runs the rounds on the class masses (tuples of floats
        # under 8 classes, arrays from 8); each of its states is bit for
        # bit one public round on the state before it.
        rows = exact_success_curve(inst, rounds)
        prev = init_state(inst)
        for k in range(rounds + 1):
            state, cost = build_state(inst, k)
            if k:
                want = apply_error_reduction(apply_amplification(prev), k, inst)
                assert np.array_equal(state.w1, want.w1) and np.array_equal(state.w0, want.w0)
            assert rows[k] == CurvePoint(k, *state_stats(state, inst), cost)
            prev = state

    @pytest.fixture
    def kernels(self, monkeypatch):
        # Every call of the chain's two majority kernels: ("chain", top,
        # vectors, classes) for the padded term rows under 8 classes, ("majority",
        # r) for each array-path vector, and ("powers", low, top, p^j rows,
        # columns, (1-p)^j columns) for the array path's power tables.
        calls = []
        driver = besearch.driver
        chain, majority, powers = driver._chain_majorities, driver._majority, driver._class_powers

        def chain_spy(ps, top):
            out = chain(ps, top)
            calls.append(("chain", top, *out.shape))
            return out

        def powers_spy(ps, low, top):
            pw, qw = powers(ps, low, top)
            calls.append(("powers", low, top, *pw.shape, qw.shape[1]))
            return pw, qw

        monkeypatch.setattr(driver, "_chain_majorities", chain_spy)
        monkeypatch.setattr(driver, "_majority",
                            lambda r, pw, qw, low: calls.append(("majority", r))
                            or majority(r, pw, qw, low))
        monkeypatch.setattr(driver, "_class_powers", powers_spy)
        return calls

    def test_majority_once_per_distinct_repetition_count(self, kernels):
        # r_1 .. r_5 = 5, 7, 7, 9, 9: three distinct counts, three vectors,
        # from one _chain_majorities call under 8 classes and one _majority
        # call each from 8 classes on.
        narrow = make_instance(6561, 3, 0.9, 0.1)
        wide = _masked_instance(np.random.default_rng(8), 3, 9)
        build_state(narrow, 5)
        assert kernels == [("chain", 9, 3, 2)]
        kernels.clear()
        build_state(wide, 5)
        assert [c for c in kernels if c[0] == "majority"] == [("majority", r) for r in (5, 7, 9)]
        for m in (0, 1, 2, 12, 40):
            distinct = sorted({schedule_for_round(k) for k in range(1, m + 1)})
            kernels.clear()
            exact_success_curve(narrow, m)
            assert kernels == ([("chain", distinct[-1], len(distinct), 2)] if m else [])
            kernels.clear()
            exact_success_curve(wide, m)
            assert [c[1] for c in kernels if c[0] == "majority"] == distinct

    @staticmethod
    def expected_tables(inst, rounds):
        # One table per chain of at least one round, none for a 0-round
        # chain. Under 8 classes: the padded term rows up to r_rounds, one vector
        # per distinct r_k. From 8 classes on: the power tables, one row per
        # class, p^j for j = (r_1+1)/2 .. r_rounds, top - low + 1 columns,
        # and (1-p)^j for j = 0 .. (top-1)/2, (top + 1)/2 columns.
        if not rounds:
            return []
        low, top = (schedule_for_round(1) + 1) // 2, schedule_for_round(rounds)
        if inst.ps.size < besearch.driver._FLOAT_CLASSES:
            distinct = len({schedule_for_round(k) for k in range(1, rounds + 1)})
            return [("chain", top, distinct, inst.ps.size)]
        return [("powers", low, top, inst.ps.size, top - low + 1, (top + 1) // 2)]

    def test_power_tables_once_per_chain(self, kernels):
        for inst in (make_instance(6561, 3, 0.9, 0.1),
                     _masked_instance(np.random.default_rng(8), 3, 9)):
            for m in (0, 1, 2, 5, 40, MAX_ROUNDS):
                for run in (build_state, exact_success_curve):
                    kernels.clear()
                    run(inst, m)
                    tables = [c for c in kernels if c[0] != "majority"]
                    assert tables == self.expected_tables(inst, m)

    def test_power_tables_once_per_search(self, kernels):
        # Built when the chain first reaches round 1: a search that stops at
        # block 0 builds none, and neither does a one-block search (n <= 9),
        # which runs a 0-round chain; any other builds one.
        for inst, seed, blocks in (
            (make_instance(6561, 9, 0.9, 0.1), 1, 2),
            (make_instance(729, 0, 0.9, 0.1), 3, 3),
            (make_instance(16, 16, 1.0, 0.1), 7, 1),
            (make_instance(9, 1, 0.9, 0.1), 0, 1),
        ):
            kernels.clear()
            assert len(run_search(inst, seed).trace) == blocks
            rounds = search_blocks(inst.n) - 1 if blocks > 1 else 0
            assert kernels == self.expected_tables(inst, rounds)
        assert not kernels

    def test_float_chained_states_are_tuples_and_unshared(self):
        # check_chain shows each chained state equals the public operators'.
        inst = make_instance(9**12, 40, 0.93, 0.02)
        prev = None
        for _, *state, _ in besearch.driver._rounds(inst, 12):
            for masses in state:
                assert type(masses) is tuple and len(masses) == 2
                assert all(type(x) is float for x in masses)
                with pytest.raises(TypeError):
                    masses[0] = 0.0
            if prev is not None:
                assert all(new is not old for new in state for old in prev)
            prev = state

    def test_chained_states_are_read_only_and_unshared(self):
        # From 8 classes on the chain holds arrays.
        inst = _masked_instance(np.random.default_rng(8), 3, 9)
        assert inst.ps.size >= besearch.driver._FLOAT_CLASSES
        prev = None
        for _, *state, _ in besearch.driver._rounds(inst, 12):
            for masses in state:
                assert not masses.flags.writeable
                with pytest.raises(ValueError):
                    masses[0] = 0.0
            if prev is not None:
                for new in state:
                    assert not any(np.shares_memory(new, old) for old in prev)
            prev = state

    def test_interval_guarantee_spot(self):
        # t in [n/9^(m+1), n/9^m] makes the m-round state's alpha >= 0.04
        inst = make_instance(729, 1, 0.9, 0.1)
        for m in (2, 3):
            state, _ = build_state(inst, m)
            assert state_stats(state, inst)[0] >= 0.04


class TestVerificationRepetitions:
    def test_budget_formula_n_one(self):
        budget = 1.0 / (VERIFICATION_CONFIDENCE * 1000 * 1)
        assert verification_repetitions(1) == oracle_reps(budget) == 19

    def test_golden_nine_to_fourth(self):
        budget = 1.0 / (VERIFICATION_CONFIDENCE * 1000 * 5)
        assert verification_repetitions(9**4) == oracle_reps(budget) == 21

    def test_nondecreasing_in_n(self):
        grid = [1, 2, 9, 81, 729, 9**4, 9**6, 9**8, 9**10]
        vs = [verification_repetitions(n) for n in grid]
        assert vs == sorted(vs)

    def test_scales_with_shots(self):
        assert verification_repetitions(81, shots=10**6) >= verification_repetitions(81)

    def test_sizes_equal_the_recorded_digest(self):
        # Recorded when each size came from its own memoized scan from r = 1.
        sizes = [verification_repetitions(n, shots)
                 for n in [1] + [9**e for e in range(1, 41)]
                 for shots in (1, 7, 100, 1000, 10**6)]
        assert (min(sizes), max(sizes)) == (5, 39)
        assert hashlib.sha256(repr(sizes).encode()).hexdigest() == (
            "91867501a09fc6dcecedb51e1afadba597eb9eacc5fef59e9d7c8e9e56d460c4"
        )

    def test_rejects_shots_past_cap(self):
        # Every shot-taking path sizes its verification here first, so
        # none of them allocates a sample array for a rejected count.
        inst = make_instance(81, 1, 0.9, 0.1)
        tree = AndOrTree(2, (9, 9), GATE_OR)
        for shots in (MAX_SHOTS + 1, 10**20):
            for call in (
                lambda: verification_repetitions(81, shots),
                lambda: run_search(inst, 0, shots),
                lambda: run_block(inst, 2, 0, shots),
                lambda: full_sweep_cost(81, shots),
                lambda: evaluate_quantum_cost(tree, shots),
            ):
                with pytest.raises(ValueError, match="shots"):
                    call()


class TestSuccessCurve:
    def test_row_zero_is_exact_base(self):
        inst = make_instance(6561, 1, 0.9, 0.1)
        rows = exact_success_curve(inst, 4)
        assert rows[0].p_solution == pytest.approx(1 / 6561, abs=1e-12)
        assert rows[0].cost == 1

    def test_row_one_hand_arithmetic(self):
        inst = make_instance(6561, 1, 0.9, 0.1)
        rows = exact_success_curve(inst, 1)
        s2 = (0.9 + 6560 * 0.1) / 6561
        g1 = 3 - 4 * s2
        alpha1 = math.sqrt(0.9 / 6561) * g1 * math.sqrt(enumerate_majority(5, 0.9))
        assert rows[1].alpha == pytest.approx(alpha1, abs=1e-12)
        assert rows[1].cost == 8

    def test_rows_match_independent_builds(self):
        inst = make_instance(729, 2, 0.95, 0.05)
        rows = exact_success_curve(inst, 3)
        for m, row in enumerate(rows):
            state, cost = build_state(inst, m)
            assert (row.alpha, row.beta, row.theta, row.p_solution) == state_stats(state, inst)
            assert row.cost == cost == [1, 8, 31, 100][m]

    def test_golden_curve_6561(self):
        # frozen from the exact simulator (its own oracle; row 1 is
        # cross-checked by hand arithmetic above)
        inst = make_instance(6561, 1, 0.9, 0.1)
        rows = exact_success_curve(inst, 4)
        golden = [
            (0.01171213948210511, 0.3162036660460666, 1),
            (0.030315261986692436, 0.07604937596878876, 8),
            (0.0900100056192835, 0.011809744119928913, 31),
            (0.2666983069279593, 0.0018301442762249853, 100),
            (0.7238898133080177, 0.00014833732250160478, 309),
        ]
        for row, (alpha, beta, cost) in zip(rows, golden):
            assert row.alpha == pytest.approx(alpha, abs=1e-13)
            assert row.beta == pytest.approx(beta, abs=1e-13)
            assert row.cost == cost


class TestRows:
    """Curve and trace rows are built by driver._row, which fills a frozen
    row's fields without its __init__; they must be the constructor's rows."""

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert list(vars(got)) == [f.name for f in dataclasses.fields(want)]
        assert pickle.loads(pickle.dumps(got)) == want
        for field in dataclasses.fields(want):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, field.name, 0)

    def test_rows_equal_the_constructors(self):
        row = besearch.driver._row
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, cost, shots, verified = (int(x) for x in rng.integers(0, 10**6, 4))
            stats = tuple(rng.choice([0.0, -0.0, 1.0, 5e-324, float(rng.random())], 4).tolist())
            self.assert_same(row(CurvePoint, m, stats, cost), CurvePoint(m, *stats, cost))
            self.assert_same(row(TraceRow, m, stats, cost, shots, verified),
                             TraceRow(m, *stats, cost, shots, verified))
        assert row(CurvePoint, 1, (0.5,) * 4, 2) != row(TraceRow, 1, (0.5,) * 4, 2, 0, 0)

    def test_library_rows_equal_the_constructors(self):
        for inst in (make_instance(9**6, 3, 0.93, 0.04),
                     _masked_instance(np.random.default_rng(2), 2, 8)):
            for point in exact_success_curve(inst, 12):
                self.assert_same(point, CurvePoint(*dataclasses.astuple(point)))
            for seed in range(5):
                for trace_row in run_search(inst, seed).trace:
                    self.assert_same(trace_row, TraceRow(*dataclasses.astuple(trace_row)))


class TestRunSearch:
    def test_finds_planted_solution(self):
        inst = make_instance(81, 1, 0.9, 0.1)
        for seed in range(5):
            result = run_search(inst, seed)
            assert result.outcome == "found"
            assert inst.classes[result.found_class].is_solution

    def test_no_solutions_when_empty(self):
        inst = make_instance(81, 0, 0.9, 0.1)
        result = run_search(inst, 0)
        assert result.outcome == "no_solutions"
        assert result.found_class is None

    def test_all_solutions_found_immediately(self):
        inst = make_instance(16, 16, 1.0, 0.1)
        result = run_search(inst, 7)
        assert result.outcome == "found"
        assert result.trace[0].verified == 1
        assert result.total_cost == 1000 * 1 + verification_repetitions(16)

    def test_deterministic_given_seed(self):
        inst = make_instance(6561, 1, 0.9, 0.1)
        assert run_search(inst, 42) == run_search(inst, 42)
        assert run_search(inst, 42) != run_search(inst, 43)

    def test_ledger_matches_trace(self):
        inst = make_instance(729, 0, 0.9, 0.1)
        result = run_search(inst, 3)
        v = verification_repetitions(729)
        expected = sum(r.shots * r.cost + r.verified * v for r in result.trace)
        assert result.total_cost == expected
        assert [r.cost for r in result.trace] == [analytic_cost(m) for m in range(3)]

    def test_trace_matches_curve(self):
        # An exhausted search traces every block; a planted one (seed 1
        # hits in block m = 1 of four) stops at its hit.
        def shared(row):
            return (row.m, row.alpha, row.beta, row.theta, row.p_solution, row.cost)

        for inst, seed, n_rows in (
            (make_instance(729, 0, 0.9, 0.1), 3, 3),
            (make_instance(6561, 9, 0.9, 0.1), 1, 2),
        ):
            result = run_search(inst, seed)
            rows = exact_success_curve(inst, search_blocks(inst.n) - 1)
            assert len(result.trace) == n_rows
            assert [shared(rec) for rec in result.trace] == [shared(row) for row in rows[:n_rows]]

    def test_single_index_space(self):
        assert run_search(make_instance(1, 1, 0.95, 0.1), 3).outcome == "found"
        assert run_search(make_instance(1, 0, 0.9, 0.05), 3).outcome == "no_solutions"

    def test_accepts_seed_sequence(self):
        inst = make_instance(81, 1, 0.9, 0.1)
        ss = np.random.SeedSequence(5)
        assert run_search(inst, ss).outcome == "found"


class TestFullSweepCost:
    def test_equals_exhausted_search_ledger(self):
        for n in (9, 81, 729):
            inst = make_instance(n, 0, 0.9, 0.1)
            assert run_search(inst, 1).total_cost == full_sweep_cost(n)

    def test_golden_values(self):
        golden = {9: 20000, 81: 51000, 729: 103000, 6561: 224000}
        for n, cost in golden.items():
            assert full_sweep_cost(n) == cost

    def test_costs_equal_the_recorded_digest(self):
        # Every C(m) and sweep costs on both sides of powers of 9 up to the
        # largest n, recorded when both costs read a separate C(k) view.
        digest = hashlib.sha256()
        for m in range(MAX_ROUNDS + 1):
            digest.update(repr(analytic_cost(m)).encode() + b";")
        for e in range(0, 477, 7):
            for n in (9**e - 1, 9**e, 9**e + 1):
                for shots in (1, 7, 1000, 10**6):
                    if n >= 1:
                        digest.update(repr(full_sweep_cost(n, shots)).encode() + b";")
        assert digest.hexdigest() == (
            "75223b3c8e47c6bc585b1f5b39ba3e38b6f982efc6f71d6c8665d623ea1b1567"
        )


class TestRunBlock:
    def test_isolated_block_accepts_solution(self):
        inst = make_instance(6561, 1, 0.9, 0.1)
        hit, cost = run_block(inst, 3, seed=0)
        assert hit is not None and inst.classes[hit].is_solution
        assert cost >= 1000 * analytic_cost(3)

    def test_block_zero_cost_accounting(self):
        inst = make_instance(81, 0, 0.9, 0.1)
        hit, cost = run_block(inst, 0, seed=0)
        assert hit is None
        assert cost == 1000 * 1 + 1000 * verification_repetitions(81)


class TestExactOutcome:
    def test_planted_values(self):
        result = exact_outcome(make_instance(6561, 1, 0.9, 0.1), 1000)
        assert result.p_found == pytest.approx(0.997937, abs=1e-6)
        assert result.p_false_accept == pytest.approx(2.063e-3, abs=1e-6)
        assert result.expected_cost == pytest.approx(50355.7, abs=0.1)
        # Block m = 3 holds t = 1 in [n/9^4, n/9^3]: alone it almost always hits.
        assert result.block_found[3] == pytest.approx(0.99998, abs=1e-5)
        assert len(result.block_found) == len(result.block_false_accept) == 4

    @given(strict_instances(), st.sampled_from((1, 7, 1000)))
    @settings(max_examples=40)
    def test_outcomes_sum_to_one(self, inst, shots):
        result = exact_outcome(inst, shots)
        assert abs(result.p_found + result.p_false_accept + result.p_nothing - 1.0) <= 1e-12
        assert all(0.0 <= p <= 1.0 for p in result.block_found + result.block_false_accept)

    def test_empty_search_costs_a_full_sweep(self):
        # With no solution and p_bad = 0 no sample is accepted, so every
        # block verifies all its shots: exactly what full_sweep_cost charges.
        golden = {9: 20000, 81: 51000, 729: 103000, 6561: 224000, 9**8: 12858000}
        for n, cost in golden.items():
            result = exact_outcome(make_instance(n, 0, 0.9, 0.0))
            assert result.expected_cost == full_sweep_cost(n) == cost
            assert result.p_nothing == 1.0

    def test_acceptance_chances_are_computed_once(self, monkeypatch):
        calls = []
        real = besearch.driver.majority_prob
        monkeypatch.setattr(besearch.driver, "majority_prob",
                            lambda *args: calls.append(args) or real(*args))
        inst = make_instance(6561, 1, 0.9, 0.1)
        run_search(inst, 42)
        assert calls == []  # the sampled run never needs them
        exact_outcome(inst)
        assert len(calls) == 1

    def test_grid_equals_the_recorded_digest(self):
        # Every field of every outcome over strict and relaxed two-class
        # instances from n = 1 to 9^322 at 1 to 10^6 shots, and an 8-class
        # relaxed instance on the array path. Recorded when exact_outcome
        # formed each block's law in its own loop.
        outs = []
        for n in (1, 9, 6561, 9**8, 9**40, 9**322):
            for t in (t for t in (0, 1, 9) if t <= n):
                for p_good, p_bad, strict in ((0.9, 0.1, True), (1.0, 0.0, True),
                                              (0.6, 0.4, False)):
                    inst = make_instance(n, t, p_good, p_bad, strict=strict)
                    outs += [exact_outcome(inst, shots) for shots in (1, 7, 1000, 10**6)]
        wide = ProblemInstance(tuple(IndexClass(0.05 + 0.12 * c, 10**c, c % 3 == 0)
                                     for c in range(8)), strict=False)
        outs += [exact_outcome(wide, shots) for shots in (1, 7, 1000, 10**6)]
        assert len(outs) == 208
        assert hashlib.sha256(repr(tuple(outs)).encode()).hexdigest() == (
            "cd671a00d633464d6eaedebfd20c8447f429ab0f033e218e4ac31893a868d7f1"
        )


class _Branches:
    """Depth-first replay of a run's random choices. Each choice point takes
    the option the current path names (option 0 where the path is new) and
    multiplies the branch's chance by that option's chance; a branch whose
    chance reaches 0 is abandoned. ``advance`` moves to the next path."""

    class Abandoned(Exception):
        pass

    def __init__(self):
        self.path: list[list[int]] = []  # [option, options] per choice point
        self.mixed = False  # a block rejected one p value and then accepted another

    def start(self) -> None:
        self.depth, self.chance = 0, 1.0

    def choose(self, chances: list[float]) -> int:
        if self.depth == len(self.path):
            self.path.append([0, len(chances)])
        option = self.path[self.depth][0]
        self.depth += 1
        self.chance *= chances[option]
        if self.chance == 0.0:
            raise self.Abandoned
        return option

    def advance(self) -> bool:
        del self.path[self.depth:]
        while self.path and self.path[-1][0] + 1 == self.path[-1][1]:
            self.path.pop()
        if self.path:
            self.path[-1][0] += 1
        return bool(self.path)

    def measure(self, rng, weights, shots: int) -> np.ndarray:
        """``driver._measure``: one choice over the classes per shot."""
        w = [float(x) for x in weights]
        total = math.fsum(w)
        return np.array([self.choose([x / total for x in w]) for _ in range(shots)])

    def first_accept(self, rng, cuts, sampled) -> int:
        """``driver._first_accept``: one choice per sample, in order, between
        its acceptance and its rejection, until one is accepted."""
        rejected = set()
        for position, p in enumerate(cuts.ps[sampled].tolist()):
            accept = majority_prob(cuts.v, p)
            if self.choose([accept, 1.0 - accept]) == 0:
                self.mixed |= bool(rejected - {p})
                return position
            rejected.add(p)
        return len(sampled)


_REPLAYS = [
    *(pytest.param(n, t, None, shots, id=f"n={n},t={t},shots={shots}")
      for n in (9, 81) for t in (0, 1, 3) for shots in (1, 2)),
    *(pytest.param(81, None, ((0.95, 2, True), (0.4, 7, False), (0.05, 72, False)), shots,
                   id=f"three relaxed classes,shots={shots}") for shots in (1, 2)),
    # The array path of the sampler; two shots would run 30 times longer.
    pytest.param(81, None, tuple((0.05 + 0.1 * c, 9 + 9 * (c == 0), c > 4) for c in range(8)),
                 1, id="eight relaxed classes,shots=1"),
]


class TestExactOutcomeReplay:
    """exact_outcome and the cost quantile against a second route: every
    branch of run_search's own control flow, replayed with its
    measurements and votes as choice points and weighted by its chance."""

    @staticmethod
    def instance(n, t, classes):
        if classes is None:
            return make_instance(n, t, 0.9, 0.1)
        inst = ProblemInstance(tuple(IndexClass(*c) for c in classes), strict=False)
        assert inst.n == n
        return inst

    @staticmethod
    def replay(inst, shots, monkeypatch):
        branches = _Branches()
        # A table-less cut table sends every block through _measure and _first_accept.
        cuts = besearch.driver._vote_cuts
        monkeypatch.setattr(besearch.driver, "_vote_cuts",
                            lambda ps, v: cuts(ps, v)._replace(cut=None))
        monkeypatch.setattr(besearch.driver, "_measure", branches.measure)
        monkeypatch.setattr(besearch.driver, "_first_accept", branches.first_accept)
        monkeypatch.setattr(besearch.driver, "_rng", lambda seed: branches)
        found = false = nothing = cost = 0.0
        runs = []  # (total_cost, found a solution, chance) per branch
        while True:
            branches.start()
            try:
                result = run_search(inst, 0, shots)
            except _Branches.Abandoned:
                pass
            else:
                chance = branches.chance
                solution = False
                if result.outcome == "no_solutions":
                    nothing += chance
                elif inst.classes[result.found_class].is_solution:
                    found += chance
                    solution = True
                else:
                    false += chance
                cost += chance * result.total_cost
                runs.append((result.total_cost, solution, chance))
            if not branches.advance():
                return found, false, nothing, cost, runs, branches.mixed

    @pytest.mark.parametrize("n, t, classes, shots", _REPLAYS)
    def test_branches_add_up_to_the_exact_outcome(self, n, t, classes, shots, monkeypatch):
        inst = self.instance(n, t, classes)
        found, false, nothing, cost, runs, mixed = self.replay(inst, shots, monkeypatch)
        want = exact_outcome(inst, shots)
        assert abs(found - want.p_found) <= 1e-14
        assert abs(false - want.p_false_accept) <= 1e-14
        assert abs(nothing - want.p_nothing) <= 1e-14
        assert abs(cost - want.expected_cost) <= 1e-14 * want.expected_cost
        assert len(runs) > 1
        if classes is not None and len(classes) == 3 and shots == 2:
            assert mixed

    @pytest.mark.parametrize("n, t, classes, shots", _REPLAYS)
    def test_branch_costs_give_the_cost_quantile(self, n, t, classes, shots, monkeypatch):
        inst = self.instance(n, t, classes)
        *_, runs, _ = self.replay(inst, shots, monkeypatch)
        within = 0.0  # P(found and total_cost <= x) over the branches
        confidences = [0.05, 0.5, 0.9, 0.99]
        for x, group in itertools.groupby(sorted(runs), key=lambda run: run[0]):
            within += sum(chance for _, solution, chance in group if solution)
            chance = found_within(inst, x, shots)
            assert abs(within - chance) <= 1e-14
            if 0.0 < chance < 1.0:
                confidences.append(chance)  # every step of F, each block's end and P(found) too
        p_found = exact_outcome(inst, shots).p_found
        for confidence in confidences:
            x = exact_cost_quantile(inst, confidence, shots)
            if p_found < confidence:
                assert x is None
            else:
                assert found_within(inst, x, shots) >= confidence > found_within(inst, x - 1, shots)


class TestFalseAcceptBound:
    """P(false accept) <= 1/100 with no solution, exactly, from exact_outcome.

    With one class the chance depends on n only through ceil_log9(n), so
    the powers of 9 stand for every n. The exponents cover the small n,
    the neighbourhood of the largest value known (9.866e-3 at e = 176),
    and spot values up to 322, the last power of 9 within float masses.
    """

    EXPONENTS = (*range(1, 41), *range(170, 183), 60, 120, 250, 322)

    def test_within_the_verification_budget(self):
        chance = {
            e: exact_outcome(make_instance(9**e, 0, 0.9, 0.1)).p_false_accept
            for e in self.EXPONENTS
        }
        over = {e: p for e, p in chance.items() if p > 1 / VERIFICATION_CONFIDENCE}
        assert not over
        # The set still holds the worst case, so the bound is tested where it is tight.
        assert max(chance.values()) > 9.8e-3


class TestFoundBound:
    """P(found) >= 0.99 with one solution at the promise's corner
    (p_good 9/10, p_bad 1/10), exactly, from exact_outcome, over the same
    powers of 9 as TestFalseAcceptBound. The smallest value known over
    e = 1..322 is 0.990270 at e = 176, beside the worst false-accept
    chance; over e <= 40 it is 0.99182 at e = 20."""

    def test_within_the_verification_budget(self):
        found = {
            e: exact_outcome(make_instance(9**e, 1, 0.9, 0.1)).p_found
            for e in TestFalseAcceptBound.EXPONENTS
        }
        under = {e: p for e, p in found.items() if p < 0.99}
        assert not under
        # The set still holds the worst case, so the bound is tested where it is tight.
        assert min(found.values()) < 0.991


class TestCostBound:
    """The abstract's cost claim, exactly, from exact_outcome: with t
    solution indices at p_good 9/10 and the rest at p_bad 1/10, E[cost] <=
    (1 + 1e-6) (shots + v(n)) sqrt(n / t), and the worst case, a sweep of
    every block without a hit, costs at most 6.7 shots sqrt(n). Over the
    grid below the largest ratios are 1 + 7.3e-8 (at n = t = 9) and 6.667
    (at n = 9)."""

    EXPONENTS = (*range(1, 41), 60, 120, 176, 250, 322)

    @staticmethod
    def solution_counts(n: int) -> list[int]:
        return sorted({t for t in (1, 2, 3, 5, 9, 27, 81, 243, 10**3, 10**4, 10**6,
                                   n // 81, n // 9, n // 3, n // 2, n) if 1 <= t <= n})

    def test_expected_cost_within_the_bound(self):
        ratio = {}
        for e in self.EXPONENTS:
            n = 9**e
            bound = DEFAULT_SHOTS + verification_repetitions(n)
            for t in self.solution_counts(n):
                cost = exact_outcome(make_instance(n, t, 0.9, 0.1)).expected_cost
                ratio[e, t] = cost / (bound * math.sqrt(n / t))
        assert not {key: r for key, r in ratio.items() if r > 1 + 1e-6}
        # The grid still holds the tight case: one block and about one verification.
        assert max(ratio.values()) > 1.0

    def test_cost_quantile_within_the_bound(self):
        """The abstract's "with high probability": at 1000 shots the cost
        within which a solution is found with chance 0.9 is at most 1.5
        shots sqrt(n / t). The largest ratio over the grid is 1.4811 (n =
        9^7, t = 10^4). The bound is for 1000 shots only: at n = 6561, t =
        1 the ratio is 2.40 at 100 shots."""
        ratio = {}
        for e in self.EXPONENTS:
            n = 9**e
            for t in self.solution_counts(n):
                x = exact_cost_quantile(make_instance(n, t, 0.9, 0.1), 0.9, 1000)
                ratio[e, t] = x / (1000 * math.sqrt(n / t))
        assert not {key: r for key, r in ratio.items() if r > 1.5}
        # The grid still holds the tight case.
        assert max(ratio.values()) > 1.47
        assert exact_cost_quantile(make_instance(6561, 0, 0.9, 0.1), 0.9, 1000) is None
        relaxed = make_instance(6561, 1, 0.6, 0.4, strict=False)
        assert exact_outcome(relaxed).p_found < 0.9
        assert exact_cost_quantile(relaxed, 0.9, 1000) is None

    def test_full_sweep_within_the_bound(self):
        ratio = {e: full_sweep_cost(9**e) / (DEFAULT_SHOTS * math.sqrt(9**e))
                 for e in self.EXPONENTS}
        assert not {e: r for e, r in ratio.items() if r > 6.7}
        assert max(ratio.values()) > 6.6

    def test_script_table_ends_the_baseline_at_its_cap(self):
        # scripts/cost_table.py: 9^320 <= MAX_BASELINE_N < 9^321.
        (_, cost, simple), (_, _, last), (_, _, past) = cost_table.rows((1, 320, 321))
        assert cost == exact_outcome(make_instance(9, 1, 0.9, 0.1)).expected_cost / 3
        assert simple == 9.0  # 3 Grover iterations of 9 runs, over sqrt(9)
        assert last is not None and past is None


@st.composite
def _strict_splits(draw):
    """A strict instance of n in {81, 6561, 9^5} indices, split into 1-3
    solution classes and 1-3 non-solution classes."""
    n = draw(st.sampled_from((81, 6561, 9**5)))
    good, bad = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=good + bad - 1,
                               max_size=good + bad - 1)))
    counts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
    return ProblemInstance(tuple(
        IndexClass(p=draw(st.floats(0.9, 1.0) if j < good else st.floats(0.0, 0.1)),
                   count=count, is_solution=j < good)
        for j, count in enumerate(counts)
    ))


class TestCornerIsWorst:
    """A strict instance finds a solution at least as often as the promise's
    corner with its n and t (every solution at p_good 9/10, every other
    index at p_bad 1/10), exactly, from exact_outcome; 1e-12 allows for
    the rounding of a different class split."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(inst=_strict_splits())
    def test_no_worse_than_the_corner(self, inst):
        corner = make_instance(inst.n, inst.t, 0.9, 0.1)
        assert exact_outcome(inst).p_found >= exact_outcome(corner).p_found - 1e-12


def _weights(kind: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    if kind == "one class":
        return np.array([0.25])
    if kind == "zero-weight classes":
        return np.array([0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0])
    w = rng.random(600)
    w[rng.random(600) < 0.3] = 0.0
    return w


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestSampler:
    """The block sampler draws exactly what Generator.choice(p=...) draws."""

    @pytest.mark.parametrize("kind", ("one class", "zero-weight classes", "600 classes"))
    @pytest.mark.parametrize("shots", (1, 7, 1000))
    def test_indices_equal_generator_choice(self, kind, shots):
        weights = _weights(kind)
        for seed in range(3):
            ours, twin = _twins(seed)
            got = _measure(ours, weights, shots)
            want = twin.choice(len(weights), size=shots, p=weights / weights.sum())
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("kind", ("one class", "zero-weight classes", "600 classes"))
    def test_block_equals_choice_then_binomial(self, kind):
        # The votes after the first acceptance are not drawn, so after an
        # accepting block the generator stands somewhere past that vote;
        # after a block that accepts nothing it stands where the twin does.
        weights = _weights(kind)
        k = len(weights)
        inst = ProblemInstance(
            tuple(IndexClass(0.05 + 0.9 * (c % 5 == 4), 3, c % 5 == 4) for c in range(k))
        )
        state = StructuredState(w1=weights / 3, w0=2 * weights / 3)
        v = 15
        for seed in range(5):
            ours, twin = _twins(seed)
            got = _sample_block(ours, state.w1 + state.w0, _vote_cuts(inst.ps, v), 200)
            w = np.maximum(state.w1 + state.w0, 0.0)
            sampled = twin.choice(k, size=200, p=w / w.sum())
            after_choice = twin.bit_generator.state
            hits = np.flatnonzero(twin.binomial(v, inst.ps[sampled]) * 2 > v)
            want = (int(sampled[hits[0]]), int(hits[0]) + 1) if hits.size else (None, 200)
            assert got == want
            if not hits.size:
                assert ours.bit_generator.state == twin.bit_generator.state
                continue
            states = []
            for e in range(int(hits[0]) + 1, 201):
                twin.bit_generator.state = after_choice
                twin.binomial(v, inst.ps[sampled[:e]])
                states.append(twin.bit_generator.state)
            assert ours.bit_generator.state in states

    @pytest.mark.parametrize("shots", (1, 2, 5, 60))
    def test_likely_samples_that_fail_their_votes(self, shots):
        # p just above 1/2 with one vote: about half the likely samples are
        # rejected, at times the last one too, so cuts are passed over.
        inst = ProblemInstance((IndexClass(0.52, 5, True), IndexClass(0.3, 2, False),
                                IndexClass(0.55, 3, True)), strict=False)
        state = init_state(inst)
        w = state.w1 + state.w0
        for seed in range(40):
            ours, twin = _twins(seed)
            got = _sample_block(ours, w, _vote_cuts(inst.ps, 1), shots)
            sampled = twin.choice(3, size=shots, p=w / w.sum())
            hits = np.flatnonzero(twin.binomial(1, inst.ps[sampled]) > 0)
            if hits.size:
                assert got == (int(sampled[hits[0]]), int(hits[0]) + 1)
            else:
                assert got == (None, shots)
                assert ours.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("v", (1, 3, 21, 101))
    def test_scalar_draws_over_runs_equal_the_array_draw(self, v):
        # What the sampler relies on: a one-p piece drawn with a scalar p
        # gives the votes, dtype and generator state of the array-p draw.
        for seed in range(20):
            runs_rng = np.random.default_rng(seed)
            lengths = runs_rng.integers(1, 12, size=8)
            values = runs_rng.choice([0.0, 0.5, 1.0, *runs_rng.random(3)], size=8)
            ours, twin = _twins(seed)
            got = np.concatenate([
                ours.binomial(v, p, size=int(n)) for p, n in zip(values, lengths)
            ])
            want = twin.binomial(v, np.repeat(values, lengths))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bad", (np.nan, np.inf, 0.0))
    def test_rejects_unusable_weights(self, bad):
        inst = make_instance(81, 1, 0.9, 0.1)
        w1 = np.array([bad, 0.0])
        w0 = np.array([0.0, bad])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="measurement weights"):
            _sample_block(rng, w1 + w0, _vote_cuts(inst.ps, 15), 100)
        assert rng.bit_generator.state == before


class _CountingGenerator:
    """Pass-through generator that counts the sampler's uniform and binomial calls."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.random_calls = self.binomial_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def binomial(self, *args, **kwargs):
        self.binomial_calls += 1
        return self.rng.binomial(*args, **kwargs)


_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _Bitgen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and the four draw functions."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _NEXT_U64),
                ("next_uint32", _NEXT_U32), ("next_double", _NEXT_DOUBLE),
                ("next_raw", _NEXT_U64)]


_capsule = ctypes.pythonapi.PyCapsule_New
_capsule.restype = ctypes.py_object
_capsule.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)


class _Replay:
    """A bit generator for ``np.random.Generator`` that hands out planted
    uniforms: every double numpy draws, in ``random`` and in the inversion
    binomial alike, is the next planted one, then those of a seeded tail.
    ``drawn`` counts them and is its state; ``advance`` moves it as
    PCG64's does. No integer may be drawn (``integers`` counts them)."""

    def __init__(self, planted):
        self.doubles = [*map(float, planted), *np.random.default_rng(0).random(64).tolist()]
        self.drawn = self.integers = 0
        self.lock = threading.Lock()

        def integer(_):
            self.integers += 1
            return 0

        def double(_):
            self.drawn += 1
            return self.doubles[self.drawn - 1]

        self._draws = (_NEXT_U64(integer), _NEXT_U32(integer), _NEXT_DOUBLE(double))
        self._bitgen = _Bitgen(None, *self._draws, self._draws[0])
        self._name = b"BitGenerator"
        self.capsule = _capsule(ctypes.addressof(self._bitgen), self._name, None)

    def advance(self, delta: int) -> None:
        self.drawn += delta


class TestFloatPath:
    """Instances under 8 classes run the chain and the sampler on floats."""

    def test_numpy_adds_under_eight_floats_in_order(self):
        # What the threshold relies on. (sum() is not the reference: from
        # Python 3.12 it compensates float sums.)
        rng = np.random.default_rng(26)
        for size in range(1, 8):
            for _ in range(3000):
                a = rng.random(size) * 10.0 ** rng.integers(-12, 12, size)
                assert np.add.reduce(a) == reduce(add, a.tolist())

    @pytest.mark.parametrize("kind", ("one class", "zero-weight classes"))
    @pytest.mark.parametrize("shots", (1, 7, 1000))
    def test_float_weights_draw_what_the_array_draws(self, kind, shots):
        weights = _weights(kind)
        for seed in range(3):
            ours, twin = _twins(seed)
            got = _measure(ours, tuple(weights.tolist()), shots)
            want = twin.choice(len(weights), size=shots, p=weights / weights.sum())
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == twin.bit_generator.state

    def test_float_cdf_equals_the_array_cdf_at_its_steps(self):
        # Uniforms on the array cdf's entries and their neighbours fall on
        # the same side of every step of the float cdf: the two are equal.
        rng = np.random.default_rng(5)
        for size in range(1, 8):
            for _ in range(300):
                w = rng.random(size) * 10.0 ** rng.integers(-3, 3, size)
                cdf = np.add.accumulate(w / np.add.reduce(w))
                cdf /= cdf[-1]
                u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
                uniforms = SimpleNamespace(random=lambda shots, u=u[u < 1.0]: u)
                got = _measure(uniforms, tuple(w.tolist()), 0)
                assert np.array_equal(got, _measure(uniforms, w, 0))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, 0.0))
    def test_float_weights_are_checked(self, bad):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="measurement weights"):
            _measure(rng, (bad, 0.0), 100)
        assert rng.bit_generator.state == before

    def test_run_search_samples_float_weights(self, monkeypatch):
        # Under 8 classes the search's blocks reach the cut step with a cdf
        # of Python floats; from 8 they are measured on arrays.
        seen = []
        cut_block, measure = besearch.driver._cut_block, besearch.driver._measure
        monkeypatch.setattr(besearch.driver, "_cut_block", lambda rng, cdf, cuts, shots: (
            seen.append((type(cdf), type(cdf[0]))) or cut_block(rng, cdf, cuts, shots)))
        monkeypatch.setattr(besearch.driver, "_measure",
                            lambda rng, w, shots: seen.append(type(w)) or measure(rng, w, shots))
        run_search(make_instance(6561, 0, 0.9, 0.1), 1, 10)
        assert set(seen) == {(list, float)}
        seen.clear()
        run_search(_masked_instance(np.random.default_rng(1), 2, 6), 1, 10)
        assert set(seen) == {np.ndarray}


class TestPieceDraws:
    """With a cut table, a block's classes and votes come from uniforms
    alone: one ``random`` call for both when no class has p = 0, and one
    for the measurement and one for the votes when one has. Without a
    table, the votes are one array-p binomial call."""

    @pytest.mark.parametrize("block, calls", [
        pytest.param(block, calls, id=block) for block, calls in (
            ("one class", 1), ("7 classes", 1), ("relaxed p_good 0.15", 1), ("planted", 1),
            ("planted, p_bad 0", 2),
        )
    ])
    def test_block_uniform_calls(self, block, calls):
        if block == "one class":
            inst = make_instance(6561, 0, 0.9, 0.1)
            state, _ = build_state(inst, 2)
        elif block == "7 classes":  # the widest instance with a cut table
            ps = np.random.default_rng(3).random(7) * 0.1
            inst = ProblemInstance(tuple(IndexClass(float(p), 5, False) for p in ps), strict=False)
            state = StructuredState(w1=np.full(7, 1 / 14), w0=np.full(7, 1 / 14))
        elif block == "relaxed p_good 0.15":
            inst = make_instance(6561, 50, 0.15, 0.05, strict=False)
            state, _ = build_state(inst, 2)
        else:
            inst = make_instance(6561, 9, 0.9, 0.1 if block == "planted" else 0.0)
            state, _ = build_state(inst, 2)
        v = verification_repetitions(inst.n)
        cuts = _vote_cuts(inst.ps, v)
        accepted = 0
        for seed in range(30):
            rng = _CountingGenerator(seed)
            hit, _ = _sample_block(rng, state.w1 + state.w0, cuts, 1000)
            assert (rng.random_calls, rng.binomial_calls) == (calls, 0)
            accepted += hit is not None
        # The planted blocks accept most of the time, so the accepting exit is taken.
        assert accepted >= 20 if block.startswith("planted") else accepted == 0

    @pytest.mark.parametrize("classes", (8, 40, 600))
    def test_wide_block_is_one_binomial_call(self, classes):
        # From 8 classes on there is no cut table: a block's votes are one
        # array-p binomial call after the measurement's uniforms.
        ps = np.random.default_rng(4).random(classes)
        inst = ProblemInstance(tuple(IndexClass(float(p), 5, bool(p > 0.5)) for p in ps),
                               strict=False)
        cuts = _vote_cuts(inst.ps, 15)
        assert cuts.cut is None
        weights = np.full(classes, 1 / classes)
        for seed in range(10):
            rng = _CountingGenerator(seed)
            _sample_block(rng, weights, cuts, 1000)
            assert (rng.random_calls, rng.binomial_calls) == (1, 1)

    def test_relaxed_outputs_equal_the_recorded_digest(self):
        # Recorded when every block drew all of its votes in one array-p
        # binomial call; relaxed instances of 2-300 classes, some with no
        # p above 1/2, others with p in {0, 1/2, 1}.
        rng = np.random.default_rng(20261018)
        digest = hashlib.sha256()
        for i in range(24):
            k = int(rng.integers(2, 301)) if i else 300
            ps = rng.choice([0.0, 0.5, 1.0, *rng.random(4), *(0.1 * rng.random(4))], size=k)
            if i % 3 == 0:  # no sample is accepted with probability above 1/2
                ps = np.minimum(ps, 0.5)
            counts = rng.integers(1, 30, size=k)
            inst = ProblemInstance(tuple(
                IndexClass(float(p), int(c), bool(p > 0.5)) for p, c in zip(ps, counts)
            ), strict=False)
            for shots in (1, 7, 1000):
                result = run_search(inst, i, shots)
                digest.update(repr((result.outcome, result.found_class, result.total_cost,
                                    [row.verified for row in result.trace])).encode())
                for m in range(3):
                    digest.update(repr(run_block(inst, m, i, shots)).encode())
        assert digest.hexdigest() == (
            "91ab0f9c8198e4b43b733a2b7445ed35751d0569a00692f46749bdfdb5f48d8d"
        )


class TestOneDraw:
    """Under 8 classes a block's classes come from compares on the float
    cdf and, when no class has p = 0, its votes from the same ``random``
    call. What that relies on in numpy, and the block itself against
    ``Generator.choice`` followed by ``Generator.binomial``."""

    @pytest.mark.parametrize("shots", (1, 2, 5, 50, 1000))
    def test_one_call_is_two_calls(self, shots):
        for seed in range(5):
            ours, twin = _twins(seed)
            got = ours.random(2 * shots)
            want = np.concatenate([twin.random(shots), twin.random(shots)])
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == twin.bit_generator.state

    def test_compare_count_equals_searchsorted(self):
        # Uniforms on every cdf entry and on its neighbours, zero-weight
        # classes included.
        rng = np.random.default_rng(28)
        for size in range(1, 8):
            for _ in range(300):
                w = rng.random(size) * 10.0 ** rng.integers(-3, 3, size)
                w[rng.random(size) < 0.3] = 0.0
                w[rng.integers(size)] += 1.0
                cdf = _cdf(w)
                steps = np.array(cdf)
                assert isinstance(cdf, list) and cdf[-1] == 1.0
                u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
                u = u[(u >= 0.0) & (u < 1.0)]
                got = _classes(cdf, u)
                want = steps.searchsorted(u, side="right")
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_undecided_votes_are_left_to_the_binomial_path(self):
        # One-sample blocks of two classes, p <= 1/2 and p > 1/2, with
        # planted uniforms: a vote within the band of its cut, or above the
        # restart point, leaves the block undecided, and _cut_block gives
        # the count of uniforms it drew (2); the others decide it.
        cuts = _vote_cuts(np.array([0.1, 0.9]), 21)
        band, top = besearch.driver._BAND, cuts.top
        for c, measured in ((0, 0.25), (1, 0.75)):
            cut, sign = cuts.cut[c], cuts.sign[c]
            planted = {
                cut - band / 2: 2, cut + band / 2: 2, float(np.nextafter(top, 2.0)): 2,
                cut + 2 * band * sign: (c, 1), cut - 2 * band * sign: (None, 1),
            }
            for vote, want in planted.items():
                uniforms = SimpleNamespace(random=lambda size, u=[measured, vote]: np.array(u))
                got = besearch.driver._cut_block(uniforms, _cdf((0.5, 0.5)), cuts, 1)
                assert got == want, (c, vote)

    def test_blocks_equal_choice_then_binomial(self):
        # Seeded random blocks of 1-7 classes, tuple and array weights, one
        # weight at 1e-300 in some; after a block that accepts nothing the
        # generator stands where the twin's does.
        rng = np.random.default_rng(2028)
        values = (0.0, 1e-3, 0.05, 0.48, 0.5, 0.52, 0.95, 1.0)
        tally = {"table": 0, "accepted": 0, "rejected": 0}
        for block in range(4000):
            k = int(rng.integers(1, 8))
            ps = np.array([float(rng.choice(values)) if rng.random() < 0.8 else rng.random()
                           for _ in range(k)])
            v = int(rng.choice((1, 3, 5, 21, 23, 29, 61, 101)))
            shots = int(rng.choice((1, 2, 5, 50, 1000)))
            w = rng.random(k)
            if k > 1 and block % 5 == 0:
                w[rng.integers(k)] = 1e-300
            inst = ProblemInstance(tuple(IndexClass(float(p), 1, bool(p > 0.5)) for p in ps),
                                   strict=False)
            cuts = _vote_cuts(inst.ps, v)
            ours, twin = _twins(block)
            got = _sample_block(ours, tuple(w.tolist()) if block % 2 else w, cuts, shots)
            sampled = twin.choice(k, size=shots, p=w / w.sum())
            hits = np.flatnonzero(twin.binomial(v, inst.ps[sampled]) > v // 2)
            want = (int(sampled[hits[0]]), int(hits[0]) + 1) if hits.size else (None, shots)
            assert got == want, block
            if not hits.size:
                assert ours.bit_generator.state == twin.bit_generator.state, block
            tally["table"] += cuts.cut is not None
            tally["accepted" if hits.size else "rejected"] += 1
        assert min(tally.values()) > 1000, tally


    def test_planted_edges_equal_choice_then_binomial(self, monkeypatch):
        # Uniforms planted at the edges of the all-reject shortcut: the
        # measurement's extremes on the cdf step and one float below it,
        # the votes' extremes on a class's safe-reject bounds and one float
        # past them, with a zero-weight class whose cdf entry repeats the
        # step. A block skips the class lookup exactly when every planted
        # extreme lies inside; either way it gives what choice + binomial
        # give on the same uniforms, and after a block that accepts nothing
        # both have drawn alike.
        lookups = []
        classes = besearch.driver._classes
        monkeypatch.setattr(besearch.driver, "_classes",
                            lambda cdf, u: lookups.append(u.size) or classes(cdf, u))
        below = lambda x: float(np.nextafter(x, 0.0))  # noqa: E731
        above = lambda x: float(np.nextafter(x, 1.0))  # noqa: E731
        order = np.random.default_rng(29).permutation(50)
        checked = {True: 0, False: 0}
        for ps, weights in (((0.1, 0.9), (0.3, 0.7)), ((0.1, 0.5, 0.9), (0.3, 0.0, 0.7))):
            inst = ProblemInstance(tuple(IndexClass(p, 1, p > 0.5) for p in ps), strict=False)
            cuts = _vote_cuts(inst.ps, 21)
            step, top = _cdf(weights)[0], len(ps) - 1
            lo, hi = cuts.lo.tolist(), cuts.hi.tolist()
            # Per class: the far measurement extreme, then (uniform, inside)
            # edges of the near measurement extreme, the smallest and the
            # largest vote.
            edges = {
                0: (0.01, [(below(step), True), (step, False)], [(0.0, True)],
                    [(hi[0], True), (above(hi[0]), False)]),
                top: (0.99, [(step, True), (below(step), False)],
                      [(above(lo[top]), True), (lo[top], False)],
                      [(hi[top], True), (above(hi[top]), False)]),
            }
            cases = []
            for far, near, low, high in edges.values():
                for m, m_in in near:
                    cases += [([m], [u], m_in and u_in) for u, u_in in low + high]
                    cases += [(np.linspace(min(m, far), max(m, far), 50)[order],
                               np.linspace(u, w, 50)[order], m_in and u_in and w_in)
                              for u, u_in in low for w, w_in in high]
            for measured, votes, inside in cases:
                shots = len(measured)
                ours = np.random.Generator(_Replay([*measured, *votes]))
                twin = np.random.Generator(_Replay([*measured, *votes]))
                lookups.clear()
                got = _sample_block(ours, weights, cuts, shots)
                sampled = twin.choice(len(ps), size=shots, p=np.divide(weights, sum(weights)))
                hits = np.flatnonzero(twin.binomial(21, inst.ps[sampled]) > 10)
                want = (int(sampled[hits[0]]), int(hits[0]) + 1) if hits.size else (None, shots)
                assert got == want, (ps, measured, votes)
                assert (not lookups) == inside, (ps, measured, votes)
                if not hits.size:
                    assert ours.bit_generator.drawn == twin.bit_generator.drawn
                assert ours.bit_generator.integers == twin.bit_generator.integers == 0
                checked[inside] += 1
        assert min(checked.values()) >= 10, checked

    def test_most_huge_n_blocks_skip_the_class_lookup(self, monkeypatch):
        # Only the last block or two of a search hold enough solution mass
        # to accept; the blocks before reject every sample from their
        # uniforms' extremes, with no per-sample lookup.
        lookups = []
        classes = besearch.driver._classes
        monkeypatch.setattr(besearch.driver, "_classes",
                            lambda cdf, u: lookups.append(u.size) or classes(cdf, u))
        inst = make_instance(9**24, 1, 0.95, 0.05)
        blocks = sum(len(run_search(inst, seed).trace) for seed in range(10))
        assert blocks >= 200
        assert len(lookups) * 5 < blocks, (len(lookups), blocks)


class TestRewind:
    """A block the cuts cannot decide rewinds the generator by the uniforms
    it drew, to where it stood before the block, and is measured again."""

    @pytest.mark.parametrize("ps", [(0.1, 0.9), (0.0, 0.3, 0.9)], ids=["no p = 0", "p = 0"])
    @pytest.mark.parametrize("shots", (1, 50, 1000))
    def test_undecided_block_rewinds_to_its_start(self, ps, shots, monkeypatch):
        # A band wider than [0, 1) leaves every block that draws a vote
        # undecided. The whole state dict is compared: advance also clears
        # PCG64's buffered uint32, which stays empty when nothing draws
        # integers, as in every search.
        monkeypatch.setattr(besearch.driver, "_BAND", 2.0)
        inst = ProblemInstance(tuple(IndexClass(p, 1, p > 0.5) for p in ps), strict=False)
        weights = np.full(len(ps), 1 / len(ps))
        cuts = _vote_cuts(inst.ps, 21)
        returned, measured = [], []
        cut_block, measure = besearch.driver._cut_block, besearch.driver._measure
        monkeypatch.setattr(besearch.driver, "_cut_block",
                            lambda *args: returned.append(cut_block(*args)) or returned[-1])
        monkeypatch.setattr(besearch.driver, "_measure", lambda rng, w, shots: (
            measured.append(rng.bit_generator.state) or measure(rng, w, shots)))
        for seed in range(10):
            ours, twin = _twins(seed)
            ours.random(seed)
            twin.random(seed)
            before = ours.bit_generator.state
            got = _sample_block(ours, weights, cuts, shots)
            sampled = twin.choice(len(ps), size=shots, p=weights)
            voted = int(np.count_nonzero(inst.ps[sampled]))
            hits = np.flatnonzero(twin.binomial(21, inst.ps[sampled]) > 10)
            want = (int(sampled[hits[0]]), int(hits[0]) + 1) if hits.size else (None, shots)
            assert got == want
            if not voted:  # every sample at p = 0: decided without a vote uniform
                assert returned[-1] == (None, shots)
                continue
            assert returned[-1] == shots + voted
            assert measured[-1] == before
            if not hits.size:
                assert ours.bit_generator.state == twin.bit_generator.state


def _listed_inversion_sums(v: int, p: float, q: float, qn: float, steps: int) -> list[float]:
    """S_0 .. S_steps of numpy's inversion loop, all in one list, as the cut
    table once kept them: the reference for ``_inversion_sums``."""
    sums = [0.0]
    px = qn
    for x in range(1, steps + 1):
        sums.append(sums[-1] + px)
        px = ((v - x + 1) * p * px) / (x * q)
    return sums


def _four_extreme_cut_block(rng, cdf, cuts, shots, shortcuts: list):
    """``_cut_block`` as it was when the all-reject test reduced all four
    extremes (the smallest and the largest uniform of each half): the
    reference for the test that reduces only those it reads. Each block
    the test decides appends (class, classes, sign of the class) to
    ``shortcuts``."""
    driver = besearch.driver
    if cuts.drawn is None:
        u = rng.random(2 * shots)
        halves = u.reshape(2, shots)
        (low, low_vote), (high, high_vote) = (
            np.minimum.reduce(halves, axis=1).tolist(), np.maximum.reduce(halves, axis=1).tolist()
        )
        c = bisect_right(cdf, low)
        if bisect_right(cdf, high) == c and cuts.lo[c] < low_vote and high_vote <= cuts.hi[c]:
            shortcuts.append((c, len(cdf), cuts.sign[c]))
            return None, shots
        sampled = classes = driver._classes(cdf, u[:shots])
        at, votes = None, u[shots:]
    else:
        sampled = driver._classes(cdf, rng.random(shots))
        at = np.flatnonzero(cuts.drawn[sampled])
        if not at.size:
            return None, shots
        classes = sampled[at]
        votes = rng.random(at.size)
    rejected = (votes > cuts.lo.take(classes)) & (votes <= cuts.hi.take(classes))
    first = int(rejected.argmin())
    if rejected[first]:
        return None, shots
    c, u = int(classes[first]), float(votes[first])
    if (u - cuts.cut[c]) * cuts.sign[c] < driver._BAND or u > cuts.top:
        return shots + votes.size
    position = first if at is None else int(at[first])
    return int(sampled[position]), position + 1


class TestVoteCuts:
    """The cut table reproduces numpy's binomial votes. It relies on numpy
    drawing Binomial(v, p) by inversion, one uniform per draw, when
    v * min(p, 1 - p) <= 30; a numpy release that changes that fails here."""

    @pytest.mark.parametrize("v, p", vote_stream_check.GRID)
    def test_threshold_votes_equal_numpy(self, v, p):
        path, error = vote_stream_check.stream_check(v, p, 10**4)
        assert error is None, f"{path}: {error}"

    @pytest.mark.parametrize("v", (61, 101, 301))
    def test_btpe_side_of_the_edge_takes_the_binomial_path(self, v):
        paths = [vote_stream_check.stream_check(v, p, 100)[0]
                 for p in vote_stream_check.inversion_edges(v)]
        assert paths == ["threshold", "binomial"] * 2

    def test_inversion_sums_equal_the_listed_sums(self):
        # Every (v, p) of the check script's grid and random p at its v.
        rng = np.random.default_rng(32)
        pairs = [*vote_stream_check.GRID, *(
            (int(rng.choice(vote_stream_check.VOTES)), float(rng.random())) for _ in range(400)
        )]
        checked = 0
        for v, p in pairs:
            low = p <= 0.5
            p = p if low else 1.0 - p
            if p * v > 30.0:
                continue
            q = 1.0 - p
            mean = v * p
            bound = int(min(v, mean + 10.0 * math.sqrt(mean * q + 1)))
            qn = math.exp(v * math.log(q))
            sums = _listed_inversion_sums(v, p, q, qn, bound + 1)
            for at in {min(v // 2 + 1 if low else v - v // 2, bound + 1), 1, bound + 1}:
                got = besearch.driver._inversion_sums(v, p, q, qn, at, bound + 1)
                assert _hex(got) == _hex((sums[at], sums[bound + 1])), (v, p, at)
            checked += 1
        assert checked > 250

    def test_all_reject_test_equals_the_four_extreme_test(self):
        # Random one- and two-class blocks, the heavy class first or last, so
        # that the smallest measurement uniform often lies in the last class,
        # with p on both sides of 1/2 (a finite lo above it): the same
        # result, the same draws and the same path as the reference.
        rng = np.random.default_rng(3232)
        shortcuts, tally = [], Counter()
        values = (0.02, 0.1, 0.3, 0.5, 0.52, 0.6, 0.7, 0.9, 0.97)
        with vote_stream_check.tally_paths(tally):
            for block in range(3000):
                k = int(rng.integers(1, 3))
                cuts = _vote_cuts(np.array([float(rng.choice(values)) for _ in range(k)]),
                                  int(rng.choice((1, 3, 5, 21, 29))))
                weights = [float(rng.choice((1e-4, 0.02, 0.3))), 1.0][2 - k:]
                if block % 2:
                    weights.reverse()
                cdf = _cdf(tuple(weights))
                shots = int(rng.choice((1, 2, 5, 50, 1000)))
                ours, twin = _twins(block)
                got = besearch.driver._cut_block(ours, cdf, cuts, shots)
                want = _four_extreme_cut_block(twin, cdf, cuts, shots, shortcuts)
                assert got == want, block
                assert ours.bit_generator.state == twin.bit_generator.state, block
                assert tally["shortcut"] == len(shortcuts), block
        kinds = {(c == classes - 1, classes, sign) for c, classes, sign in shortcuts}
        places = ((True, 1), (True, 2), (False, 2))  # (last class, classes)
        assert kinds == {(last, classes, sign) for last, classes in places for sign in (1.0, -1.0)}
        assert tally["general"] > 100 and tally["fallback"] == 0

    def test_cuts_equal_the_majority_chance(self):
        checked = 0
        for v, p in vote_stream_check.GRID:
            cuts = _vote_cuts(np.array([p]), v)
            if cuts.cut is None:
                continue
            accept = 1.0 - cuts.cut[0] if p <= 0.5 else cuts.cut[0]
            assert abs(accept - majority_prob(v, p)) <= 1e-12, (v, p)
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("v, p", vote_stream_check.GRID)
    def test_vote_step_equals_numpy(self, v, p):
        # The sampler itself, on blocks of one class and of two (p and
        # 1 - p), two of them of 50 and 1000 samples with 1 - p rare.
        for weights, shots, divisor in vote_stream_check.BLOCKS:
            error = vote_stream_check.block_check(v, p, weights, shots, 250 // divisor)
            assert error is None

    def test_check_script_takes_every_path(self):
        # On its rare-class blocks the script sees the shortcut and the
        # general path; undecided blocks fall back, and BTPE-regime
        # instances have no cut table.
        tally = Counter()
        for v, p in vote_stream_check.GRID:
            for weights, shots, divisor in vote_stream_check.BLOCKS[2:]:
                vote_stream_check.block_check(v, p, weights, shots, 100 // divisor, tally=tally)
        assert tally["shortcut"] > 100 and tally["general"] > 100 and tally["binomial"] > 0
        assert sum(tally.values()) == len(vote_stream_check.GRID) * (10 + 1)

    def test_every_block_falling_back_keeps_the_digests(self, monkeypatch):
        # A band wider than [0, 1) sends every block that draws vote uniforms
        # to the binomial path, after the generator is put back where it
        # stood before the block's measurement.
        made, entered, measured = [], [], []
        sample_block, measure = besearch.driver._sample_block, besearch.driver._measure

        def block(rng, *args):
            entered.append(rng.bit_generator.state)
            return sample_block(rng, *args)

        def remeasure(rng, weights, shots):
            measured.append(rng.bit_generator.state == entered[-1])
            return measure(rng, weights, shots)

        monkeypatch.setattr(besearch.driver, "_BAND", 2.0)
        monkeypatch.setattr(besearch.driver, "_rng",
                            lambda seed: made.append(_CountingGenerator(seed)) or made[-1])
        monkeypatch.setattr(besearch.driver, "_sample_block", block)
        monkeypatch.setattr(besearch.driver, "_measure", remeasure)
        TestPieceDraws().test_relaxed_outputs_equal_the_recorded_digest()
        TestEngineDigest().test_outputs_equal_the_recorded_digest()
        assert sum(rng.binomial_calls for rng in made) > len(made)
        assert all(measured)  # every binomial block is measured from the block's start
        # Uniform calls beyond the measurements: cut blocks that drew and were put back.
        assert sum(rng.random_calls for rng in made) - len(measured) > len(made)


# The contract cases generated from the registry in tests/test_contracts.py
# run under the class names they have always been reported under.
class TestIntegerContract(IntegerCases):
    pass


class TestProbabilityContract(ProbabilityCases):
    pass


class TestShotCheck(ShotCases):
    pass


# Recorded when measured indices were still drawn by Generator.choice;
# any change in how the generator's stream is consumed moves these.
# ((n, t, p_good, p_bad, strict), seed, outcome, found class, total cost,
#  per-block verified counts)
GOLDEN_SEARCHES = (
    ((81, 1, 0.9, 0.1, True), 3, "found", 0, 1441, (21,)),
    ((729, 2, 0.95, 0.05, True), 11, "found", 0, 7930, (330,)),
    ((6561, 1, 0.9, 0.1, True), 42, "found", 0, 85276, (1000, 1000, 156)),
    ((59049, 3, 0.92, 0.08, True), 7, "found", 0, 86935, (1000, 1000, 235)),
    ((531441, 1, 0.9, 0.1, True), 2024, "found", 0, 219590, (1000, 1000, 1000, 790)),
    ((4782969, 5, 0.97, 0.02, True), 5, "found", 0, 228067, (1000, 1000, 1000, 829)),
    ((43046721, 1, 0.9, 0.1, True), 99, "found", 0, 4344599,
     (1000, 1000, 1000, 1000, 1000, 1000, 113)),
    ((43046721, 9, 0.99, 0.0, True), 1, "found", 0, 550246, (1000, 1000, 1000, 1000, 402)),
    ((81, 0, 0.9, 0.1, True), 8, "no_solutions", None, 51000, (1000, 1000)),
    ((59049, 0, 0.9, 0.1, True), 13, "no_solutions", None, 554000, (1000,) * 5),
    ((43046721, 0, 0.9, 0.1, True), 4, "no_solutions", None, 12858000, (1000,) * 8),
    ((6561, 2, 0.7, 0.3, False), 6, "found", 1, 1084, (4,)),
)


@pytest.mark.parametrize("args, seed, outcome, found, cost, verified", GOLDEN_SEARCHES)
def test_run_search_golden(args, seed, outcome, found, cost, verified):
    n, t, p_good, p_bad, strict = args
    result = run_search(make_instance(n, t, p_good, p_bad, strict=strict), seed)
    assert result.outcome == outcome
    assert result.found_class == found
    assert result.total_cost == cost
    assert tuple(row.verified for row in result.trace) == verified


def _hex(values) -> str:
    """float.hex of each value, ints and None as repr, joined."""
    return ",".join(v.hex() if isinstance(v, float) else repr(v) for v in values)


def _random_instance(rng: np.random.Generator, k: int) -> ProblemInstance:
    solution = rng.random(k) < rng.uniform(0.0, 0.3)
    ps = np.where(solution, rng.uniform(0.9, 1.0, k), rng.uniform(0.0, 0.1, k))
    counts = rng.integers(1, 1000, k)
    return ProblemInstance(tuple(
        IndexClass(float(p), int(c), bool(s)) for p, c, s in zip(ps, counts, solution)
    ))


def _masked_instance(rng: np.random.Generator, solutions: int, nonsolutions: int):
    """A strict instance with the given class counts on each side, in random order."""
    solution = np.repeat([True, False], [solutions, nonsolutions])
    rng.shuffle(solution)
    k = solution.size
    ps = np.where(solution, rng.uniform(0.9, 1.0, k), rng.uniform(0.0, 0.1, k))
    return ProblemInstance(tuple(
        IndexClass(float(p), int(c), bool(s))
        for p, c, s in zip(ps, rng.integers(1, 1000, k), solution)
    ))


# Probabilities that give zero masses, a negative zero and subnormal masses.
_SPECIAL_PS = (0.0, 1.0, -0.0, 5e-324)


class TestStatsPasses:
    """Curve and trace rows are each state's own ``state_stats``, float for
    float: under 8 classes from one float pass per state, from 8 classes
    on from array passes over up to 64 states."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_float_rows_equal_per_state_stats(self, k):
        # Every split of k classes into solutions and non-solutions, none
        # and all included; in the first trials each class takes each
        # special p in turn, in the others a random one.
        rng = np.random.default_rng(k)
        for solutions in range(k + 1):
            for trial in range(len(_SPECIAL_PS) + 3):
                solution = np.repeat([True, False], [solutions, k - solutions])
                rng.shuffle(solution)
                ps = [_SPECIAL_PS[(trial + i) % len(_SPECIAL_PS)] if trial < len(_SPECIAL_PS)
                      else float(rng.random()) for i in range(k)]
                inst = ProblemInstance(tuple(
                    IndexClass(p, int(c), bool(s))
                    for p, c, s in zip(ps, rng.integers(1, 1000, k), solution)
                ), strict=False)
                rows = list(besearch.driver._with_stats(inst, besearch.driver._rounds(inst, 6)))
                assert len(rows) == 7
                for (_, w1, w0, _), row in rows:
                    assert isinstance(w1, tuple)
                    want = state_stats(StructuredState(w1=w1, w0=w0), inst)
                    assert _hex(row) == _hex(want), (ps, solution)

    # numpy adds up to 7 values in order and 8 or more pairwise, so each
    # side of the mask is taken below and above that size.
    @pytest.mark.parametrize("solutions, nonsolutions", [
        (1, 1), (7, 7), (8, 8), (9, 9), (3, 40), (40, 3), (120, 480),
    ])
    def test_rows_equal_per_state_stats(self, solutions, nonsolutions):
        inst = _masked_instance(np.random.default_rng(solutions), solutions, nonsolutions)
        chain = list(besearch.driver._rounds(inst, 12))
        rows = _stats_rows(np.array([e[1] for e in chain]), np.array([e[2] for e in chain]), inst)
        assert len(rows) == 13
        for (_, w1, w0, _), row in zip(chain, rows):
            assert _hex(row) == _hex(state_stats(StructuredState(w1=w1, w0=w0), inst))

    def test_trace_rows_equal_the_curve(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            inst = _masked_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 30)))
            trace = run_search(inst, i, 7).trace
            curve = exact_success_curve(inst, len(trace) - 1)
            for row, point in zip(trace, curve):
                assert _hex(dataclasses.astuple(row)[:6]) == _hex(dataclasses.astuple(point))

    def test_passes_hold_at_most_64_states(self, monkeypatch):
        # From 8 classes on, a 200-round curve is 201 states: ceil(201 / 64)
        # = 4 passes, so a curve holds O(64 x classes) masses, not
        # O(rounds x classes).
        passes = []
        real = besearch.driver._stats_rows
        monkeypatch.setattr(besearch.driver, "_stats_rows",
                            lambda w1, w0, inst: passes.append(w1.shape) or real(w1, w0, inst))
        inst = _masked_instance(np.random.default_rng(3), 3, 7)
        assert len(exact_success_curve(inst, 200)) == 201
        assert passes == [(64, 10)] * 3 + [(9, 10)]
        passes.clear()
        n = 9**70
        wide = ProblemInstance(tuple(
            IndexClass(0.01 * (i + 1), n // 8 + (n % 8 if i == 0 else 0), False) for i in range(8)
        ))
        assert len(run_search(wide, 1, 1).trace) == 70
        assert passes == [(64, 8), (6, 8)]
        passes.clear()
        # Under 8 classes every row comes from the float pass, with no table.
        assert len(exact_success_curve(make_instance(9**40, 3, 0.95, 0.05), 200)) == 201
        assert len(run_search(make_instance(9**70, 0, 0.95, 0.05), 1, 1).trace) == 70
        assert passes == []


class TestEngineDigest:
    """Every bit the engine returns, pinned by one digest; the CLI goldens
    pin only two-class instances."""

    def test_outputs_equal_the_recorded_digest(self):
        # Recorded when each round called apply_amplification and
        # apply_error_reduction in turn.
        rng = np.random.default_rng(20261019)
        digest = hashlib.sha256()

        def add(*values):
            digest.update(_hex(values).encode() + b";")

        many = [_random_instance(rng, int(rng.integers(1, 601))) for _ in range(60)]
        huge = [make_instance(9**40, int(rng.integers(0, 10)), float(rng.uniform(0.9, 1.0)),
                              float(rng.uniform(0.0, 0.1))) for _ in range(40)]
        for inst, m_max in [*((inst, 8) for inst in many), *((inst, 40) for inst in huge)]:
            for row in exact_success_curve(inst, m_max):
                add(row.m, row.alpha, row.beta, row.theta, row.p_solution, row.cost)
            for m in (0, 3, m_max):
                state, cost = build_state(inst, m)
                add(cost, *state.w1.tolist(), *state.w0.tolist())
            for shots in (1, 1000):
                out = exact_outcome(inst, shots)
                add(out.p_found, out.p_false_accept, out.p_nothing, out.expected_cost,
                    *out.block_found, *out.block_false_accept)
        for i in range(300):
            if i % 3:
                n = 9 ** int(rng.integers(1, 13))
                inst = make_instance(n, int(rng.integers(0, 4)), float(rng.uniform(0.9, 1.0)),
                                     float(rng.uniform(0.0, 0.1)))
            else:
                inst = _random_instance(rng, int(rng.integers(1, 41)))
            result = run_search(inst, i, (1, 7, 1000)[i % 3])
            add(result.outcome, result.found_class, result.total_cost)
            for row in result.trace:
                add(row.m, row.alpha, row.beta, row.theta, row.p_solution, row.cost,
                    row.shots, row.verified)
        assert digest.hexdigest() == (
            "55050608e8b2164678ba20f6697b60b0c5db56221ea29fc8061d15bfb21875dc"
        )

    @staticmethod
    def relaxed_instance(rng, k, n=None):
        # Promise-band probabilities with one class in ten anywhere in
        # [0, 1], not held to the promise; counts of 1-999, or scaled to
        # sum to n, the last class taking the remainder.
        solution = rng.random(k) < 0.3
        ps = np.where(solution, rng.uniform(0.9, 1.0, k), rng.uniform(0.0, 0.1, k))
        ps = np.where(rng.random(k) < 0.1, rng.random(k), ps)
        counts = rng.integers(1, 1000, k).tolist()
        if n is not None:
            counts = [c * (n // (1000 * k)) for c in counts]
            counts[-1] += n - sum(counts)
        return ProblemInstance(tuple(
            IndexClass(float(p), int(c), bool(s)) for p, c, s in zip(ps, counts, solution)
        ), strict=False)

    def test_wide_long_chains_equal_the_recorded_digests(self):
        # The digest above pins wide instances to 8 rounds; these pin a
        # 600-class curve over all MAX_ROUNDS rounds, whose majority vectors
        # reach r = 647, and a 64-class outcome over 40 blocks. Recorded
        # when each distinct r_k computed its powers anew.
        rng = np.random.default_rng(478)
        wide = self.relaxed_instance(rng, 600)
        tracemalloc.start()
        try:
            curve = exact_success_curve(wide, MAX_ROUNDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The chain's power tables hold 600 x 969 floats (4.7 MB).
        assert peak < 16 * 2**20, peak
        assert hashlib.sha256(repr(curve).encode()).hexdigest() == (
            "441f84c1e0d450779c3bd976ec06c101ea9c4e590c9540eb67f6593d6709adc8"
        )
        inst = self.relaxed_instance(rng, 64, 9**40)
        assert inst.n == 9**40
        assert hashlib.sha256(repr(exact_outcome(inst)).encode()).hexdigest() == (
            "e4fe7ead3bee9e56cee1305c507173714a0fe1eb5824a6e730e7566ab7d4e9e6"
        )
