"""One registry of the checked arguments of every public entry point.

Each row is one (entry point, argument) pair: the name its error uses,
the argument's kind, its interval, one in-range value, a call that takes
the value, and any further bad values of its own. Every contract case is
generated from the rows. The generated cases run in tests/test_driver.py
under the class names they have always been reported under; the classes
here that hold them are not collected here.
"""
import importlib
import inspect
import math
import pkgutil
import re
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import besearch
from besearch import (
    GATE_OR, MAX_ROUNDS, MAX_SHOTS, AndOrTree, ExactOutcome, analytic_cost, apply_error_reduction,
    build_state, ceil_log9, evaluate_quantum_cost, evaluate_quantum_sim, exact_cost_quantile,
    exact_outcome, exact_success_curve, full_sweep_cost, init_state, level_costs, make_instance,
    run_block, run_search, schedule_for_round, search_blocks, verification_repetitions,
)
from besearch.amplification import amplification_factors
from besearch.driver import check_seed, check_shots
from besearch.error_reduction import _MAX_REPS, majority_prob, repetitions_for
from besearch.model import (
    IndexClass, ProblemInstance, StructuredState, check_bool, check_int, check_prob,
)
from besearch.oracles import (
    MAX_BASELINE_N, MAX_DENSE_DIM, MAX_ENUM_R, MAX_SCENARIOS, amplification_residual,
    block_recursion_cost, dense_amplification_check, enumerate_majority, grover_operator,
    majority_oracle_gap, random_scenario, random_unitary, run_fact_checks, simple_search_cost,
)

COUNT, SEED, SHOTS, PROB, SHAPE, BOOL = "count", "seed", "shots", "probability", "shape", "bool"

# The fixed off-type values of each kind; a shape row has only its own.
OFF_TYPE = {
    COUNT: (True, 81.0, "81", None),
    SEED: (True, 81.0, "81", None),
    SHOTS: (True, 5.0, "5", None),
    PROB: (True, "0.9", None, math.nan),
    SHAPE: (),
    BOOL: (0, 1, 1.0, "no", None),
}


class Row(NamedTuple):
    entry: str  # the callable's name, then "-<argument>" where it needs telling apart
    param: str  # the parameter the row covers
    name: str  # the name in the error
    kind: str
    lo: Optional[float]
    hi: Optional[float]  # None: unbounded
    good: object  # an in-range value
    call: Callable
    also: tuple = ()  # more bad values, beyond the kind's and the interval's


INST = make_instance(81, 1, 0.9, 0.1)
TREE = AndOrTree(2, (9, 9), GATE_OR)


def _fact_checks(scenarios=1, dims=(4,), seed=0, max_r=3):
    """run_fact_checks on its smallest inputs: one cheap crosscheck instance."""
    return run_fact_checks(scenarios, dims, seed, max_r, round_grid=((0.9, 0.1),))


ROWS = (
    Row("check_int", "value", "x", COUNT, 1, None, 81, lambda v: check_int("x", v, 1)),
    Row("ceil_log9", "n", "n", COUNT, 1, None, 81, ceil_log9),
    Row("search_blocks", "n", "n", COUNT, 1, 9 ** (MAX_ROUNDS + 1), 81, search_blocks),
    Row("verification_repetitions", "n", "n", COUNT, 1, None, 81, verification_repetitions),
    Row("full_sweep_cost", "n", "n", COUNT, 1, 9 ** (MAX_ROUNDS + 1), 81, full_sweep_cost),
    Row("analytic_cost", "m", "m", COUNT, 0, MAX_ROUNDS, 81, analytic_cost),
    Row("build_state", "rounds", "rounds", COUNT, 0, MAX_ROUNDS, 81,
        lambda v: build_state(INST, v)),
    Row("exact_success_curve", "m_max", "m_max", COUNT, 0, MAX_ROUNDS, 81,
        lambda v: exact_success_curve(INST, v)),
    Row("run_block-m", "m", "m", COUNT, 0, MAX_ROUNDS, 3, lambda v: run_block(INST, v, 0)),
    Row("make_instance-n", "n", "n", COUNT, 1, None, 81, lambda v: make_instance(v, 1, 0.9, 0.1)),
    Row("make_instance-t", "t", "t", COUNT, 0, 81, 81, lambda v: make_instance(81, v, 0.9, 0.1)),
    Row("IndexClass", "count", "count", COUNT, 1, None, 81, lambda v: IndexClass(0.5, v, False)),
    Row("simple_search_cost", "n", "n", COUNT, 2, MAX_BASELINE_N, 81, simple_search_cost),
    Row("block_recursion_cost", "n", "n", COUNT, 1, None, 81, block_recursion_cost),
    Row("schedule_for_round", "k", "round index", COUNT, 1, MAX_ROUNDS, 81, schedule_for_round),
    Row("apply_error_reduction", "k", "round index", COUNT, 1, MAX_ROUNDS, 81,
        lambda v: apply_error_reduction(init_state(INST), v, INST)),
    Row("majority_prob", "r", "r", COUNT, 1, _MAX_REPS, 81, lambda v: majority_prob(v, 0.3),
        (-1, _MAX_REPS + 2)),
    Row("enumerate_majority", "r", "r", COUNT, 1, MAX_ENUM_R, 9,
        lambda v: enumerate_majority(v, 0.3), (MAX_ENUM_R + 2,)),
    Row("majority_oracle_gap", "max_r", "max_r", COUNT, 1, MAX_ENUM_R, 9, majority_oracle_gap),
    Row("run_fact_checks-scenarios", "scenarios", "scenarios", COUNT, 1, MAX_SCENARIOS, 81,
        lambda v: _fact_checks(scenarios=v)),
    Row("run_fact_checks-dims", "dims", "dim", COUNT, 2, MAX_DENSE_DIM, 8,
        lambda v: _fact_checks(dims=(4, v))),
    Row("run_fact_checks-max_r", "max_r", "max_r", COUNT, 1, MAX_ENUM_R, 5,
        lambda v: _fact_checks(max_r=v)),
    Row("random_unitary", "dim", "dim", COUNT, 2, MAX_DENSE_DIM, 8,
        lambda v: random_unitary(v, np.random.default_rng(0))),
    Row("random_scenario", "dim", "dim", COUNT, 2, MAX_DENSE_DIM, 8, lambda v: random_scenario(v, 0)),
    Row("dense_amplification_check", "dim", "dim", COUNT, 2, MAX_DENSE_DIM, 8,
        lambda v: dense_amplification_check(v, {1}, 0)),
    Row("dense_amplification_check-flag", "flag_indices", "flag index", COUNT, 0, 3, 3,
        lambda v: dense_amplification_check(4, {v}, 0)),
    Row("amplification_residual-flag", "flag_indices", "flag index", COUNT, 0, 3, 3,
        lambda v: amplification_residual(np.eye(4, dtype=complex), {v})),
    Row("grover_operator-flag", "flag_indices", "flag index", COUNT, 0, 3, 3,
        lambda v: grover_operator(np.eye(4, dtype=complex), {v})),
    Row("AndOrTree-depth", "depth", "depth", COUNT, 0, None, 3,
        lambda v: AndOrTree(v, (2,) * 3, GATE_OR)),
    Row("AndOrTree-fanout", "fanouts", "fanout", COUNT, 1, None, 81,
        lambda v: AndOrTree(2, (3, v), GATE_OR)),
    Row("AndOrTree-fanouts", "fanouts", "fanouts", SHAPE, None, None, (3,),
        lambda v: AndOrTree(1, v, GATE_OR), (3,)),
    Row("check_seed", "seed", "seed", SEED, 0, None, 81, check_seed),
    Row("run_fact_checks-seed", "seed", "seed", SEED, 0, None, 81, lambda v: _fact_checks(seed=v)),
    Row("random_scenario-seed", "seed", "seed", SEED, 0, None, 81, lambda v: random_scenario(4, v)),
    Row("dense_amplification_check-seed", "seed", "seed", SEED, 0, None, 81,
        lambda v: dense_amplification_check(4, {1}, v)),
    Row("run_search-seed", "seed", "seed", SEED, 0, None, 81, lambda v: run_search(INST, v),
        (1.5, "7")),
    Row("run_block-seed", "seed", "seed", SEED, 0, None, 81, lambda v: run_block(INST, 1, v),
        (1.5, "7")),
    Row("evaluate_quantum_sim-seed", "seed", "seed", SEED, 0, None, 81,
        lambda v: evaluate_quantum_sim(AndOrTree(1, (3,), GATE_OR), [0, 0, 1], v)),
    Row("check_shots", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5, check_shots),
    Row("verification_repetitions", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: verification_repetitions(81, v)),
    Row("full_sweep_cost", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5, lambda v: full_sweep_cost(81, v)),
    Row("run_search", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: run_search(INST, 0, v), (-5, 2.0)),
    Row("run_block", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5, lambda v: run_block(INST, 1, 0, v)),
    Row("exact_outcome", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5, lambda v: exact_outcome(INST, v)),
    # At 5 shots P(found) is 0.357, so the quantile at 0.3 is an int.
    Row("exact_cost_quantile", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: exact_cost_quantile(INST, 0.3, v)),
    Row("evaluate_quantum_cost", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: evaluate_quantum_cost(TREE, v)),
    Row("evaluate_quantum_sim", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: evaluate_quantum_sim(TREE, [0] * 80 + [1], 0, v)),
    # The root row's leaf_queries: the cost a shot-taking call reports.
    Row("level_costs", "shots", "shots", SHOTS, 1, MAX_SHOTS, 5,
        lambda v: level_costs(TREE, v)[-1][-1]),
    Row("check_prob", "value", "x", PROB, 0.0, 1.0, 0.3, lambda v: check_prob("x", v)),
    Row("IndexClass", "p", "p", PROB, 0.0, 1.0, 0.3, lambda v: IndexClass(v, 3, False)),
    Row("make_instance-p_good", "p_good", "p_good", PROB, 0.0, 1.0, 0.3,
        lambda v: make_instance(81, 1, v, 0.1, strict=False)),
    Row("make_instance-p_bad", "p_bad", "p_bad", PROB, 0.0, 1.0, 0.3,
        lambda v: make_instance(81, 1, 0.9, v, strict=False)),
    Row("enumerate_majority", "p", "p", PROB, 0.0, 1.0, 0.3, lambda v: enumerate_majority(5, v)),
    Row("majority_prob", "p", "p", PROB, 0.0, 1.0, 0.3, lambda v: majority_prob(5, v)),
    # eps lies in (0, 1), and is checked before the memo, so an unhashable
    # value is named too.
    Row("repetitions_for", "eps", "eps", PROB, 0.0, 1.0, 0.01, repetitions_for,
        (0.0, 1.0, [0.1], {}, "0.01")),
    # confidence lies in (0, 1), like eps.
    Row("exact_cost_quantile", "confidence", "confidence", PROB, 0.0, 1.0, 0.9,
        lambda v: exact_cost_quantile(INST, v), (0.0, 1.0, [0.9], "0.9")),
    Row("amplification_factors", "theta", "theta", PROB, 0.0, math.pi / 2, 0.5,
        amplification_factors, ("0.5", 1.6)),
    Row("check_bool", "value", "x", BOOL, None, None, True, lambda v: check_bool("x", v)),
    Row("IndexClass", "is_solution", "is_solution", BOOL, None, None, True,
        lambda v: IndexClass(0.95, 3, v)),
    Row("ProblemInstance", "strict", "strict", BOOL, None, None, True,
        lambda v: ProblemInstance((IndexClass(0.95, 3, True), IndexClass(0.05, 6, False)), v)),
    Row("make_instance-strict", "strict", "strict", BOOL, None, None, True,
        lambda v: make_instance(81, 1, 0.9, 0.1, strict=v)),
)


def outside(row: Row) -> tuple:
    """The values just outside the row's interval: one below and, where
    it is bounded, one above (a quarter and a half for probabilities)."""
    if row.lo is None:
        return ()
    below, above = (0.25, 0.5) if row.kind == PROB else (1, 1)
    return (row.lo - below,) + (() if row.hi is None else (row.hi + above,))


def rejects(row: Row, value, what: str = "must ") -> None:
    """``row.call(value)`` raises a ValueError that starts with the row's
    name and ``what``."""
    try:
        row.call(value)
    except ValueError as err:
        assert re.match(f"{row.name} {what}", str(err)), (row.entry, value, str(err))
    else:
        pytest.fail(f"{row.entry} took {value!r}")


def rejects_huge(row: Row, value: int) -> None:
    """``row.call(value)``, for an int past Python's 4300-digit limit on
    writing one, raises a short ValueError that starts with the row's name
    and "must lie in"."""
    with pytest.raises(ValueError) as err:
        row.call(value)
    message = str(err.value)
    assert message.startswith(f"{row.name} must lie in ") and len(message) < 120, message


def plain(result):
    """A result in a form that == compares: arrays as lists, states as masses."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, StructuredState):
        return result.w1.tolist(), result.w0.tolist()
    if isinstance(result, tuple) and result and isinstance(result[0], (StructuredState, np.ndarray)):
        return plain(result[0]), result[1]
    return result


def _cost(result):
    """The cost a shot-taking call reports (an exact outcome's is an expectation)."""
    if isinstance(result, tuple):  # run_block: (hit, cost)
        return result[1]
    return getattr(result, "total_cost", getattr(result, "expected_cost", result))


INTEGER_ROWS = {row.entry: row for row in ROWS if row.kind in (COUNT, SEED)}
BOOL_ROWS = {row.entry: row for row in ROWS if row.kind == BOOL}
SHOT_ROWS = {row.entry: row for row in ROWS if row.kind == SHOTS}
# Probabilities on [0, 1] take the generated values only; the rest have their own too.
UNIT_ROWS = {row.entry: row for row in ROWS if row.kind == PROB and not row.also}
OTHER_ROWS = [row for row in ROWS if row.kind in (PROB, SHAPE) and row.also]


class IntegerCases:
    """Every size, count, round, majority, scenario, dimension, flag index,
    tree shape and seed argument is checked by ``check_int``: bool, float,
    str and None raise a ValueError that names the argument, so do values
    outside its interval, and a numpy integer gives the same result as the
    Python int."""

    @pytest.mark.parametrize("entry", INTEGER_ROWS)
    @pytest.mark.parametrize("bad", OFF_TYPE[COUNT])
    def test_rejects_non_integers(self, entry, bad):
        rejects(INTEGER_ROWS[entry], bad, "must be an integer")

    @pytest.mark.parametrize("entry", INTEGER_ROWS)
    def test_numpy_integer_counts_as_int(self, entry):
        row = INTEGER_ROWS[entry]
        assert plain(row.call(np.int64(row.good))) == plain(row.call(row.good))

    def test_numpy_integers_are_stored_as_int(self):
        inst = make_instance(np.int64(81), np.int64(1), 0.9, 0.1)
        assert type(inst.n) is int and type(inst.t) is int
        assert all(type(c.count) is int for c in inst.classes)
        assert type(IndexClass(0.5, np.int64(3), False).count) is int
        assert type(check_int("x", np.int64(3), 1)) is int
        tree = AndOrTree(np.int64(2), (np.int64(3), np.int64(4)), GATE_OR)
        assert type(tree.depth) is int and all(type(f) is int for f in tree.fanouts)

    def test_range_is_checked(self):  # shot counts too
        for row in (*INTEGER_ROWS.values(), *SHOT_ROWS.values()):
            for bad in outside(row):
                rejects(row, bad, "must lie in")
            for bad in row.also:
                rejects(row, bad)
        assert check_int("x", 4, 1, 4) == 4 and check_int("x", 10**30, 1) == 10**30
        with pytest.raises(ValueError, match=r"^x must lie in \[1, 4\], got 5$"):
            check_int("x", 5, 1, 4)

    @pytest.mark.parametrize("entry", INTEGER_ROWS)
    def test_huge_values_are_named(self, entry):
        row = INTEGER_ROWS[entry]
        for bad in (-10**5000, *(() if row.hi is None else (10**5000,))):
            rejects_huge(row, bad)

    def test_odd_and_nonempty_checks_stay(self):
        for call in (lambda: majority_prob(4, 0.5), lambda: enumerate_majority(4, 0.5)):
            with pytest.raises(ValueError, match="^r must be odd"):
                call()
        with pytest.raises(ValueError, match="at least one dimension"):
            _fact_checks(dims=())


class ProbabilityCases:
    """Every scalar probability argument is checked by ``check_prob``: bool,
    str, None, NaN and values outside its interval raise a ValueError that
    names the argument, and a numpy float gives the same result as the
    float. Arguments on other intervals (eps, theta) and the fanouts
    sequence take their rows' values."""

    @pytest.mark.parametrize("entry", UNIT_ROWS)
    @pytest.mark.parametrize("bad", OFF_TYPE[PROB] + (-0.25, 1.5))
    def test_rejects_non_probabilities(self, entry, bad):
        rejects(UNIT_ROWS[entry], bad)

    @pytest.mark.parametrize("entry", UNIT_ROWS)
    def test_huge_ints_are_named(self, entry):
        rejects_huge(UNIT_ROWS[entry], 10**5000)

    @pytest.mark.parametrize("entry", UNIT_ROWS)
    @pytest.mark.parametrize("good", (0.0, 0.3, 1.0))
    def test_numpy_float_counts_as_float(self, entry, good):
        call = UNIT_ROWS[entry].call
        assert call(np.float64(good)) == call(good)

    def test_probabilities_are_stored_as_float(self):
        assert type(check_prob("x", np.float64(0.25))) is float
        assert type(check_prob("x", 1)) is float
        inst = make_instance(81, 1, np.float64(0.95), np.float32(0.0625))
        assert all(type(c.p) is float for c in inst.classes)
        assert inst.classes[1].p == 0.0625

    def test_array_entry_is_named(self):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got nan"):
            majority_prob(5, np.array([0.1, math.nan, 0.9]))

    @pytest.mark.parametrize("row, bad", [
        pytest.param(row, bad, id=f"{row.entry}-{bad!r}") for row in OTHER_ROWS
        for bad in OFF_TYPE[row.kind] + outside(row) + row.also
    ])
    def test_other_intervals_name_their_argument(self, row, bad):
        rejects(row, bad)

    def test_other_intervals_take_numpy_floats(self):
        for row in OTHER_ROWS:
            if row.kind == PROB:
                assert row.call(np.float64(row.good)) == row.call(row.good)
        assert check_prob("x", math.pi / 2, math.pi / 2, "pi/2") == math.pi / 2


class ShotCases:
    """Every entry point that takes a shot count checks it the same way."""

    @pytest.mark.parametrize("entry", SHOT_ROWS)
    @pytest.mark.parametrize("bad", OFF_TYPE[SHOTS])
    def test_rejects_non_integers(self, entry, bad):
        rejects(SHOT_ROWS[entry], bad, "must be an integer")

    @pytest.mark.parametrize("entry", SHOT_ROWS)
    def test_numpy_integer_counts_as_int(self, entry):
        row = SHOT_ROWS[entry]
        got, want = row.call(np.int64(row.good)), row.call(row.good)
        assert got == want
        assert type(_cost(got)) is (float if isinstance(got, ExactOutcome) else int)


class BoolCases:
    """Every flag argument (a class's is_solution, an instance's strict) is
    checked by ``check_bool``: 0, 1, 1.0, str and None raise a ValueError
    that names the argument, and a numpy bool gives the same result as the
    bool, stored as a bool."""

    @pytest.mark.parametrize("entry", BOOL_ROWS)
    @pytest.mark.parametrize("bad", OFF_TYPE[BOOL])
    def test_rejects_non_bools(self, entry, bad):
        rejects(BOOL_ROWS[entry], bad, "must be a bool")

    @pytest.mark.parametrize("entry", BOOL_ROWS)
    @pytest.mark.parametrize("good", (False, True))
    def test_numpy_bool_counts_as_bool(self, entry, good):
        call = BOOL_ROWS[entry].call
        assert call(np.bool_(good)) == call(good)

    def test_huge_ints_are_named(self):
        rejects(BOOL_ROWS["IndexClass"], 10**5000, "must be a bool, got a 16610-bit int")

    def test_flags_are_stored_as_bool(self):
        assert type(check_bool("x", np.bool_(True))) is bool
        assert type(IndexClass(0.95, 3, np.bool_(True)).is_solution) is bool
        inst = ProblemInstance((IndexClass(0.95, 3, True),), np.bool_(False))
        assert type(inst.strict) is bool and inst.strict is False
        assert type(make_instance(81, 1, 0.9, 0.1, strict=np.bool_(True)).strict) is bool


# The rows whose error names something other than their parameter, and why.
NAMED_OTHERWISE = {
    ("check_int", "value"): "the caller gives the name",
    ("check_prob", "value"): "the caller gives the name",
    ("check_bool", "value"): "the caller gives the name",
    ("run_fact_checks-dims", "dims"): "each dimension is checked, and named, on its own",
    ("AndOrTree-fanout", "fanouts"): "each fanout is checked, and named, on its own",
    ("dense_amplification_check-flag", "flag_indices"): "each flag index is checked on its own",
    ("amplification_residual-flag", "flag_indices"): "each flag index is checked on its own",
    ("grover_operator-flag", "flag_indices"): "each flag index is checked on its own",
    ("schedule_for_round", "k"): "k is a round index",
    ("apply_error_reduction", "k"): "k is a round index",
}


def test_each_error_names_its_parameter():
    renamed = {(row.entry, row.param) for row in ROWS if row.name != row.param}
    assert renamed == set(NAMED_OTHERWISE)


# Parameters whose name says they take a checked count, probability,
# shot count or seed; records that only hold results are exempt.
CHECKED = {"n", "t", "m", "m_max", "rounds", "k", "r", "max_r", "count", "depth", "fanouts",
           "scenarios", "dim", "dims", "shots", "seed", "p", "p_good", "p_bad",
           "eps", "confidence", "theta", "flag_indices", "value", "is_solution", "strict"}
RECORDS = {"CurvePoint", "TraceRow", "SearchResult", "FactCheck"}


def test_every_checked_argument_has_a_row():
    covered = {(row.entry.split("-")[0], row.param) for row in ROWS}
    modules = [besearch] + [importlib.import_module(f"besearch.{info.name}")
                            for info in pkgutil.iter_modules(besearch.__path__)
                            if not info.name.startswith("_")]
    missing = set()
    for module in modules:
        for name, obj in vars(module).items():
            if (name.startswith("_") or name in RECORDS or not callable(obj)
                    or not getattr(obj, "__module__", "").startswith("besearch")
                    or isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            missing |= {(name, param) for param in inspect.signature(obj).parameters
                        if param in CHECKED and (name, param) not in covered}
    assert not missing, sorted(missing)


def _drawn_bad(row: Row) -> st.SearchStrategy:
    """Off-type values of the row's kind, and values outside its interval."""
    if row.kind == PROB:
        return st.one_of(st.booleans(), st.text(max_size=4), st.none(), st.just(math.nan),
                         st.floats(max_value=row.lo, exclude_max=True),
                         st.floats(min_value=row.hi, exclude_min=True))
    if row.kind == BOOL:
        return st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none())
    above = [] if row.hi is None else [st.integers(min_value=row.hi + 1)]
    return st.one_of(st.booleans(), st.floats(), st.text(max_size=4), st.none(),
                     st.integers(max_value=row.lo - 1), *above)


@pytest.mark.parametrize("kind", (COUNT, SEED, SHOTS, PROB, BOOL))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_bad_values_are_named(kind, data):
    row = data.draw(st.sampled_from([row for row in ROWS if row.kind == kind]), label="row")
    rejects(row, data.draw(_drawn_bad(row), label="bad"))
