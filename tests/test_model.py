import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from besearch import (
    IndexClass,
    ProblemInstance,
    StructuredState,
    apply_amplification,
    apply_error_reduction,
    build_state,
    expand_classes,
    init_state,
    make_instance,
    state_stats,
    total_mass,
)
from conftest import relaxed_instances, strict_instances


class TestMakeInstance:
    def test_two_class_construction(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        assert inst.n == 4 and inst.t == 1
        assert inst.classes == (
            IndexClass(p=0.9, count=1, is_solution=True),
            IndexClass(p=0.1, count=3, is_solution=False),
        )

    def test_no_solution_case(self):
        inst = make_instance(9, 0, 0.9, 0.1)
        assert inst.classes == (IndexClass(p=0.1, count=9, is_solution=False),)
        assert inst.t == 0

    def test_all_solutions_case(self):
        inst = make_instance(5, 5, 0.95, 0.1)
        assert inst.classes == (IndexClass(p=0.95, count=5, is_solution=True),)

    def test_strict_promise_violation(self):
        with pytest.raises(ValueError):
            make_instance(4, 1, 0.8, 0.1)
        with pytest.raises(ValueError):
            make_instance(4, 1, 0.9, 0.2)

    def test_relaxed_mode_permits_weak_probabilities(self):
        inst = make_instance(4, 1, 0.8, 0.3, strict=False)
        assert not inst.strict

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_instance(4, 5, 0.9, 0.1)
        with pytest.raises(ValueError):
            make_instance(0, 0, 0.9, 0.1)
        with pytest.raises(ValueError):
            make_instance(4, 1, 1.2, 0.1)
        with pytest.raises(ValueError):
            make_instance(4, 1, 0.9, -0.1)

    def test_per_class_arrays(self):
        inst = make_instance(10, 3, 0.95, 0.05)
        assert inst.ps.tolist() == [0.95, 0.05]
        assert inst.counts.tolist() == [3.0, 7.0]
        assert inst.solution.tolist() == [True, False]
        assert inst.nonsolution.tolist() == [False, True]
        for array in (inst.ps, inst.counts, inst.solution, inst.nonsolution):
            assert not array.flags.writeable

    def test_rejects_size_beyond_float_range(self):
        with pytest.raises(ValueError):
            make_instance(10**400, 1, 0.9, 0.1)

    def test_class_validation(self):
        with pytest.raises(ValueError):
            IndexClass(p=0.5, count=0, is_solution=False)
        with pytest.raises(ValueError):
            ProblemInstance((IndexClass(p=0.5, count=1, is_solution=True),))
        with pytest.raises(ValueError, match="non-solution class has p=0.2"):
            ProblemInstance((IndexClass(p=0.2, count=1, is_solution=False),))
        with pytest.raises(ValueError, match="at least one index"):
            ProblemInstance(())


class TestInitState:
    def test_base_amplitudes(self):
        # alpha1^2 = sum_{solutions} p/n = 0.225, beta1^2 = 0.075
        inst = make_instance(4, 1, 0.9, 0.1)
        alpha, beta, _, _ = state_stats(init_state(inst), inst)
        assert alpha == pytest.approx(math.sqrt(0.225), abs=1e-15)
        assert beta == pytest.approx(math.sqrt(0.075), abs=1e-15)

    def test_deterministic_subroutines_single_branch(self):
        # One class with p = 1: all mass on flag 1, none on flag 0.
        inst = make_instance(3, 3, 1.0, 0.1)
        state = init_state(inst)
        assert len(state.w1) == 1
        assert list(state.w0) == [0.0]
        assert state_stats(state, inst)[0] == pytest.approx(1.0, abs=1e-15)

    @given(strict_instances(require_solution=True))
    def test_strict_base_alpha_lower_bound(self, inst):
        alpha, _, _, _ = state_stats(init_state(inst), inst)
        assert alpha**2 >= 0.9 * inst.t / inst.n - 1e-12

    @given(strict_instances())
    def test_p_solution_is_t_over_n(self, inst):
        *_, p_solution = state_stats(init_state(inst), inst)
        assert abs(p_solution - inst.t / inst.n) <= 1e-12

    def test_huge_n_is_cheap(self):
        inst = make_instance(10**12, 3, 0.9, 0.1)
        *_, p_solution = state_stats(init_state(inst), inst)
        assert p_solution == pytest.approx(3e-12, rel=1e-9)


class TestStateStats:
    def test_theta_of_base_state(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        _, _, theta, _ = state_stats(init_state(inst), inst)
        assert theta == pytest.approx(math.asin(math.sqrt(0.3)), abs=1e-15)

    def test_no_flag_one_mass_gives_zero_theta(self):
        inst = make_instance(6, 0, 0.9, 0.0, strict=True)
        alpha, beta, theta, _ = state_stats(init_state(inst), inst)
        assert theta == 0.0 and alpha == 0.0 and beta == 0.0

    def test_p_solution_uniform(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        assert state_stats(init_state(inst), inst)[3] == pytest.approx(0.25, abs=1e-12)

    @given(relaxed_instances(), st.integers(0, 4))
    @settings(max_examples=50)
    def test_sin_theta_matches_flag_one_mass(self, inst, rounds):
        state, _ = build_state(inst, rounds)
        alpha, beta, theta, p_solution = state_stats(state, inst)
        assert math.sin(theta) ** 2 == pytest.approx(alpha**2 + beta**2, abs=1e-12)
        assert p_solution >= alpha**2 - 1e-12


class TestStateShape:
    """A state is one nonempty vector of flag-1 masses and one of flag-0
    masses, with one entry per class of the instance it is used with."""

    @pytest.mark.parametrize("w1, w0", [
        ([[0.5]], [[0.5]]),  # 2-D
        (0.5, 0.5),  # 0-D
        ([], []),  # no class
        ([0.5], [0.25, 0.25]),  # lengths differ
    ])
    def test_rejects_masses_that_are_not_one_class_vector(self, w1, w0):
        with pytest.raises(ValueError, match="^state w"):
            StructuredState(w1=w1, w0=w0)

    @pytest.mark.parametrize("name", ("w1", "w0"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, -0.1))
    def test_rejects_masses_that_are_not_finite_and_nonnegative(self, name, bad):
        masses = dict(w1=[0.5, 0.0], w0=[0.0, 0.5])
        masses[name] = [0.5, bad]
        with pytest.raises(ValueError, match=f"^state {name} must hold finite nonnegative"):
            StructuredState(**masses)

    def test_rejects_a_negative_mass_in_a_unit_total(self):
        # Total mass 1, so the round operators' norm checks would pass it.
        with pytest.raises(ValueError, match="^state w0 must hold finite nonnegative"):
            StructuredState(w1=[1.1, 0.0], w0=[0.0, -0.1])

    def test_stats_reject_a_state_of_another_class_count(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state = StructuredState(w1=[0.2, 0.2, 0.1], w0=[0.2, 0.2, 0.1])
        with pytest.raises(ValueError, match="state has 3 classes but the instance has 2"):
            state_stats(state, inst)


class TestInvariants:
    @given(strict_instances(), st.integers(0, 8))
    @settings(max_examples=60)
    def test_normalization_preserved(self, inst, rounds):
        state, _ = build_state(inst, rounds)
        assert abs(total_mass(state) - 1.0) <= 1e-9

    @pytest.mark.parametrize("count", [1, 9])
    def test_normalization_near_right_angle(self, count):
        # p one ulp below 1 puts theta next to pi/2, where amplification
        # maps a deficit in the total mass to about nine times itself.
        inst = ProblemInstance((IndexClass(p=1 - 2**-53, count=count, is_solution=True),))
        state, _ = build_state(inst, 8)
        assert abs(total_mass(state) - 1.0) <= 1e-9

    def test_normalization_over_forty_rounds(self):
        inst = make_instance(6561, 1, 0.9, 0.1)
        state, _ = build_state(inst, 40)
        assert abs(total_mass(state) - 1.0) <= 1e-9

    @given(strict_instances(max_count=12), st.integers(0, 4))
    @settings(max_examples=40)
    def test_class_collapse_equals_expansion(self, inst, rounds):
        state_c, _ = build_state(inst, rounds)
        expanded = expand_classes(inst)
        state_e, _ = build_state(expanded, rounds)
        a_alpha, a_beta, a_theta, a_p = state_stats(state_c, inst)
        b_alpha, b_beta, b_theta, b_p = state_stats(state_e, expanded)
        assert a_alpha == pytest.approx(b_alpha, abs=1e-12)
        assert a_beta == pytest.approx(b_beta, abs=1e-12)
        # theta is compared through its sine: arcsine is ill-conditioned
        # at the top endpoint, which a p=1 class hits exactly.
        assert math.sin(a_theta) == pytest.approx(math.sin(b_theta), abs=1e-12)
        assert a_p == pytest.approx(b_p, abs=1e-12)

    @given(strict_instances(), st.integers(0, 6))
    @settings(max_examples=40)
    def test_state_has_one_entry_per_class(self, inst, rounds):
        state, _ = build_state(inst, rounds)
        assert [f.name for f in dataclasses.fields(state)] == ["w1", "w0"]
        assert state.w1.shape == state.w0.shape == (len(inst.classes),)
        assert (state.w1 >= 0).all() and (state.w0 >= 0).all()
        # The state keeps no round index: build_state ran exactly `rounds`
        # rounds, k = 1 .. rounds, as chaining them by hand does.
        chained = init_state(inst)
        for k in range(1, rounds + 1):
            chained = apply_error_reduction(apply_amplification(chained), k, inst)
        assert np.array_equal(state.w1, chained.w1) and np.array_equal(state.w0, chained.w0)

    def test_states_are_immutable(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state = init_state(inst)
        with pytest.raises(AttributeError):
            state.w1 = np.zeros(2)
        with pytest.raises(ValueError):
            state.w1[0] = 0.5
        # The operators hand their fresh arrays to the state read-only.
        for later in (apply_amplification(state), apply_error_reduction(state, 1, inst)):
            assert not later.w1.flags.writeable and not later.w0.flags.writeable
        with pytest.raises(AttributeError):
            inst.classes[0].p = 0.5
