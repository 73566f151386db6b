import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from besearch import (
    InvariantError,
    StructuredState,
    amplification_factors,
    apply_amplification,
    build_state,
    init_state,
    make_instance,
    state_stats,
    total_mass,
)
from conftest import relaxed_instances, strict_instances


class TestFactors:
    def test_thirty_degrees(self):
        # sin(pi/2)/sin(pi/6) = 2, cos(pi/2)/cos(pi/6) = 0
        g1, g0 = amplification_factors(math.pi / 6)
        assert g1 == pytest.approx(2.0, abs=1e-12)
        assert g0 == pytest.approx(0.0, abs=1e-12)

    def test_forty_five_degrees_flips_flag_zero_sign(self):
        g1, g0 = amplification_factors(math.pi / 4)
        assert g1 == pytest.approx(1.0, abs=1e-12)
        assert g0 == pytest.approx(-1.0, abs=1e-12)

    def test_small_angle_limit_triples(self):
        assert amplification_factors(0.0) == (3.0, 1.0)

    def test_right_angle_endpoint(self):
        g1, g0 = amplification_factors(math.pi / 2)
        assert g1 == pytest.approx(-1.0, abs=1e-12)
        assert g0 == pytest.approx(-3.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            amplification_factors(-0.1)
        with pytest.raises(ValueError):
            amplification_factors(math.pi / 2 + 0.1)

    @given(st.floats(0.0, math.pi / 2, allow_nan=False))
    def test_norm_preservation_identity(self, theta):
        g1, g0 = amplification_factors(theta)
        s2 = math.sin(theta) ** 2
        assert g1**2 * s2 + g0**2 * (1 - s2) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(1e-6, math.pi / 2 - 1e-6, allow_nan=False))
    def test_closed_forms_equal_sine_ratios(self, theta):
        g1, g0 = amplification_factors(theta)
        assert g1 == pytest.approx(math.sin(3 * theta) / math.sin(theta), abs=1e-9)
        assert g0 == pytest.approx(math.cos(3 * theta) / math.cos(theta), abs=1e-9)


class TestApply:
    def test_flag_one_mass_point_three(self):
        # w -> w (3 - 4w)^2: 0.3 -> 0.972
        inst = make_instance(4, 1, 0.9, 0.1)
        state = apply_amplification(init_state(inst))
        alpha, beta, _, _ = state_stats(state, inst)
        assert alpha**2 + beta**2 == pytest.approx(0.972, abs=1e-12)

    def test_no_flag_one_mass_is_identity(self):
        inst = make_instance(5, 0, 0.9, 0.0)
        state = init_state(inst)
        after = apply_amplification(state)
        assert np.array_equal(after.w1, state.w1)
        assert np.array_equal(after.w0, state.w0)

    def test_rejects_denormalized_state(self):
        inst = make_instance(4, 1, 0.9, 0.1)
        state = init_state(inst)
        bad = type(state)(w1=state.w1, w0=np.zeros_like(state.w0))
        with pytest.raises(InvariantError):
            apply_amplification(bad)

    def test_rejects_a_nan_mass(self):
        # abs(nan - 1) > tol is False, so only a check that NaN fails catches it.
        state = StructuredState._adopt(np.array([np.nan, 0.0]), np.array([0.0, 0.5]))
        with pytest.raises(InvariantError, match="not normalized"):
            apply_amplification(state)

    @given(relaxed_instances(), st.integers(0, 4))
    @settings(max_examples=60)
    def test_componentwise_rotation(self, inst, rounds):
        # post-state = sin(3t) (flag-1 part / sin t) + cos(3t) (flag-0 part / cos t),
        # so class by class the flag-1 mass scales by (sin 3t / sin t)^2 and
        # the flag-0 mass by (cos 3t / cos t)^2.
        state, _ = build_state(inst, rounds)
        _, _, theta, _ = state_stats(state, inst)
        after = apply_amplification(state)
        g1 = 3.0 - 4.0 * math.sin(theta) ** 2
        g0 = 1.0 - 4.0 * math.sin(theta) ** 2
        assert after.w1.shape == after.w0.shape == (len(inst.classes),)
        assert after.w1 == pytest.approx(state.w1 * g1**2, abs=1e-12)
        assert after.w0 == pytest.approx(state.w0 * g0**2, abs=1e-12)

    @given(strict_instances(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_norm_preserved(self, inst, rounds):
        state, _ = build_state(inst, rounds)
        after = apply_amplification(state)
        assert abs(total_mass(after) - 1.0) <= 1e-12

    @given(strict_instances(require_solution=True))
    @settings(max_examples=60)
    def test_double_application_composes_angles(self, inst):
        # Each application rotates by twice the current angle, so two of
        # them take theta to 9 theta: amplitudes scale by sin(9t)/sin(t)
        # on flag 1 and cos(9t)/cos(t) on flag 0, masses by their squares.
        state = init_state(inst)
        _, _, theta, _ = state_stats(state, inst)
        twice = apply_amplification(apply_amplification(state))
        scale1 = (3 - 4 * math.sin(theta) ** 2) * (3 - 4 * math.sin(3 * theta) ** 2)
        scale0 = (1 - 4 * math.sin(theta) ** 2) * (1 - 4 * math.sin(3 * theta) ** 2)
        expected = state.w1 * scale1**2
        assert twice.w1 == pytest.approx(expected, abs=1e-10)
        assert twice.w0 == pytest.approx(state.w0 * scale0**2, abs=1e-10)
        if math.sin(theta) > 1e-12:
            assert expected == pytest.approx(
                state.w1 * (math.sin(9 * theta) / math.sin(theta)) ** 2, abs=1e-9
            )
