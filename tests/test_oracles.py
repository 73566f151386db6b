import functools
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import besearch.oracles
from besearch import IndexClass, ProblemInstance, full_sweep_cost, make_instance
from besearch.oracles import (
    MAJORITY_GRID,
    MAX_DENSE_DIM,
    MAX_ENUM_R,
    MAX_ROUND_DIM,
    PINNED_SCHEDULE,
    ROUND_GRID,
    ROUND_ONE_REPS,
    ROUND_TOL,
    SCENARIO_CHUNK,
    UnitarityError,
    amplification_residual,
    block_recursion_cost,
    dense_amplification_check,
    enumerate_majority,
    grover_operator,
    majority_oracle_gap,
    random_scenario,
    run_fact_checks,
    simple_search_cost,
    structured_vs_dense_round,
    unitary_with_first_column,
)


def relaxed(ps):
    classes = tuple(IndexClass(p=p, count=1, is_solution=p >= 0.5) for p in ps)
    return ProblemInstance(classes, strict=False)


# A dense scenario is the pair (unitary, flag_indices) that the dense
# oracles take; both check it before any matrix work.
DENSE_ORACLES = (grover_operator, amplification_residual)


class TestDenseScenario:
    def test_identity_unitary_zero_theta(self):
        # A|0> = e0 with e0 unflagged: theta = 0, S1 acts trivially and the
        # double sign cancels, so G A|0> = A|0> and the residual vanishes.
        a = np.eye(4, dtype=complex)
        assert np.array_equal(grover_operator(a, {1, 2}) @ a[:, 0], a[:, 0])
        assert amplification_residual(a, {1, 2}) <= 1e-14

    def test_rejects_non_unitary(self):
        for oracle in DENSE_ORACLES:
            with pytest.raises(UnitarityError):
                oracle(np.ones((3, 3), dtype=complex), {1})

    def test_rejects_improper_partition(self):
        for oracle in DENSE_ORACLES:
            with pytest.raises(ValueError):
                oracle(np.eye(3, dtype=complex), set())
            with pytest.raises(ValueError):
                oracle(np.eye(3, dtype=complex), {0, 1, 2})
            with pytest.raises(ValueError):
                oracle(np.eye(3, dtype=complex), {5})

    def test_rejects_non_numeric_unitary(self):
        for oracle in DENSE_ORACLES:
            with pytest.raises(ValueError, match="^unitary must be numeric"):
                oracle([["a", "b"], ["c", "d"]], {1})

    @pytest.mark.parametrize("rng", [[], None, 5, "rng"], ids=["empty", "None", "int", "str"])
    def test_random_unitary_names_a_bad_rng(self, rng):
        with pytest.raises(ValueError, match="^rng must"):
            besearch.oracles.random_unitary(4, rng)

    def test_random_unitary_checks_every_rng_before_drawing(self):
        first = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^rng must"):
            besearch.oracles.random_unitary(4, [first, 5])
        assert first.random() == np.random.default_rng(0).random()

    def test_rejects_oversized_dimension(self):
        for oracle in DENSE_ORACLES:
            with pytest.raises(ValueError):
                oracle(np.eye(128, dtype=complex), {1})

    def test_checks_run_before_any_matrix_work(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("matrix work before the scenario checks")

        monkeypatch.setattr(besearch.oracles, "_grover_matrix", no_matrix)
        for oracle in DENSE_ORACLES:
            with pytest.raises(UnitarityError):
                oracle(np.ones((3, 3), dtype=complex), {1})
            with pytest.raises(ValueError):
                oracle(np.eye(3, dtype=complex), {5})

    def test_dimension_checked_before_the_unitary_is_built(self, monkeypatch):
        calls = []

        def counting_unitary(dim, rngs):
            calls.append(dim)
            return np.array([np.eye(dim, dtype=complex)] * len(rngs))

        monkeypatch.setattr(besearch.oracles, "random_unitary", counting_unitary)
        for dim in (1, MAX_DENSE_DIM + 1):
            with pytest.raises(ValueError, match=r"^dim must lie in"):
                random_scenario(dim, 0)
            with pytest.raises(ValueError, match=r"^dim must lie in"):
                dense_amplification_check(dim, {0}, 0)
        assert calls == []
        random_scenario(4, 0)
        assert calls == [4]

    def test_seed_and_flags_checked_before_the_unitary_is_built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(besearch.oracles, "random_unitary",
                            lambda dim, rng: calls.append(dim))
        for bad in (None, 1.5, True, "7", -1):
            with pytest.raises(ValueError, match=r"^seed must"):
                random_scenario(4, bad)
            with pytest.raises(ValueError, match=r"^seed must"):
                random_scenario(4, [0, bad])
            with pytest.raises(ValueError, match=r"^seed must"):
                dense_amplification_check(4, {1}, bad)
        with pytest.raises(ValueError, match="at least one seed"):
            random_scenario(4, [])
        with pytest.raises(ValueError, match=r"^flag index must lie in \[0, 3\], got 9"):
            dense_amplification_check(4, {9}, 0)
        with pytest.raises(ValueError, match="nonempty and proper"):
            dense_amplification_check(4, {0, 1, 2, 3}, 0)
        assert calls == []

    @pytest.mark.parametrize("bad", (1.5, True, "1", None, np.float64(1.0)))
    def test_flag_index_must_be_an_integer(self, bad):
        a, _ = random_scenario(4, 0)
        for call in (*(lambda flags, o=o: o(a, flags) for o in DENSE_ORACLES),
                     lambda flags: dense_amplification_check(4, flags, 0)):
            with pytest.raises(ValueError, match=r"^flag index must be an integer"):
                call({2, bad})

    def test_flag_index_range_is_named_and_numpy_integers_pass(self):
        a, _ = random_scenario(4, 0)
        for oracle in DENSE_ORACLES:
            for bad in (-1, 4):
                with pytest.raises(ValueError, match=r"^flag index must lie in \[0, 3\]"):
                    oracle(a, {1, bad})
            assert np.array_equal(oracle(a, {np.int64(1), np.int8(3)}), oracle(a, {1, 3}))

    @pytest.mark.parametrize("shape", ((4, 3), (4,), (), (2, 4, 4, 4), (0, 4, 4), (3, 4, 5)))
    def test_rejects_shapes_that_are_not_square_matrices(self, shape):
        for oracle in DENSE_ORACLES:
            with pytest.raises(ValueError, match=r"^unitary must be a square matrix"):
                oracle(np.ones(shape, dtype=complex), {1})

    def test_stack_needs_one_flag_set_per_matrix(self):
        a, flags = random_scenario(4, [0, 1, 2])
        for oracle in DENSE_ORACLES:
            with pytest.raises(ValueError, match="needs 3 flag sets, got 2"):
                oracle(a, flags[:2])
            with pytest.raises(ValueError, match="^flag indices must be a collection"):
                oracle(a, {0, 1, 2})
            with pytest.raises(ValueError, match="^flag indices must be a collection"):
                oracle(a[0], 1)

    def test_random_scenario_is_a_proper_flag_set(self):
        for dim in (2, 4, 8, 16):
            a, flags = random_scenario(dim, seed=dim)
            assert a.shape == (dim, dim)
            assert 0 < len(flags) < dim and all(0 <= i < dim for i in flags)

    def test_seeded_check_is_deterministic(self):
        a = dense_amplification_check(8, {1, 3, 5}, seed=11)
        b = dense_amplification_check(8, {1, 3, 5}, seed=11)
        assert a == b

    def test_random_scenarios_tiny_residual(self):
        worst = 0.0
        for i in range(50):
            a, flags = random_scenario([2, 4, 8, 16][i % 4], seed=1000 + i)
            worst = max(worst, amplification_residual(a, flags))
        assert worst <= 1e-10

    def test_prescribed_flag_mass_point_three(self):
        # flag-1 mass w = 0.3 must amplify to w (3 - 4w)^2 = 0.972, tying
        # the dense oracle to the structured engine's closed form.
        psi = np.sqrt(np.array([0.35, 0.15, 0.35, 0.15], dtype=complex))
        a = unitary_with_first_column(psi)
        out = grover_operator(a, {1, 3}) @ psi
        mass = float(np.sum(np.abs(out[[1, 3]]) ** 2))
        assert mass == pytest.approx(0.972, abs=1e-12)
        assert amplification_residual(a, {1, 3}) <= 1e-12

    def test_grover_operator_equals_four_matrix_product(self):
        # Exact equality: the sign diagonals S0 and S1 only flip signs.
        for dim in range(2, 17):
            for seed in range(4):
                a, flags = random_scenario(dim, seed=3000 + 10 * dim + seed)
                s0 = np.eye(dim, dtype=complex)
                s0[0, 0] = -1.0
                s1 = np.eye(dim, dtype=complex)
                for i in flags:
                    s1[i, i] = -1.0
                assert np.array_equal(grover_operator(a, flags), -(a @ s0 @ a.conj().T @ s1))

    def test_completion_handles_zero_leading_component(self):
        psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        u = unitary_with_first_column(psi)
        assert np.allclose(u[:, 0], psi)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_stacked_completions_equal_one_at_a_time(self):
        rng = np.random.default_rng(7)
        psis = np.abs(rng.standard_normal((5, 6)))
        psis[1, 0] = 0.0
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        stacked = unitary_with_first_column(psis)
        assert stacked.shape == (5, 6, 6)
        for u, psi in zip(stacked, psis):
            assert np.array_equal(u, unitary_with_first_column(psi))
        bad = psis.copy()
        bad[3] *= 2.0  # not a unit vector: its completion cannot reproduce it
        with pytest.raises(UnitarityError, match="prescribed column"):
            unitary_with_first_column(bad)


def one_at_a_time(scenarios, dims, seed):
    """Scenario i's residual computed alone, as in run_fact_checks' order."""
    return [amplification_residual(*random_scenario(dims[i % len(dims)], seed + i))
            for i in range(scenarios)]


def reference_scenario(dim, seed):
    """One scenario drawn matrix by matrix: two Gaussian draws, QR, phase
    fix, then the flag set."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    size = int(rng.integers(1, dim))
    flags = frozenset(int(i) for i in rng.choice(dim, size=size, replace=False))
    return q * (d / np.abs(d)), flags


def reference_residual(a, flags):
    """The 3-theta residual of one scenario, one numpy call per step."""
    mask = np.zeros(len(a), dtype=bool)
    mask[list(flags)] = True
    s0 = np.ones(len(a))
    s0[0] = -1.0
    psi = a[:, 0]
    out = -(((a * s0) @ a.conj().T) * np.where(mask, -1.0, 1.0)) @ psi
    theta = math.asin(min(1.0, math.sqrt(min(1.0, float(np.sum(np.abs(psi[mask]) ** 2))))))

    def normalized_part(m):
        part = np.where(m, psi, 0.0)
        norm = np.linalg.norm(part)
        return part / norm if norm > 0.0 else part

    target = (math.sin(3 * theta) * normalized_part(mask)
              + math.cos(3 * theta) * normalized_part(~mask))
    overlap = np.vdot(target, out)
    if abs(overlap) > 0.0:
        out = out * (abs(overlap) / overlap)
    return float(np.linalg.norm(out - target))


class TestStackedScenarios:
    """A stack of scenarios gives, bit for bit, what each scenario gives
    alone, and that is what the matrix-by-matrix reference gives."""

    # (scenarios, dims): dims 2..16; duplicated dims; a count that is not a
    # multiple of the number of dims; one scenario; fewer scenarios than dims.
    CASES = ((30, tuple(range(2, 17))), (7, (4, 4, 9)), (10, (2, 4, 8)), (1, (4,)),
             (2, (16, 2, 5)))

    @staticmethod
    def stacks(scenarios, dims):
        """Scenario indices by dimension, as run_fact_checks groups them."""
        stacks = {}
        for i in range(scenarios):
            stacks.setdefault(dims[i % len(dims)], []).append(i)
        return stacks

    @pytest.mark.parametrize("scenarios, dims", CASES)
    def test_stacked_residuals_equal_one_at_a_time(self, scenarios, dims):
        seed = 500
        alone = one_at_a_time(scenarios, dims, seed)
        assert alone == [reference_residual(*reference_scenario(dims[i % len(dims)], seed + i))
                         for i in range(scenarios)]
        for dim, members in self.stacks(scenarios, dims).items():
            stacked = amplification_residual(*random_scenario(dim, [seed + i for i in members]))
            assert stacked.tolist() == [alone[i] for i in members]
        rotation = run_fact_checks(scenarios, dims, seed, 1, round_grid=((0.0,),))[0]
        assert rotation.value == max(alone)
        assert rotation.detail.endswith(f"over {scenarios} scenarios")

    def test_chunks_of_a_dimension_give_the_same_residuals(self, monkeypatch):
        # 11 scenarios over (4, 9): stacks of 6 and 5 cut into chunks of at
        # most 2; the maximum is the one every scenario alone gives.
        sizes = []
        residuals = besearch.oracles._residuals

        def recorded(a, masks):
            sizes.append(len(a))
            return residuals(a, masks)

        monkeypatch.setattr(besearch.oracles, "SCENARIO_CHUNK", 2)
        monkeypatch.setattr(besearch.oracles, "_residuals", recorded)
        rotation = run_fact_checks(11, (4, 9), 500, 1, round_grid=((0.0,),))[0]
        assert sizes == [2, 2, 2, 2, 2, 1]
        assert rotation.value == max(one_at_a_time(11, (4, 9), 500))

    def test_memory_is_bounded_by_the_chunk(self):
        # Unchunked, 300 scenarios of dimension 64 take about 0.4 MB each
        # (over 100 MB); a chunk of SCENARIO_CHUNK takes about 25 MB.
        assert SCENARIO_CHUNK <= 64
        tracemalloc.start()
        try:
            run_fact_checks(300, (64,), 0, 1, round_grid=((0.0,),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("dim", (2, 5, 16))
    def test_stacked_draws_and_grover_equal_one_at_a_time(self, dim):
        seeds = [3, 1, 4, 1, 5]
        a, flags = random_scenario(dim, seeds)
        assert a.shape == (len(seeds), dim, dim) and len(flags) == len(seeds)
        g = grover_operator(a, flags)
        for j, seed in enumerate(seeds):
            a_j, flags_j = random_scenario(dim, seed)
            assert np.array_equal(a[j], a_j) and flags[j] == flags_j
            ref_a, ref_flags = reference_scenario(dim, seed)
            assert np.array_equal(a_j, ref_a) and flags_j == ref_flags
            assert np.array_equal(g[j], grover_operator(a_j, flags_j))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        assert np.array_equal(
            besearch.oracles.random_unitary(dim, rngs),
            [besearch.oracles.random_unitary(dim, np.random.default_rng(s)) for s in seeds])

    def test_one_non_unitary_matrix_in_the_stack_raises(self):
        a, flags = random_scenario(6, range(5))
        a[2] = np.ones((6, 6))
        for oracle in DENSE_ORACLES:
            with pytest.raises(UnitarityError, match="^A deviates"):
                oracle(a, flags)


# float.hex of structured_vs_dense_round on each ROUND_GRID tuple, as
# recorded from the construction that formed E1 as one dense matrix and
# multiplied the whole state by it.
ROUND_GRID_HEX = {
    (0.0,): "0x0.0p+0",
    (0.3,): "0x1.0000000000000p-51",
    (1.0,): "0x0.0p+0",
    (0.9, 0.1): "0x1.8000000000000p-52",
    (1.0, 0.0): "0x1.4000000000000p-51",
    (0.75, 0.25): "0x1.4000000000000p-52",
    (0.5, 0.5): "0x1.4000000000000p-53",
}


class TestStructuredVsDense:
    def test_round_grid_bit_identity(self):
        got = {ps: structured_vs_dense_round(relaxed(ps)).hex() for ps in ROUND_GRID}
        assert got == ROUND_GRID_HEX
        # The whole grid as one stack gives each instance's float.
        batch = [relaxed(ps) for ps in ROUND_GRID]
        stacked = structured_vs_dense_round(batch)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(ROUND_GRID),)
        assert [x.hex() for x in stacked.tolist()] == [got[ps] for ps in ROUND_GRID]
        assert structured_vs_dense_round(tuple(batch)).tolist() == stacked.tolist()

    def test_dimension_cap_in_linear_memory(self):
        # A dense E1 at the cap is a 16384^2 float64 matrix (2 GiB), and its
        # unitarity check forms another; the blocks take a few MiB.
        inst = make_instance(128, 1, 0.9, 0.1)
        assert 2 * inst.n * 2 ** (ROUND_ONE_REPS + 1) == MAX_ROUND_DIM
        tracemalloc.start()
        try:
            deviation = structured_vs_dense_round(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation <= ROUND_TOL
        assert peak < 64 * 2**20

    def test_promise_pair(self):
        assert structured_vs_dense_round(relaxed((0.9, 0.1))) <= 1e-9

    def test_deterministic_single_subroutine(self):
        assert structured_vs_dense_round(relaxed((1.0,))) == 0.0

    def test_perfect_pair_masses(self):
        assert structured_vs_dense_round(relaxed((1.0, 0.0))) <= 1e-12

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_probability_grid(self, ps):
        assert structured_vs_dense_round(relaxed(ps)) <= 1e-9

    def test_non_unitary_vote_block_is_caught(self, monkeypatch):
        # E1 is built in real arithmetic; its unitarity check must still fire.
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        monkeypatch.setattr(besearch.oracles, "_rotation", lambda p: shear)
        with pytest.raises(UnitarityError, match="E1"):
            structured_vs_dense_round(relaxed((0.9, 0.1)))

    @pytest.mark.parametrize("bad_p", [0.1, 0.9])
    def test_every_distinct_vote_block_is_checked(self, monkeypatch, bad_p):
        rotation = besearch.oracles._rotation
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        monkeypatch.setattr(
            besearch.oracles, "_rotation", lambda p: shear if p == bad_p else rotation(p)
        )
        with pytest.raises(UnitarityError, match="E1"):
            structured_vs_dense_round(relaxed((0.9, 0.1, 0.1)))

    @given(st.lists(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=2),
                    min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_stack_equals_one_at_a_time(self, grid):
        alone = [structured_vs_dense_round(relaxed(ps)) for ps in grid]
        assert structured_vs_dense_round([relaxed(ps) for ps in grid]).tolist() == alone

    @pytest.mark.parametrize("bad_p", sorted({p for ps in ROUND_GRID for p in ps}))
    def test_every_vote_block_of_a_stack_is_checked(self, monkeypatch, bad_p):
        rotation = besearch.oracles._rotation
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        monkeypatch.setattr(
            besearch.oracles, "_rotation", lambda p: shear if p == bad_p else rotation(p)
        )
        with pytest.raises(UnitarityError, match="E1"):
            structured_vs_dense_round([relaxed(ps) for ps in ROUND_GRID])

    @pytest.mark.parametrize("bad", ([], (), None, relaxed((0.5,)).classes, [relaxed((0.5,)), 3]))
    def test_rejects_what_is_not_instances(self, bad):
        with pytest.raises(ValueError, match="^instances must be"):
            structured_vs_dense_round(bad)

    def test_resource_guard(self):
        big = make_instance(129, 0, 0.9, 0.1)
        with pytest.raises(ValueError):
            structured_vs_dense_round(big)

    @staticmethod
    def reference_vote_block(p):
        """R(p)^(x)5 (x) I folded with np.kron, then an explicit permutation
        matrix that flips the output qubit where the votes hold a majority."""
        s, c = math.sqrt(p), math.sqrt(1.0 - p)
        votes = functools.reduce(np.kron, [np.array([[c, -s], [s, c]])] * ROUND_ONE_REPS
                                 + [np.eye(2)])
        perm = np.zeros(votes.shape)
        for b in range(len(votes) // 2):
            majority = int(bin(b).count("1") * 2 > ROUND_ONE_REPS)
            for out in (0, 1):
                perm[2 * b + (out ^ majority), 2 * b + out] = 1.0
        return perm @ votes

    def assert_blocks_equal_reference(self, ps):
        blocks = besearch.oracles._vote_blocks(np.array(ps))
        assert blocks.shape == (len(ps), 64, 64)
        for block, p in zip(blocks, ps):
            reference = self.reference_vote_block(p)
            assert np.array_equal(block, reference), p
            assert block[:, 0].tobytes() == reference[:, 0].tobytes(), p

    def test_vote_blocks_equal_kron_and_permutation(self):
        self.assert_blocks_equal_reference(sorted({p for ps in ROUND_GRID for p in ps}))

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=70))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_vote_blocks_equal_kron_and_permutation(self, ps):
        self.assert_blocks_equal_reference(ps)

    @staticmethod
    def distinct_p_batch(instances):
        """Two-index relaxed instances whose 2 * instances p are all distinct."""
        return [relaxed(((2 * i + 0.5) / (2 * instances), (2 * i + 1.5) / (2 * instances)))
                for i in range(instances)]

    def test_vote_block_chunks_give_the_same_deviations(self, monkeypatch):
        batch = self.distinct_p_batch(20)
        whole = structured_vs_dense_round(batch)
        monkeypatch.setattr(besearch.oracles, "SCENARIO_CHUNK", 3)
        assert structured_vs_dense_round(batch).tolist() == whole.tolist()

    def test_vote_block_memory_is_bounded_by_the_chunk(self):
        # 1 000 distinct p as one stack of 64 x 64 blocks take 32 MB per
        # array of the build (over 60 MiB traced); a chunk of
        # SCENARIO_CHUNK takes about 8 MiB.
        assert SCENARIO_CHUNK <= 64
        batch = self.distinct_p_batch(500)
        tracemalloc.start()
        try:
            deviations = structured_vs_dense_round(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(deviations) <= ROUND_TOL
        assert peak < 24 * 2**20

    def test_singleton_instances_are_not_expanded(self, monkeypatch):
        calls = []
        expand = besearch.oracles.expand_classes

        def counted(instance):
            calls.append(instance.n)
            return expand(instance)

        monkeypatch.setattr(besearch.oracles, "expand_classes", counted)
        singles = [relaxed(ps) for ps in ROUND_GRID]
        grouped = make_instance(3, 1, 0.9, 0.1)
        deviations = structured_vs_dense_round([*singles, grouped])
        assert calls == [3]
        assert deviations[-1] == structured_vs_dense_round(expand(grouped))
        assert deviations[:-1].tolist() == structured_vs_dense_round(singles).tolist()

    def test_cap_checked_before_the_instance_is_expanded(self, monkeypatch):
        # Expanding builds one class per index, linear in n: a rejected n
        # must not pay for it. An expansion past the cap fails at once
        # instead of running, so a regression cannot build 10^9 classes.
        calls = []
        expand = besearch.oracles.expand_classes

        def counted(instance):
            calls.append(instance.n)
            if instance.n > 128:
                raise AssertionError(f"expanded n = {instance.n} before the cap check")
            return expand(instance)

        monkeypatch.setattr(besearch.oracles, "expand_classes", counted)
        for n in (129, 4 * 10**5, 10**9):
            with pytest.raises(ValueError, match="exceeds"):
                structured_vs_dense_round(make_instance(n, 1, 0.9, 0.1))
        assert calls == []
        structured_vs_dense_round(make_instance(128, 1, 0.9, 0.1))
        assert calls == [128]

    @pytest.mark.parametrize("where", (0, 2, 4))
    def test_every_cap_checked_before_any_instance_is_expanded(self, monkeypatch, where):
        calls = []
        expand = besearch.oracles.expand_classes

        def counted(instance):
            calls.append(instance.n)
            return expand(instance)

        monkeypatch.setattr(besearch.oracles, "expand_classes", counted)
        batch = [relaxed(ps) for ps in ROUND_GRID[:4]]
        batch.insert(where, make_instance(10**9, 1, 0.9, 0.1))
        with pytest.raises(ValueError, match="exceeds"):
            structured_vs_dense_round(batch)
        assert calls == []


class TestSimpleSearchCost:
    def test_n_100_golden(self):
        # ceil(pi/4 * 10) = 8 iterations, each boosted to error 1e-4
        r = 1
        while enumerate_majority(r, 0.1) > 1e-4:
            r += 2
        assert r == 13
        assert simple_search_cost(100) == 8 * 13

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            simple_search_cost(1)

    def test_costs_equal_the_recorded_digest(self):
        # n = 10^2 .. 10^143 recorded when each cost came from its own
        # memoized scan from r = 1; past that the float majority table then
        # in use was inexact (0.0 from r = 647), so the rest was recorded
        # from the integer-exact table, whose counts the next test checks.
        costs = [simple_search_cost(10**e) for e in range(2, 301)]
        assert costs[:3] == [104, 475, 1817]
        assert hashlib.sha256(repr(costs[:142]).encode()).hexdigest() == (
            "cf8e56ba2aaaf88c553079373fa692ad84e5631f6e448875101b668a25fc62aa"
        )
        assert hashlib.sha256(repr(costs).encode()).hexdigest() == (
            "5ae3360717436a8efc608f3f46cf7f24bd41c5d9faeb711c4a6a08b5953b5ca2"
        )

    @pytest.mark.parametrize("e, reps", [
        (143, 645), (144, 651), (145, 655), (150, 677), (200, 903), (300, 1353),
    ])
    def test_tiny_budgets_price_the_exact_repetitions(self, e, reps):
        # The budget 1/(100 n) is below 1e-145 from n = 10^144 on. reps is
        # the first odd r whose exact majority error, an integer sum over
        # 10^r rounded once, is within the float budget.
        def error(r):
            return sum(math.comb(r, j) * 9 ** (r - j) for j in range(r // 2 + 1, r + 1)) / 10**r

        budget = 1.0 / (100 * 10**e)
        assert error(reps) <= budget < error(reps - 2)
        assert simple_search_cost(10**e) == math.ceil(math.pi / 4 * math.sqrt(10**e)) * reps

    def test_sqrt_n_log_n_envelope(self):
        ratios = [
            simple_search_cost(n) / (math.sqrt(n) * math.log2(n))
            for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
        ]
        assert min(ratios) >= 0.3
        assert max(ratios) <= 3.0

    def test_gap_to_interleaved_grows_like_log(self):
        ns = [9**j for j in range(2, 9)]
        ratios = [simple_search_cost(n) / full_sweep_cost(n) for n in ns]
        assert ratios == sorted(ratios)
        # least-squares slope of ratio against log(n) is positive
        xs = [math.log(n) for n in ns]
        xbar = sum(xs) / len(xs)
        ybar = sum(ratios) / len(ratios)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ratios)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        assert slope > 0


class TestBlockRecursionCost:
    def test_base_case(self):
        assert block_recursion_cost(64) == 64

    def test_first_recursive_value(self):
        # b = 49, T(49) = 49, 49 * ceil(sqrt(65/49)) + 7
        assert block_recursion_cost(65) == 105

    def test_power_of_two(self):
        # b = 100; T(100) = 49*2 + 7 = 105; 105*4 + 10
        assert block_recursion_cost(1024) == 430

    def test_slow_growth_over_powers_of_four(self):
        # T(n)/sqrt(n) is NOT bounded by its first value: it bumps every
        # time the recursion gains a level (the c^(log* n) factor), with
        # a decaying sawtooth in between. Recorded max over this window
        # is 16.473 at 2^20; within the final cycle it decreases.
        values = [
            block_recursion_cost(4**k) / math.sqrt(4**k) for k in range(5, 21)
        ]
        print("block-recursion T(n)/sqrt(n):", [round(v, 3) for v in values])
        assert max(values) <= 17.0
        tail = values[-5:]
        assert all(a > b for a, b in zip(tail, tail[1:]))


def loop_majority(r, p):
    """Reference: a plain sequential sum over all 2^r outcome strings."""
    total = 0.0
    for outcome in range(2**r):
        ones = bin(outcome).count("1")
        if ones * 2 > r:
            total += p**ones * (1.0 - p) ** (r - ones)
    return total


class TestEnumerationOracle:
    @pytest.mark.parametrize("r", range(1, 14, 2))
    def test_equals_sequential_loop(self, r):
        # Exact equality: summing the same terms in another order (numpy's
        # pairwise np.sum, say) changes the last bits and fails here.
        rng = random.Random(r)
        ps = [0.0, 0.1, 0.5, 0.9, 1.0, 1.0 - 2.0**-53] + [rng.random() for _ in range(4)]
        for p in ps:
            assert enumerate_majority(r, p) == loop_majority(r, p), p

    def test_single_run(self):
        assert enumerate_majority(1, 0.3) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("r", range(1, MAX_ENUM_R + 1, 2))
    def test_grid_equals_one_p_at_a_time(self, r):
        # The grid's rows are accumulated together (in passes at large r);
        # each sum is still the float its p alone gives.
        rng = random.Random(r)
        ps = [*MAJORITY_GRID, 1.0 - 2.0**-53, *(rng.random() for _ in range(4))]
        got = enumerate_majority(r, ps)
        assert isinstance(got, np.ndarray) and got.shape == (len(ps),)
        assert got.tolist() == [enumerate_majority(r, p) for p in ps]
        assert enumerate_majority(r, tuple(ps[:1])).tolist() == [enumerate_majority(r, ps[0])]

    def test_grid_at_the_cap_in_bounded_memory(self):
        # 7 rows of 2^20 terms would take 59 MB, and a second array for the
        # running sums as much again. One row per pass, summed in place,
        # peaks at about 16 MB: this pass's row and the last one's.
        enumerate_majority(MAX_ENUM_R, 0.5)  # the cached popcounts are built outside the trace
        tracemalloc.start()
        try:
            enumerate_majority(MAX_ENUM_R, MAJORITY_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("bad", ([], [0.5, True], [0.5, "0.9"], (0.5, 1.5), [math.nan]))
    def test_grid_entries_are_checked(self, bad):
        with pytest.raises(ValueError, match="^p must"):
            enumerate_majority(5, bad)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            enumerate_majority(2, 0.5)

    def test_rejects_r_past_cap(self):
        # The cached popcount table doubles with each step of r.
        with pytest.raises(ValueError, match=rf"^r must lie in \[1, {MAX_ENUM_R}\], got"):
            enumerate_majority(MAX_ENUM_R + 2, 0.5)

    def test_gap_bounds_repetitions(self):
        assert majority_oracle_gap(1) <= 1e-15
        for max_r in (0, MAX_ENUM_R + 1):
            with pytest.raises(ValueError):
                majority_oracle_gap(max_r)


class TestScheduleOracle:
    """The round-schedule check reads r_1, r_2, r_3 off one scan of odd r."""

    @staticmethod
    def enumerations(monkeypatch, *args, **kwargs):
        """Every (r, p) that run_fact_checks(*args, **kwargs) enumerates, in
        order, and its records."""
        calls = []
        enumerate_once = besearch.oracles.enumerate_majority

        def counting(r, p):
            calls.append((r, p))
            return enumerate_once(r, p)

        monkeypatch.setattr(besearch.oracles, "enumerate_majority", counting)
        return calls, run_fact_checks(*args, **kwargs)

    def test_one_enumeration_per_r(self, monkeypatch):
        calls, checks = self.enumerations(monkeypatch, 40, (2, 4, 8, 16), 0, 13)
        # The majority gap's odd r <= 13 over the grid; the scan reads r = 1..7
        # from the grid's p = 0.1 column and enumerates nothing at 0.1 alone.
        assert calls == [(r, MAJORITY_GRID) for r in range(1, 14, 2)]
        assert checks[2].ok and checks[2].value == PINNED_SCHEDULE

    @pytest.mark.parametrize("max_r", (1, 3, 5))
    def test_scan_enumerates_only_r_past_max_r(self, monkeypatch, max_r):
        calls, _ = self.enumerations(monkeypatch, 1, (4,), 0, max_r, round_grid=((0.0,),))
        assert calls == ([(r, MAJORITY_GRID) for r in range(1, max_r + 1, 2)]
                         + [(r, 0.1) for r in range(max_r + 2, 8, 2)])

    def test_scan_goes_past_max_r(self):
        schedule = run_fact_checks(1, (4,), 0, 1, round_grid=((0.0,),))[2]
        assert schedule.ok
        assert schedule.detail == "r1,r2,r3 = (5, 7, 7) (oracle (5, 7, 7), expected (5, 7, 7))"


# sha256 of repr([(repr(value), ok, detail), ...]) over every record of
# run_fact_checks for each group of argument tuples, as recorded from the
# construction that built each vote block from five Kronecker products and
# a permutation-matrix product, validated each drawn flag set index by
# index, and enumerated the schedule scan's r at p = 0.1 on their own.
FACT_DIMS = (2, 4, 8, 16)
FACT_CHECK_GOLDEN = (
    # The benchmark's arguments (--scenarios 40 --max-r 13) at seeds 0..31.
    ([(40, FACT_DIMS, seed, 13) for seed in range(32)],
     "517d9bd3d75d0e05c96d9b67d969be0355d72e16a726a83ddb934d154989890a"),
    # check-facts' defaults.
    ([(200, FACT_DIMS, 0, 15)],
     "f04d7aa520ac9006c79f8d0a6aa37cd786f8ac7fdb87de660cbda338288adae0"),
    # The enumeration oracle at its r cap.
    ([(1, FACT_DIMS, 0, 21)],
     "950f1d6ab49ff5e9a06756f6dff789805f3f123b00946ee7280f571c8b34b00c"),
    # The dense oracle up to its dimension cap.
    ([(200, FACT_DIMS + (32, 64), 0, 15)],
     "33a9e892eb593b650334e86004c43030fc8e2dff92534fcd01b9a27ea38cf14f"),
)


@pytest.mark.parametrize("calls, digest", FACT_CHECK_GOLDEN)
def test_fact_check_records_golden(calls, digest):
    records = [(repr(check.value), check.ok, check.detail)
               for args in calls for check in run_fact_checks(*args)]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest
