import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from besearch import (
    AndOrTree,
    GATE_AND,
    GATE_OR,
    dump_tree,
    evaluate_classical,
    evaluate_quantum_cost,
    evaluate_quantum_sim,
    full_sweep_cost,
    load_tree,
    parse_tree,
)
from besearch import driver


def reduce_oracle(tree: AndOrTree, bits) -> int:
    """Independent bottom-up evaluator: reduce the leaf array level by
    level, alternating gates upward from the deepest level."""
    values = [int(b) for b in bits]
    gates = []
    gate = tree.root_gate
    for _ in tree.fanouts:
        gates.append(gate)
        gate = GATE_AND if gate == GATE_OR else GATE_OR
    for level in range(tree.depth - 1, -1, -1):
        fan = tree.fanouts[level]
        gate = gates[level]
        grouped = [values[i : i + fan] for i in range(0, len(values), fan)]
        if gate == GATE_OR:
            values = [int(any(g)) for g in grouped]
        else:
            values = [int(all(g)) for g in grouped]
    assert len(values) == 1
    return values[0]


@st.composite
def small_trees(draw):
    depth = draw(st.integers(0, 3))
    fanouts = tuple(draw(st.integers(1, 3)) for _ in range(depth))
    gate = draw(st.sampled_from([GATE_OR, GATE_AND]))
    tree = AndOrTree(depth, fanouts, gate)
    bits = draw(
        st.lists(st.integers(0, 1), min_size=tree.n_leaves, max_size=tree.n_leaves)
    )
    return tree, bits


class TestClassical:
    def test_flat_or(self):
        tree = AndOrTree(1, (4,), GATE_OR)
        assert evaluate_classical(tree, [1, 0, 0, 0]) == 1
        assert evaluate_classical(tree, [0, 0, 0, 0]) == 0

    def test_two_level_all_ones(self):
        tree = AndOrTree(2, (3, 3), GATE_OR)
        assert evaluate_classical(tree, [1] * 9) == 1

    def test_depth_zero_is_variable(self):
        tree = AndOrTree(0, (), GATE_OR)
        assert evaluate_classical(tree, [1]) == 1
        assert evaluate_classical(tree, [0]) == 0

    @pytest.mark.parametrize("bits", (
        [1, 1, 0, 0],
        (True, True, False, False),
        np.array([1, 1, 0, 0], dtype=np.int8),
        np.array([1, 1, 0, 0], dtype=np.uint64),
        np.array([True, True, False, False]),
        b"\x01\x01\x00\x00",
        bytearray(b"\x00\x00\x01\x01"),
    ))
    def test_accepted_leaf_types(self, bits):
        # OR of two ANDs: exactly one AND sees two 1-leaves.
        tree = AndOrTree(2, (2, 2), GATE_OR)
        assert evaluate_classical(tree, bits) == 1
        leaves = "".join(str(int(b)) for b in bits)
        assert dump_tree(tree, bits).endswith(f"\nleaves {leaves}\n")
        assert evaluate_quantum_sim(tree, bits, seed=0) in (0, 1)

    @pytest.mark.parametrize("bits", (
        [1.5, 1, 0, 0],
        [1.5, 0.2, 0, 0],
        np.array([1.0, 0.0, 0.0, 0.0]),
        "1000",
        ["1", "0", "0", "0"],
        [2, 0, 0, 0],
        [1, -1, 0, 0],
        b"1000",
        [[1, 0], [0, 0]],
    ))
    def test_rejects_non_bit_leaves(self, bits):
        tree = AndOrTree(2, (2, 2), GATE_OR)
        for evaluate in (
            lambda: evaluate_classical(tree, bits),
            lambda: evaluate_quantum_sim(tree, bits, seed=0),
            lambda: dump_tree(tree, bits),
        ):
            with pytest.raises(ValueError, match="leaves must be bits"):
                evaluate()

    def test_size_mismatch(self):
        tree = AndOrTree(1, (4,), GATE_OR)
        with pytest.raises(ValueError):
            evaluate_classical(tree, [1, 0])
        with pytest.raises(ValueError):
            evaluate_classical(tree, [2, 0, 0, 0])

    def test_three_level_exhaustive_vs_oracle(self):
        tree = AndOrTree(3, (2, 2, 2), GATE_OR)
        for bits in itertools.product((0, 1), repeat=8):
            assert evaluate_classical(tree, bits) == reduce_oracle(tree, bits)

    def test_two_level_sixteen_leaves_exhaustive(self):
        tree = AndOrTree(2, (4, 4), GATE_AND)
        for packed in range(2**16):
            bits = [(packed >> i) & 1 for i in range(16)]
            assert evaluate_classical(tree, bits) == reduce_oracle(tree, bits)

    @given(small_trees())
    @settings(max_examples=150)
    def test_random_trees_vs_oracle(self, tree_bits):
        tree, bits = tree_bits
        assert evaluate_classical(tree, bits) == reduce_oracle(tree, bits)


class TestQuantumSim:
    def test_depth_zero_exact(self):
        tree = AndOrTree(0, (), GATE_OR)
        assert evaluate_quantum_sim(tree, [1], seed=0) == 1

    def test_depth_one_bounded_error(self):
        # one draw of the 9/10 promise box: deterministic with fixed
        # seeds, empirical rate ~0.9 (898/1000 at these seeds)
        tree = AndOrTree(1, (8,), GATE_OR)
        bits = [0, 0, 0, 1, 0, 0, 0, 0]
        agree = sum(
            evaluate_quantum_sim(tree, bits, seed) == 1 for seed in range(1000)
        )
        assert agree >= 870

    def test_single_witness_block(self):
        tree = AndOrTree(2, (9, 9), GATE_OR)
        bits = [0] * 81
        for i in range(9):
            bits[2 * 9 + i] = 1
        assert evaluate_classical(tree, bits) == 1
        agree = sum(evaluate_quantum_sim(tree, bits, seed) == 1 for seed in range(200))
        assert agree >= 180

    def test_all_zeros(self):
        tree = AndOrTree(2, (9, 9), GATE_OR)
        agree = sum(
            evaluate_quantum_sim(tree, [0] * 81, seed) == 0 for seed in range(200)
        )
        assert agree >= 180

    def test_and_root_via_de_morgan(self):
        tree = AndOrTree(2, (4, 4), GATE_AND)
        all_ones = [1] * 16
        one_zero_block = [1] * 16
        one_zero_block[4:8] = [0, 0, 0, 0]  # second OR child becomes 0
        assert evaluate_classical(tree, all_ones) == 1
        assert evaluate_classical(tree, one_zero_block) == 0
        hits1 = sum(
            evaluate_quantum_sim(tree, all_ones, seed) == 1 for seed in range(100)
        )
        hits0 = sum(
            evaluate_quantum_sim(tree, one_zero_block, seed) == 0 for seed in range(100)
        )
        assert hits1 >= 90 and hits0 >= 90

    def test_depth_three(self):
        rng = np.random.default_rng(5)
        tree = AndOrTree(3, (9, 9, 9), GATE_AND)
        bits = [int(b) for b in rng.integers(0, 2, size=729)]
        truth = evaluate_classical(tree, bits)
        agree = sum(
            evaluate_quantum_sim(tree, bits, seed) == truth for seed in range(100)
        )
        assert agree >= 90


    # Recorded when every node was evaluated recursively, one AndOrTree per
    # visited node: one digit per shape, in TREE_SHAPES order, per seed.
    GOLDEN = {
        0: "010001100010001010101010001010101010",
        1: "010001100010001000101010001010101000",
        2: "110101010010001010101010001010001010",
    }
    TREE_SHAPES = (
        list(itertools.product((3, 9, 27), repeat=2))
        + list(itertools.product((3, 9, 27), repeat=3))
    )

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_depth_two_and_three(self, seed):
        out = []
        for i, fanouts in enumerate(self.TREE_SHAPES):
            tree = AndOrTree(len(fanouts), fanouts, (GATE_OR, GATE_AND)[i % 2])
            rng = np.random.default_rng([seed, i])
            bits = (rng.random(tree.n_leaves) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            out.append(evaluate_quantum_sim(tree, bits.tobytes(), seed))
        assert "".join(map(str, out)) == self.GOLDEN[seed]


class TestQuantumCost:
    def test_depth_zero_single_query(self):
        assert evaluate_quantum_cost(AndOrTree(0, (), GATE_OR)) == 1

    def test_depth_one_grover_model(self):
        assert evaluate_quantum_cost(AndOrTree(1, (4,), GATE_OR)) == 2
        assert evaluate_quantum_cost(AndOrTree(1, (9,), GATE_AND)) == 3

    def test_two_level_goldens(self):
        # A root of fanout n costs 1000 * (C(0) + .. + C(blocks-1) + blocks * v(n))
        # with C(0) = 1, C(1) = 8, v(9) = 19, v(27) = v(81) = 21, times the
        # child's ceil(pi/4 sqrt(n)) = 3, 5, 8:
        # 9: 1000 * (1 + 19) * 3; 27 and 81: 1000 * (1 + 8 + 2 * 21) * 5 or 8.
        golden = {9: 60000, 27: 255000, 81: 408000}
        for n, q in golden.items():
            assert evaluate_quantum_cost(AndOrTree(2, (n, n), GATE_OR)) == q

    def test_two_level_sqrt_bound(self):
        ratios = [
            evaluate_quantum_cost(AndOrTree(2, (n, n), GATE_OR)) / n
            for n in (9, 27, 81)
        ]
        # The largest is n = 27: full_sweep_cost(27) * ceil(pi/4 sqrt(27)) / 27.
        assert max(ratios) <= 1000 * (1 + 8 + 2 * 21) * 5 / 27 + 1e-9

    @pytest.mark.parametrize("c", [1, 27])
    @pytest.mark.parametrize("f", [1, 9, 27, 81, 729])
    def test_node_cost_is_the_full_sweep(self, f, c):
        # A node charges what the driver charges for a search that finds nothing.
        expected = full_sweep_cost(f) * math.ceil(math.pi / 4 * math.sqrt(c))
        assert evaluate_quantum_cost(AndOrTree(2, (f, c), GATE_OR)) == expected

    def test_root_blocks_cost_one_pass(self, monkeypatch):
        # From an empty r_k table, C(0..39) of a fanout-9^40 node take 39
        # schedule lookups, not one rebuild of C(0..m) per block (780
        # lookups); each of the 40 blocks verifies its shots, so
        # verification adds 40 * v.
        expected, c = 1, 1
        for k in range(1, 40):
            c = 3 * c + driver.schedule_for_round(k)
            expected += c
        expected = 1000 * (expected + 40 * driver.verification_repetitions(9**40)) * 2
        calls, lookup = [], driver.schedule_for_round

        def counted(k):
            calls.append(k)
            return lookup(k)

        monkeypatch.setattr(driver, "schedule_for_round", counted)
        monkeypatch.setattr(driver, "_round_reps", [0])
        assert evaluate_quantum_cost(AndOrTree(2, (9**40, 4), GATE_OR)) == expected
        assert len(calls) == 39

    def test_bottom_fanouts_to_2_53_keep_their_price(self):
        rng = np.random.default_rng(53)
        fanouts = [1, 2, 3, 10**6, 2**52 + 1, 2**53 - 1, 2**53,
                   *(int(f) for f in rng.integers(1, 2**53, 20))]
        for f in fanouts:
            want = math.ceil(math.pi / 4 * math.sqrt(f))
            assert evaluate_quantum_cost(AndOrTree(1, (f,), GATE_OR)) == want

    def test_bottom_fanout_past_the_float_range(self):
        # math.sqrt(f) overflows for these f; sqrt(f) itself is a float.
        for f, root in ((10**400, 1e200), (9**479, 3.0**479)):
            want = math.ceil(math.pi / 4 * root)
            assert evaluate_quantum_cost(AndOrTree(1, (f,), GATE_OR)) == want
            tree = AndOrTree(2, (3, f), GATE_AND)
            assert evaluate_quantum_cost(tree) == full_sweep_cost(3) * want

    @pytest.mark.parametrize("f", (9**479 + 1, 10**500))
    def test_bottom_fanout_past_the_search_bound(self, f):
        # The bound every upper level's fanout already meets through full_sweep_cost.
        with pytest.raises(ValueError, match=r"^n must lie in \[1, 9\^479\]"):
            evaluate_quantum_cost(AndOrTree(1, (f,), GATE_OR))

    def test_depth_growth_geometric(self):
        qs = [
            evaluate_quantum_cost(AndOrTree(d, fans, GATE_OR))
            for d, fans in ((1, (729,)), (2, (27, 27)), (3, (9, 9, 9)))
        ]
        ratios = [qs[i + 1] / qs[i] for i in range(2)]
        assert all(r >= 2 for r in ratios)


class TestDeepTrees:
    # numpy arrays hold at most 64 dimensions (32 before numpy 2), and
    # Python's recursion stops near 1000 frames; neither bounds the depth.

    @pytest.mark.parametrize("gate", [GATE_OR, GATE_AND])
    def test_seventy_levels_evaluate(self, gate):
        tree = AndOrTree(70, (1,) * 30 + (2,) * 5 + (1,) * 35, gate)
        rng = np.random.default_rng(4)
        for _ in range(20):
            bits = rng.integers(0, 2, tree.n_leaves)
            assert evaluate_classical(tree, bits) == reduce_oracle(tree, bits)
        assert evaluate_quantum_sim(tree, bits, 0) in (0, 1)

    def test_cost_is_one_product_at_any_depth(self):
        q = evaluate_quantum_cost(AndOrTree(1200, (1,) * 1200, GATE_OR))
        assert type(q) is int and q == full_sweep_cost(1) ** 1199
        tree = AndOrTree(1200, (1,) * 1196 + (9, 1, 27, 16), GATE_AND)
        want = full_sweep_cost(1, 7) ** 1197 * full_sweep_cost(9, 7) * full_sweep_cost(27, 7) * 4
        assert evaluate_quantum_cost(tree, 7) == want  # ceil(pi/4 sqrt(16)) = 4


class TestTreeFiles:
    def test_round_trip(self):
        tree = AndOrTree(2, (3, 3), GATE_OR)
        bits = [0, 1, 0, 0, 0, 0, 1, 1, 0]
        parsed_tree, parsed_bits = parse_tree(dump_tree(tree, bits))
        assert parsed_tree == tree and parsed_bits == bits

    def test_comments_and_blanks(self):
        text = "# header\n\ndepth 1\nroot AND\nfanouts 2\n# trailing\nleaves 10\n"
        tree, bits = parse_tree(text)
        assert tree == AndOrTree(1, (2,), GATE_AND)
        assert bits == [1, 0]

    def test_depth_zero_file(self):
        tree, bits = parse_tree("depth 0\nroot OR\nleaves 1\n")
        assert tree.depth == 0 and bits == [1]

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "tree.txt"
        tree = AndOrTree(2, (2, 3), GATE_AND)
        bits = [1, 0, 1, 1, 1, 1]
        path.write_text(dump_tree(tree, bits))
        assert load_tree(path) == (tree, bits)

    @pytest.mark.parametrize(
        "text",
        [
            "root OR\nleaves 1\n",                      # missing depth
            "depth 1\nroot OR\nleaves 10\n",            # missing fanouts
            "depth 1\nroot XOR\nfanouts 2\nleaves 10\n",  # bad gate
            "depth 1\nroot OR\nfanouts 2\nleaves 1\n",  # wrong length
            "depth 1\nroot OR\nfanouts 2\nleaves ab\n",  # not a bitstring
            "depth 2\nroot OR\nfanouts 3 x\nleaves 111\n",  # bad fanout
            "depth x\nroot OR\nleaves 1\n",             # bad integer
            "depth 0\nroot OR\nleaves 1\ndepth 0\n",    # duplicate field
            "depth 1\nroot OR\nfanouts 2\nleaves 10\nleafs 1\n",  # unknown field
            "depth 0\nroot OR\nfanouts 3 3\nleaves 1\n",  # fanouts at depth 0
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_tree(text)

    def test_tree_validation(self):
        with pytest.raises(ValueError):
            AndOrTree(2, (3,), GATE_OR)
        with pytest.raises(ValueError):
            AndOrTree(1, (0,), GATE_OR)
        with pytest.raises(ValueError):
            AndOrTree(-1, (), GATE_OR)
        with pytest.raises(ValueError, match="no children"):
            AndOrTree(0, (), GATE_OR).child()
