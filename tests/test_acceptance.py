"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All expected values were computed with the independent oracles
(exhaustive binomial enumeration, dense linear algebra, hand arithmetic)
and frozen here; all randomized checks use fixed seed sets and are
therefore deterministic.
"""
import functools
import math
import statistics

import numpy as np

from besearch import (
    AndOrTree,
    GATE_AND,
    GATE_OR,
    IndexClass,
    ProblemInstance,
    analytic_cost,
    build_state,
    ceil_log9,
    evaluate_classical,
    evaluate_quantum_cost,
    evaluate_quantum_sim,
    exact_cost_quantile,
    exact_outcome,
    exact_success_curve,
    full_sweep_cost,
    make_instance,
    run_block,
    run_search,
    schedule_for_round,
)
from besearch.cli import run_cli
from conftest import found_within
from besearch.oracles import run_fact_checks

SLACK = 1e-9

# Criterion 3's one-round instances: eight single indices, thirty pairs.
GATE_ROUND_GRID = [(p,) for p in (0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 0.95, 1.0)] + [
    (a, b) for a in (0.0, 0.1, 0.5, 0.9, 1.0) for b in (0.0, 0.05, 0.25, 0.75, 0.95, 1.0)
]

# Worst full-sweep cost per sqrt(n) over the grid below, recorded once.
K_RECORDED = 20000 / 3.0

FULL_SWEEP_GOLDEN = {
    9**1: 20000,
    9**2: 51000,
    9**3: 103000,
    9**4: 224000,
    9**5: 554000,
    9**6: 1511000,
    9**7: 4365000,
    9**8: 12858000,
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@functools.cache
def gate_facts():
    """The fact-check engine at the gate's sizes, run once per session."""
    checks = run_fact_checks(200, range(2, 17), 0, max_r=15, round_grid=GATE_ROUND_GRID)
    return {check.name: check for check in checks}


def test_criterion_1_rotation_oracle():
    check = gate_facts()["rotation-oracle"]
    report(1, check.ok, f"200 dense scenarios (dim 2-16, seeds 0-199): {check}")


def test_criterion_2_majority_oracle_and_schedule():
    gap, schedule = gate_facts()["majority-oracle"], gate_facts()["round-schedule"]
    report(2, gap.ok and schedule.ok, f"{gap}; {schedule}")


def test_criterion_3_structured_vs_dense():
    check = gate_facts()["round-crosscheck"]
    report(
        3,
        check.ok,
        f"one dense round vs structured engine (n <= 2, {len(GATE_ROUND_GRID)} "
        f"instances): {check}",
    )


def _inequality_suite(instances):
    """Round-by-round amplification/suppression bounds on exact traces."""
    checks = 0
    for inst in instances:
        n, t = inst.n, inst.t
        m_max = ceil_log9(n)
        rows = exact_success_curve(inst, m_max)
        alpha = [r.alpha for r in rows]
        beta = [r.beta for r in rows]
        theta = [r.theta for r in rows]
        a1 = alpha[0]
        for k in range(1, m_max + 1):
            g1 = 3.0 - 4.0 * math.sin(theta[k - 1]) ** 2
            grow = alpha[k - 1] * g1 * math.sqrt(1.0 - 2.0 ** -(k + 5))
            assert alpha[k] >= grow - SLACK, (inst, k, "alpha growth")
            assert beta[k] ** 2 <= 0.1 * (9 / 64) ** k + SLACK, (inst, k, "beta decay")
            checks += 2
        for m in range(1, m_max + 1):
            if t >= 1 and 9**m * t <= n:
                theta_sum = sum(theta[k - 1] ** 2 for k in range(1, m))
                assert theta_sum <= 2 * 9 ** (m - 1) * a1**2 + 0.25 + SLACK, (
                    inst, m, "theta sum")
                checks += 1
            rhs = a1 * 3 ** (m - 1) * (0.5 - 3 * 9 ** (m - 1) * a1**2)
            if rhs > 0:
                assert alpha[m] >= rhs - SLACK, (inst, m, "3^m growth")
                checks += 1
            if t >= 1 and n <= 9 ** (m + 1) * t and 9**m * t <= n:
                assert 3.0**-m / math.sqrt(10) - SLACK <= a1 <= 3.0**-m + SLACK, (
                    inst, m, "alpha1 interval")
                assert alpha[m] >= 0.04, (inst, m, "alpha_m floor")
                checks += 2
    return checks


def test_criterion_4_inequality_suite():
    instances = [make_instance(9**j, 1, 0.9, 0.1) for j in range(1, 8)]
    rng = np.random.default_rng(20260811)
    for j in range(1, 8):
        instances.append(
            make_instance(
                9**j, 1,
                float(rng.uniform(0.9, 1.0)),
                float(rng.uniform(0.0, 0.1)),
            )
        )
    for _ in range(10):
        classes = []
        for i in range(int(rng.integers(2, 5))):
            solution = bool(rng.integers(0, 2)) if i else True
            p = float(rng.uniform(0.9, 1.0)) if solution else float(rng.uniform(0.0, 0.1))
            classes.append(
                IndexClass(p=p, count=int(rng.integers(1, 60)), is_solution=solution)
            )
        instances.append(ProblemInstance(tuple(classes)))
    checks = _inequality_suite(instances)
    report(
        4,
        True,
        f"amplification/suppression inequality suite: {checks} bounds hold on "
        f"{len(instances)} strict instances (slack {SLACK:g})",
    )


def test_criterion_5_cost_accounting():
    expected = [1]  # C(m) by the paper's recursion, independent of the driver
    for k in range(1, 7):
        expected.append(3 * expected[-1] + schedule_for_round(k))
    assert expected[:5] == [1, 8, 31, 100, 309]
    for inst in (make_instance(81, 1, 0.9, 0.1), make_instance(9**5, 3, 0.95, 0.05)):
        for m in range(7):
            assert build_state(inst, m)[1] == expected[m]
            assert analytic_cost(m) == expected[m]
    growth = max(analytic_cost(m) / 3**m for m in range(21))
    assert growth <= 4.0  # measured 3.876
    ratios = {}
    for n, golden in FULL_SWEEP_GOLDEN.items():
        cost = full_sweep_cost(n)
        assert cost == golden, (n, cost, golden)
        ratios[n] = cost / math.sqrt(n)
    worst = max(ratios.values())
    assert worst == K_RECORDED  # regression-pinned, +-0%
    report(
        5,
        True,
        f"build cost == C(m) recursion (exact ints); C(m)/3^m <= {growth:.3f}; "
        f"full-sweep cost/sqrt(n) <= K = {K_RECORDED:.3f} over n = 9^1..9^8 (pinned)",
    )


def binomial_interval(trials: int, p: float, tail: float = 1e-6) -> tuple[int, int]:
    """The central interval [lo, hi] of Binomial(trials, p) whose two
    tails, P(X < lo) and P(X > hi), are each <= tail (exact, math.comb)."""
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    lo, hi = 0, trials
    while sum(pmf[: lo + 1]) <= tail:
        lo += 1
    while sum(pmf[hi:]) <= tail:
        hi -= 1
    return lo, hi


def test_criterion_6_monte_carlo_search():
    seeds = range(500)
    planted = make_instance(6561, 1, 0.9, 0.1)
    runs = [run_search(planted, s) for s in seeds]
    found = sum(run.outcome == "found" for run in runs)
    solutions = sum(run.outcome == "found" and planted.classes[run.found_class].is_solution
                    for run in runs)

    # t = 1 qualifies block m = 3 (t in [n/9^4, n/9^3]); run it isolated
    block_hits = 0
    for s in seeds:
        cid, _ = run_block(planted, 3, s)
        if cid is not None and planted.classes[cid].is_solution:
            block_hits += 1

    empty = make_instance(81, 0, 0.9, 0.1)
    none = sum(run_search(empty, s).outcome == "no_solutions" for s in seeds)

    # The exact route: each count lies in its binomial interval, and the
    # mean cost within 5 standard errors of the exact expectation.
    exact, exact_empty = exact_outcome(planted), exact_outcome(empty)
    # The cost within which a solution is found with chance 0.9; F(x) is that chance exactly.
    x = exact_cost_quantile(planted, 0.9)
    within = sum(run.outcome == "found" and planted.classes[run.found_class].is_solution
                 and run.total_cost <= x for run in runs)
    counts = (  # (what, seeded count, exact probability)
        ("found", found, 1.0 - exact.p_nothing),
        ("solution found", solutions, exact.p_found),
        (f"solution found within cost {x}", within, found_within(planted, x)),
        ("block m=3", block_hits, exact.block_found[3]),
        ("t=0 no_solutions", none, exact_empty.p_nothing),
    )
    intervals = [binomial_interval(500, p) for _, _, p in counts]
    inside = all(lo <= count <= hi for (_, count, _), (lo, hi) in zip(counts, intervals))
    costs = [run.total_cost for run in runs]
    z = (statistics.fmean(costs) - exact.expected_cost) / (statistics.stdev(costs) / math.sqrt(500))

    ok = found >= 375 and block_hits >= 375 and none >= 495 and inside and abs(z) <= 5
    exact_text = "; ".join(f"{what} p={p:.6g} in [{lo}, {hi}]"
                           for (what, _, p), (lo, hi) in zip(counts, intervals))
    report(
        6,
        ok,
        f"500 seeds: found {found}/500 (>= 375); qualifying block m=3 alone "
        f"{block_hits}/500 (>= 375, worst-case analytic bound ~0.798); "
        f"t=0 no_solutions {none}/500 (>= 495); exact: P(found) {exact.p_found:.6f}, "
        f"P(false accept) {exact.p_false_accept:.4g}, {exact_text}; mean cost "
        f"{statistics.fmean(costs):.1f} vs E[cost] {exact.expected_cost:.1f} (z = {z:.2f}, |z| <= 5)",
    )


def test_criterion_7_andor():
    rng = np.random.default_rng(17)
    big_bits = [int(b) for b in rng.integers(0, 2, size=6561)]
    rng5 = np.random.default_rng(5)
    deep_bits = [int(b) for b in rng5.integers(0, 2, size=729)]
    one_block = [0] * 81
    one_block[18:27] = [1] * 9
    battery = [
        (AndOrTree(1, (8,), GATE_OR), [0, 0, 0, 1, 0, 0, 0, 0]),
        (AndOrTree(2, (9, 9), GATE_OR), one_block),
        (AndOrTree(2, (9, 9), GATE_OR), [0] * 81),
        (AndOrTree(2, (81, 81), GATE_OR), big_bits),
        (AndOrTree(3, (9, 9, 9), GATE_AND), deep_bits),
        (AndOrTree(3, (9, 9, 9), GATE_OR), [0] * 729),
    ]
    rates = []
    for tree, bits in battery:
        truth = evaluate_classical(tree, bits)
        agree = sum(
            evaluate_quantum_sim(tree, bits, seed) == truth for seed in range(200)
        )
        rates.append(agree)
        assert agree >= 180, (tree, agree)

    q_ratios = [
        evaluate_quantum_cost(AndOrTree(2, (n, n), GATE_OR)) / n for n in (9, 27, 81)
    ]
    # full_sweep_cost(27) * ceil(pi/4 sqrt(27)) / 27, the largest of the three
    assert max(q_ratios) <= 1000 * (1 + 8 + 2 * 21) * 5 / 27 + 1e-9

    qs = [
        evaluate_quantum_cost(AndOrTree(d, fans, GATE_OR))
        for d, fans in ((1, (729,)), (2, (27, 27)), (3, (9, 9, 9)))
    ]
    growth = [qs[i + 1] / qs[i] for i in range(2)]
    assert all(g >= 2 for g in growth)
    report(
        7,
        True,
        f"sim vs classical >= 90% per invocation: {rates}/200 over {len(battery)} "
        f"trees (d <= 3, N <= 6561); Q(2-level)/sqrt(N) <= {max(q_ratios):.1f}; "
        f"Q depth-growth ratios {[f'{g:.0f}' for g in growth]}",
    )


def test_criterion_8_reproducibility(tmp_path, capsys):
    args = ["sweep", "--n", "9,81,729,6561", "--t", "1", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--csv", str(a)]) == 0
    assert run_cli(args + ["--csv", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report(
        8,
        identical and a.stat().st_size > 0,
        "identical config + seed produce byte-identical sweep CSV",
    )
