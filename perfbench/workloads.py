"""Seeded operation pools for the benchmark workloads.

A pool is a fixed list of operations generated from ``(workload, seed)``
alone; the benchmark cycles through it in order, one operation at a
time. Sizes and other cost-driving parameters are stratified over the
pool, so the seed changes the inputs without changing the pool's total
work much, which keeps throughput comparable across seeds.

Each operation is a ``(kind, spec)`` pair of plain data. ``digest``
hashes every spec, so two runs can show that they timed identical
inputs. Run as a script, it generates and builds one pool and prints
its digest; the benchmark times that from a fresh interpreter as its
set-up::

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED

``build`` turns a spec into library objects (part of set-up) and
``execute`` makes the timed call into ``besearch``, always through a
module attribute so that the tracer's patches are seen.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

import besearch
import besearch.cli
import besearch.oracles

WORKLOADS = ("search_mc", "wide_state", "huge_n", "oracle_suite")

SEARCH_POOL = 1000
ANDOR_EVERY = 10  # one operation in ten is an AND-OR tree evaluation
# Every depth-2 and depth-3 shape over fanouts {3, 9, 27}, cycled in turn.
TREE_SHAPES = tuple(itertools.chain(
    itertools.product((3, 9, 27), repeat=2), itertools.product((3, 9, 27), repeat=3)))
# Sizes keep operations near or below 50 ms and pools small enough that
# each input runs ten to thirty times in a 25-second run, so its upper-decile
# latency is not just its single slowest execution.
WIDE_POOL = 60
WIDE_CLASSES = (64, 512)
HUGE_M = (8, 40)  # n = 9^8 .. 9^40, about 4e7 .. 1.5e38
HUGE_COPIES = 2
ORACLE_POOL = 32
# Fewer dense scenarios and a smaller enumeration than the CLI defaults keep
# one check-facts call near 40 ms, so each input runs many times in a run.
ORACLE_ARGS = ("--scenarios", "40", "--max-r", "13")


@dataclass(frozen=True)
class Pool:
    specs: tuple  # ((kind, spec), ...) in execution order
    digest: str


def generate(workload: str, seed: int) -> Pool:
    """The operation pool of ``workload`` for ``seed`` (deterministic)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    specs = tuple(_GENERATORS[workload](rng))
    return Pool(specs, _digest(specs))


def _digest(specs) -> str:
    h = hashlib.sha256()
    for kind, spec in specs:
        h.update(json.dumps([kind, spec], sort_keys=True, default=_encode).encode())
    return "sha256:" + h.hexdigest()


def _encode(value):
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"cannot encode {type(value).__name__}")


def _seed32(rng) -> int:
    return int(rng.integers(0, 2**32))


def _two_class(rng, n: int) -> dict:
    return dict(
        n=n,
        t=int(rng.integers(0, 10)),
        p_good=float(rng.uniform(0.9, 1.0)),
        p_bad=float(rng.uniform(0.0, 0.1)),
        seed=_seed32(rng),
    )


def _search_mc(rng):
    ops = []
    for i in range(SEARCH_POOL):
        if i % ANDOR_EVERY == ANDOR_EVERY - 1:
            fanouts = list(TREE_SHAPES[(i // ANDOR_EVERY) % len(TREE_SHAPES)])
            depth = len(fanouts)
            leaves = int(np.prod(fanouts))
            bits = (rng.random(leaves) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            ops.append(("andor", dict(
                depth=depth, fanouts=fanouts,
                root=("OR", "AND")[int(rng.integers(0, 2))],
                bits=bits.tobytes(), seed=_seed32(rng),
            )))
        else:
            ops.append(("search", _two_class(rng, 9 ** (3 + i % 6))))
    return [ops[j] for j in rng.permutation(len(ops))]


def _wide_state(rng):
    lo, hi = WIDE_CLASSES
    ops = []
    for i in range(WIDE_POOL):
        k = lo + int((hi - lo) * (i + rng.random()) / WIDE_POOL)
        solution = rng.random(k) < rng.uniform(0.02, 0.2)
        solution[0] = True
        p = np.where(solution, rng.uniform(0.9, 1.0, k), rng.uniform(0.0, 0.1, k))
        counts = rng.integers(1, 1000, k)
        ops.append(("curve", dict(
            p=[float(x) for x in p], count=[int(x) for x in counts],
            solution=[bool(x) for x in solution], m=3 + i % 3,
        )))
    return [ops[j] for j in rng.permutation(len(ops))]


def _huge_n(rng):
    lo, hi = HUGE_M
    ops = []
    for m in [*range(lo, hi + 1)] * HUGE_COPIES:
        ops.append(("huge", dict(_two_class(rng, 9**m), m=m)))
    return [ops[j] for j in rng.permutation(len(ops))]


def _oracle_suite(rng):
    return [("check_facts", dict(seed=int(rng.integers(0, 2**31)))) for _ in range(ORACLE_POOL)]


_GENERATORS = dict(
    search_mc=_search_mc, wide_state=_wide_state, huge_n=_huge_n, oracle_suite=_oracle_suite
)


def build(kind: str, spec: dict):
    """Library arguments of one operation, made once during set-up."""
    if kind == "andor":
        gate = besearch.GATE_OR if spec["root"] == "OR" else besearch.GATE_AND
        return besearch.AndOrTree(spec["depth"], tuple(spec["fanouts"]), gate), spec["bits"]
    if kind == "check_facts":
        return ["check-facts", "--seed", str(spec["seed"]), *ORACLE_ARGS]
    if kind == "curve":
        return besearch.ProblemInstance(tuple(
            besearch.IndexClass(p=p, count=c, is_solution=s)
            for p, c, s in zip(spec["p"], spec["count"], spec["solution"])
        ))
    return besearch.make_instance(spec["n"], spec["t"], spec["p_good"], spec["p_bad"])


def execute(kind: str, spec: dict, built):
    """Run one operation; its return value is what the checks inspect."""
    if kind == "search":
        return besearch.run_search(built, spec["seed"])
    if kind == "andor":
        tree, bits = built
        return besearch.evaluate_quantum_sim(tree, bits, spec["seed"])
    if kind == "curve":
        return besearch.exact_success_curve(built, spec["m"])
    if kind == "huge":
        n = spec["n"]
        return (
            besearch.exact_success_curve(built, spec["m"]),
            besearch.full_sweep_cost(n),
            besearch.verification_repetitions(n),
            besearch.oracles.simple_search_cost(n),
            besearch.run_search(built, spec["seed"]),
        )
    if kind == "check_facts":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = besearch.cli.run_cli(built)
        return code, out.getvalue()
    raise ValueError(f"unknown operation kind {kind!r}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Generate and build one operation pool.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    pool = generate(args.workload, args.seed)
    for kind, spec in pool.specs:
        build(kind, spec)
    print(pool.digest)


if __name__ == "__main__":
    main()
