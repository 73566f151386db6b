"""Span tracing of ``besearch`` from outside the package.

``Tracer.patch`` replaces each listed public function, by name, in every
``besearch`` module that binds it (``driver`` imports
``schedule_for_round`` directly, the package re-exports most names), and
restores the originals afterwards. A function that no longer exists is
reported as absent, and so is every metric that depends only on absent
functions.

Each wrapped call records a span -- operation id, span id, parent span,
name, start and end -- in memory. Self time is a span's duration minus
the time its child spans cover; it is accumulated as spans close, and
the first ``SPAN_CAP`` spans are kept for writing out at the end.
"""
from __future__ import annotations

import importlib
import math
import pkgutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import reference

SPAN_CAP = 50_000

# Function name -> span group. Groups are the layers' cost centres.
SPANNED = {
    **dict.fromkeys(
        ("make_instance", "expand_classes", "init_state", "total_mass", "state_stats",
         "measurement_weights"), "model"),
    **dict.fromkeys(("amplification_factors", "apply_amplification"), "amplification"),
    "apply_error_reduction": "pushback",
    **dict.fromkeys(("schedule_for_round", "repetitions_for"), "schedule"),
    "run_search": "sample_verify",
    **dict.fromkeys(
        ("analytic_cost", "full_sweep_cost", "verification_repetitions", "search_blocks",
         "ceil_log9"), "cost_model"),
    **dict.fromkeys(("build_state", "exact_success_curve", "run_block"), "driver"),
    **dict.fromkeys(
        ("evaluate_quantum_sim", "evaluate_classical", "evaluate_quantum_cost"), "andor"),
    **dict.fromkeys(
        ("random_unitary", "unitary_with_first_column", "random_scenario", "grover_operator",
         "amplification_residual", "dense_amplification_check", "structured_vs_dense_round"),
        "dense"),
    **dict.fromkeys(("enumerate_majority", "majority_oracle_gap"), "enumeration"),
    **dict.fromkeys(("simple_search_cost", "block_recursion_cost"), "baseline"),
    "run_cli": "cli",
}
# Called once per class per round: counted, not spanned, so its time
# stays with the caller (push-back or the repetition scan).
COUNTED = ("majority_prob",)
# Calls whose arguments and results feed count metrics.
RECORDED = ("run_search", "evaluate_quantum_sim", "enumerate_majority")


def _modules():
    import besearch

    names = sorted(m.name for m in pkgutil.iter_modules(besearch.__path__) if m.name != "__main__")
    return [besearch] + [importlib.import_module(f"besearch.{name}") for name in names]


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.records: defaultdict[str, list] = defaultdict(list)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    def patch(self) -> None:
        modules = _modules()
        for name in (*SPANNED, *COUNTED):
            originals = {
                id(fn): fn
                for mod in modules
                if callable(fn := getattr(mod, name, None))
                and getattr(fn, "__module__", "").startswith("besearch")
            }
            if not originals:
                self.absent.append(name)
            for fn in originals.values():
                wrapper = self._counter(name, fn) if name in COUNTED else self._span(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def unpatch(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn: Callable) -> Callable:
        record = self.records[name].append if name in RECORDED else None

        def spanned(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if record is not None:
                record((args, result))
            return result

        return spanned

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op_id, span_id, parent, name, start, end))
            else:
                self.dropped += 1

    def group_self_s(self, group: str) -> float:
        return math.fsum(self.self_s[name] for name, g in SPANNED.items() if g == group)

    def group_calls(self, group: str) -> int:
        return sum(self.calls[name] for name, g in SPANNED.items() if g == group)


def _names(group: str) -> tuple:
    return tuple(name for name, g in SPANNED.items() if g == group)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _searches(tr: Tracer):
    return [(args[0], result) for args, result in tr.records["run_search"]]


def _miss_rate(tr: Tracer) -> float:
    planted = [res for inst, res in _searches(tr) if inst.t > 0]
    return _ratio(sum(res.outcome == "no_solutions" for res in planted), len(planted))


def _false_accept_rate(tr: Tracer) -> float:
    searches = _searches(tr)
    wrong = sum(
        res.found_class is not None and not inst.classes[res.found_class].is_solution
        for inst, res in searches
    )
    return _ratio(wrong, len(searches))


def _agree_rate(tr: Tracer) -> float:
    evals = tr.records["evaluate_quantum_sim"]
    agree = sum(
        result == reference.tree_truth(dict(
            bits=bytes(bits), fanouts=tree.fanouts, depth=tree.depth, root=tree.root_gate))
        for (tree, bits, *_), result in evals
    )
    return _ratio(agree, len(evals))


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: its unit, the functions it reads, and what it should move."""

    name: str
    unit: str
    better: str
    sources: tuple
    moves: str
    value: Callable[[Tracer], float]


def _rows(tr: Tracer, key: str) -> int:
    return sum(getattr(row, key) for _, res in _searches(tr) for row in res.trace)


PER_LAYER = (
    LayerMetric("model.self_s", "s", "lower", _names("model"),
                "ops_per_s and peak_rss_mb on wide_state; ~0 on huge_n",
                lambda tr: tr.group_self_s("model")),
    LayerMetric("model.calls", "count", "lower", _names("model"),
                "ops_per_s on wide_state", lambda tr: tr.group_calls("model")),
    LayerMetric("amplification.self_s", "s", "lower", _names("amplification"),
                "ops_per_s on wide_state", lambda tr: tr.group_self_s("amplification")),
    LayerMetric("amplification.rounds", "count", "lower", ("apply_amplification",),
                "ops_per_s on wide_state", lambda tr: tr.calls["apply_amplification"]),
    LayerMetric("error_reduction.pushback_self_s", "s", "lower", ("apply_error_reduction",),
                "ops_per_s on wide_state", lambda tr: tr.group_self_s("pushback")),
    LayerMetric("error_reduction.pushback_rounds", "count", "lower", ("apply_error_reduction",),
                "ops_per_s on wide_state", lambda tr: tr.calls["apply_error_reduction"]),
    LayerMetric("error_reduction.schedule_s", "s", "lower", _names("schedule"),
                "ops_per_s on huge_n; minor on search_mc, ~0 on wide_state",
                lambda tr: tr.group_self_s("schedule")),
    LayerMetric("error_reduction.schedule_calls", "count", "lower", ("schedule_for_round",),
                "ops_per_s on huge_n", lambda tr: tr.calls["schedule_for_round"]),
    LayerMetric("error_reduction.majority_calls", "count", "lower", COUNTED,
                "ops_per_s on huge_n", lambda tr: tr.calls["majority_prob"]),
    LayerMetric("driver.sample_verify_s", "s", "lower", ("run_search",),
                "ops_per_s and op_ms_p50 on search_mc", lambda tr: tr.self_s["run_search"]),
    LayerMetric("driver.shots_sampled", "count", "lower", ("run_search",),
                "ops_per_s and op_ms_p50 on search_mc", lambda tr: _rows(tr, "shots")),
    LayerMetric("driver.verifications", "count", "lower", ("run_search",),
                "ops_per_s and op_ms_p50 on search_mc", lambda tr: _rows(tr, "verified")),
    LayerMetric("driver.accept_ratio", "ratio", "higher", ("run_search",),
                "ops_per_s on search_mc (accepted / verified)",
                lambda tr: _ratio(sum(res.outcome == "found" for _, res in _searches(tr)),
                                  _rows(tr, "verified"))),
    LayerMetric("driver.cost_model_self_s", "s", "lower", _names("cost_model"),
                "ops_per_s on huge_n", lambda tr: tr.group_self_s("cost_model")),
    LayerMetric("driver.miss_rate", "ratio", "lower", ("run_search",),
                "quality; exact under a fixed seed", _miss_rate),
    LayerMetric("driver.false_accept_rate", "ratio", "lower", ("run_search",),
                "quality; exact under a fixed seed", _false_accept_rate),
    LayerMetric("andor.self_s", "s", "lower", _names("andor"),
                "op_ms_tail on search_mc", lambda tr: tr.group_self_s("andor")),
    LayerMetric("andor.leaves", "count", "higher", ("evaluate_quantum_sim",),
                "op_ms_tail on search_mc",
                lambda tr: sum(args[0].n_leaves for args, _ in tr.records["evaluate_quantum_sim"])),
    LayerMetric("andor.agree_rate", "ratio", "higher", ("evaluate_quantum_sim",),
                "quality; exact under a fixed seed", _agree_rate),
    LayerMetric("oracles.dense_s", "s", "lower", _names("dense"),
                "ops_per_s on oracle_suite", lambda tr: tr.group_self_s("dense")),
    LayerMetric("oracles.enumeration_s", "s", "lower", _names("enumeration"),
                "ops_per_s on oracle_suite", lambda tr: tr.group_self_s("enumeration")),
    LayerMetric("oracles.enumerated_outcomes", "count", "lower", ("enumerate_majority",),
                "ops_per_s on oracle_suite",
                lambda tr: sum(2 ** args[0] for args, _ in tr.records["enumerate_majority"])),
    LayerMetric("cli.self_s", "s", "lower", ("run_cli",),
                "op_ms_p50 on oracle_suite", lambda tr: tr.self_s["run_cli"]),
)
OVERHEAD = LayerMetric("trace.overhead_ratio", "ratio", "lower", (),
                       "none: traced / untraced wall time of the same operations", None)


def layer_metrics(tr: Tracer) -> tuple[dict, list]:
    """Values of every PER_LAYER metric, and the names of absent ones.

    An absent metric is reported with value 0.
    """
    values, absent = {}, []
    for metric in PER_LAYER:
        if all(name in tr.absent for name in metric.sources):
            absent.append(metric.name)
            values[metric.name] = 0
        else:
            values[metric.name] = metric.value(tr)
    return values, absent
