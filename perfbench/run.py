"""Benchmark of besearch, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Each run is a closed loop in one process: one client, one operation at a
time, no extra threads, cycling through the seeded operation pool of
``workloads.py``. Every output is checked by ``reference.py``: the first
run of each operation against independent computations, later runs for
equality with the first. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

One untimed pass over the whole pool comes first: it checks every
output and leaves no first-call cost in the timed executions.
``--trace 0`` then times whole passes over the pool until ``--seconds``
of operation time have passed (at least ``MIN_PASSES``), so every input
runs equally often at moments spread over the run, and reports the
end-to-end metrics. ``--trace 1`` runs the pool once with every layer
function wrapped by ``tracer.py``, then once untraced, and reports the
per-layer metrics with the ratio of the two wall times.

On a shared host the same code runs up to twice as slow while other
tenants load the machine, in spells of seconds to minutes, and how much
of a run such spells fill varies from run to run. The plain median and
mean latency follow that share. The contended level itself is steady
and present in most runs, so each input is timed at the upper decile
of its executions (``contended_ms``): that reads the contended level,
whatever share of the run it fills. A run that meets no contended spell
at all still reads fast. The median and the tail are taken
over inputs, so the tail rests on the ten slowest inputs rather than on
the ten slowest executions, which on search_mc all come from the one or
two largest AND-OR trees.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so a run uses one core.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120
MAX_PROBLEMS_SHOWN = 5

# name, unit, better, what moves it
END_TO_END = (
    ("ops_per_s", "1/s", "higher",
     "inputs per second with each input at its contended latency; "
     "every layer on the workload's path"),
    ("op_ms_p50", "ms", "lower", "median over inputs of the contended latency"),
    ("op_ms_tail", "ms", "lower",
     "the same at the highest percentile with >= 10 inputs beyond it"),
    ("setup_s", "s", "lower",
     "fresh interpreter to inputs ready: import besearch (numpy) and input generation"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the run; model state on wide_state"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import besearch from this checkout's src/ and nowhere else."""
    if not (SRC / "besearch" / "__init__.py").is_file():
        fail(f"no besearch package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import besearch

    if Path(besearch.__file__).resolve().parent != (SRC / "besearch").resolve():
        fail(f"besearch was imported from {besearch.__file__}, not from {SRC}")
    return besearch


def environment(numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "besearch").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return dict(
        git_commit=commit,
        src_sha256=src_hash.hexdigest(),
        python=platform.python_version(),
        numpy=numpy_version,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model,
        blas_threads={var: os.environ[var] for var in BLAS_THREAD_VARS},
    )


class SetupProbe:
    """Times fresh interpreters that import besearch and build the inputs.

    Probes are spread over the timed loop rather than run back to back,
    so that their median does not hang on one slow moment of the machine.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.digests: set[str] = set()

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=False)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()}")
        self.digests.add(proc.stdout.strip())


class Runner:
    """Closed-loop executor of one pool, checking every output."""

    def __init__(self, workloads, reference, pool) -> None:
        self.workloads = workloads
        self.reference = reference
        self.specs = pool.specs
        self.built = [workloads.build(kind, spec) for kind, spec in pool.specs]
        self.reps = reference.Repetitions()
        self.first = [None] * len(self.specs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, i: int, tracer=None) -> float:
        """Execute operation i once and check its output; returns its latency."""
        kind, spec = self.specs[i]
        execute = self.workloads.execute
        start = time.perf_counter()
        try:
            if tracer is None:
                out = execute(kind, spec, self.built[i])
            else:
                tracer.op_id = i
                out = tracer.run(f"op.{kind}", execute, kind, spec, self.built[i])
        except Exception as exc:  # an operation that raises counts as failed
            latency = time.perf_counter() - start
            self._record(i, [f"{type(exc).__name__}: {exc}"])
            return latency
        latency = time.perf_counter() - start
        if self.first[i] is None:
            self.first[i] = out
            problems = self.reference.check(kind, spec, out, self.reps)
        else:
            problems = [] if out == self.first[i] else ["output differs from its first run"]
        self._record(i, problems)
        return latency

    def _record(self, i: int, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"op {i} ({self.specs[i][0]}): {'; '.join(problems)}")

    def quality(self) -> list:
        """Aggregate rates over the pool's outputs, each against its threshold."""
        ref = self.reference
        searches = misses = planted = false_accepts = trees = agree = 0
        for (kind, spec), out in zip(self.specs, self.first):
            if kind in ("search", "huge"):
                missed, wrong = ref.search_outcome(out if kind == "search" else out[-1], spec)
                searches += 1
                planted += spec["t"] > 0
                misses += missed
                false_accepts += wrong
            elif kind == "andor":
                trees += 1
                agree += out == ref.tree_truth(spec)
        return [
            ("miss_rate", misses, planted, ref.MAX_MISS_RATE, True),
            ("false_accept_rate", false_accepts, searches, ref.MAX_FALSE_ACCEPT_RATE, True),
            ("agree_rate", agree, trees, ref.MIN_AGREE_RATE, False),
        ]


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def contended_ms(latencies: list) -> float:
    """Upper decile of one input's timed latencies, in ms."""
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3


def untraced(runner: Runner, seconds: float, probe: SetupProbe) -> dict:
    pool_size = len(runner.specs)
    latencies = [[] for _ in range(pool_size)]  # per input, in timed order
    total, passes = 0.0, 0
    while total < seconds or passes < MIN_PASSES:
        for i in range(pool_size):
            if (len(probe.times) < SETUP_REPEATS
                    and total >= len(probe.times) * seconds / SETUP_REPEATS):
                probe()
            latency = runner.run(i)
            latencies[i].append(latency)
            total += latency
        passes += 1
    while len(probe.times) < SETUP_REPEATS:
        probe()
    per_input = [contended_ms(lat) for lat in latencies]
    tail_ms, tail_pct = tail(per_input)
    beyond = Counter(kind for ms, (kind, _) in zip(per_input, runner.specs) if ms >= tail_ms)
    executions = passes * pool_size
    all_ms = [latency * 1e3 for lat in latencies for latency in lat]
    print(f"timed: {passes} passes over {pool_size} inputs, {executions} executions in "
          f"{total:.3f} s of operation time ({executions / total:.6g} executions/s, "
          f"median execution {statistics.median(all_ms):.6g} ms)")
    print(f"tail: op_ms_tail is p{tail_pct:.2f} of {pool_size} inputs; at or beyond it: "
          + ", ".join(f"{n} {kind}" for kind, n in beyond.most_common()))
    return dict(
        ops_per_s=pool_size / (math.fsum(per_input) / 1e3),
        op_ms_p50=statistics.median(per_input),
        op_ms_tail=tail_ms,
    )


def traced(runner: Runner, tracer_mod) -> tuple[dict, object]:
    pool_size = len(runner.specs)
    tracer = tracer_mod.Tracer()
    tracer.patch()
    try:
        traced_s = sum(runner.run(i, tracer) for i in range(pool_size))
    finally:
        tracer.unpatch()
    plain_s = sum(runner.run(i) for i in range(pool_size))
    values, absent = tracer_mod.layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced_s / plain_s
    print(f"traced: {pool_size} operations, {traced_s:.3f} s traced, {plain_s:.3f} s untraced")
    if tracer.absent:
        print(f"absent functions: {', '.join(tracer.absent)}")
    if absent:
        print(f"absent metrics (reported as 0): {', '.join(absent)}")
    return values, tracer


def write_trace(tracer, args, env: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = dict(
        workload=args.workload, seed=args.seed, env=env,
        span_fields=["op", "span", "parent", "name", "start", "end"],
        spans=tracer.spans, dropped_spans=tracer.dropped, absent_functions=tracer.absent,
        self_s=dict(sorted(tracer.self_s.items())), calls=dict(sorted(tracer.calls.items())),
    )
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import numpy as np
    import reference
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(np.__version__)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    pool = workloads.generate(args.workload, args.seed)
    runner = Runner(workloads, reference, pool)
    probe = SetupProbe(args.workload, args.seed)
    print(f"inputs: {len(pool.specs)} operations, digest {pool.digest}")

    for i in range(len(pool.specs)):  # warm-up and first-output checks, untimed
        runner.run(i)
    # The pool and the checker's state are the benchmark's own long-lived
    # objects; keep them out of the collections the timed calls trigger.
    gc.collect()
    gc.freeze()

    if args.trace:
        values, tracer = traced(runner, tracer_mod)
        catalog = [(m.name, m.unit) for m in (*tracer_mod.PER_LAYER, tracer_mod.OVERHEAD)]
    else:
        values = untraced(runner, args.seconds, probe)
        values["setup_s"] = statistics.median(probe.times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        catalog = [(name, unit) for name, unit, _, _ in END_TO_END]
        print("setup: " + " ".join(f"{t:.4f}" for t in probe.times) + " s; inputs identical: "
              + str(probe.digests == {pool.digest}))
    inputs_ok = probe.digests <= {pool.digest}

    quality_ok = True
    for name, count, total, threshold, upper in runner.quality():
        ok = reference.rate_ok(count, total, threshold, upper)
        quality_ok &= ok
        if total:
            print(f"check {name}: {count}/{total} = {count / total:.4g} "
                  f"({'<=' if upper else '>='} {threshold}): {'ok' if ok else 'FAIL'}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    error_rate = runner.failed / runner.attempted
    for name, unit in catalog:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"metric error_rate = {error_rate:.6g} share ({runner.failed}/{runner.attempted})")
    if args.trace:
        print(f"spans written to {write_trace(tracer, args, env).relative_to(ROOT)}")

    result = dict(
        correct=runner.failed == 0 and quality_ok and inputs_ok,
        attempted=runner.attempted,
        failed=runner.failed,
        metrics={name: dict(value=values[name], unit=unit) for name, unit in catalog},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
