"""Short self-check of the benchmark against BENCHMARK.json.

    python3 perfbench/selfcheck.py

Run from the repository root. Checks that BENCHMARK.json lists exactly
the metrics the benchmark defines, with the same units; runs every
workload briefly untraced and traced and asserts that each run is
correct and emits every named metric with its unit; and checks that a
directory holding only BENCHMARK.json and the benchmark's files makes
the benchmark fail without printing a result. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"
TIMEOUT_S = 180


def run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def result_of(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run as bench
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    expected = {
        0: {name: unit for name, unit, _, _ in bench.END_TO_END},
        1: {m.name: m.unit for m in (*tracer.PER_LAYER, tracer.OVERHEAD)},
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != expected[trace]:
            failures.append(f"BENCHMARK.json {key} {declared} != benchmark's {expected[trace]}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "0", "--seconds", SECONDS,
                        "--trace", str(trace)], ROOT)
            result = result_of(proc)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{where}: exit {proc.returncode}, stderr {proc.stderr[-500:]!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{where}: metrics {got} != {expected[trace]}")
            for name, m in result["metrics"].items():
                value = m.get("value")
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    failures.append(f"{where}: {name} value {value!r} is not a number")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", SECONDS,
                "--trace", "0"], bare)
    if proc.returncode == 0 or result_of(proc) is not None:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
