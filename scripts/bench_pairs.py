#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write BENCH_<pr>.json.

Run from the repository root:
    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload search_mc --pairs 10 --seconds 25 --pr K

Pair i runs ``python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0`` once in each checkout: the parent first in even pairs, the
change first in odd ones, so neither side always meets the host's load
first. Each checkout runs its own ``perfbench/`` and ``src/``; this
script only reads their output. ``BENCH_<pr>.json`` gets, per workload,
each side's median, quartiles and IQR of every end-to-end metric, the
ops/s of every pair, and the operations attempted and failed. For each
end-to-end metric of ``BENCHMARK.json`` it also records the inputs of
the accept rule: the pairs the change won in the metric's ``better``
direction, the gap between the medians over the parent's IQR (positive
when the change is better), and whether the change's median is worse
than the parent's by no more than the metric's ``bound``. Workloads
already in the file are kept, so one file collects several runs of this
script.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its closing JSON object, plus its ``env`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return result


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return dict(iqr=round(q3 - q1, 4), median=round(median, 4), q1=round(q1, 4), q3=round(q3, 4))


def _accept_inputs(pairs: list, runs: dict, metric: dict) -> dict:
    """The accept rule's inputs for one end-to-end metric of
    ``BENCHMARK.json`` (``name``, ``better``, ``bound``): pairs won by the
    change (strictly better), the gap between the medians over the
    parent's IQR, signed so that a better change is positive (None when
    that IQR is 0), and whether the change's median lies within the bound."""
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for _, p, c in pairs]
    parent, change = runs["parent"][name], runs["change"][name]
    gap = sign * (change["median"] - parent["median"])
    return dict(
        better=metric["better"],
        bound=metric["bound"],
        pairs_won_by_change=sum(sign * (c - p) > 0.0 for p, c in values),
        median_gap_over_parent_iqr=round(gap / parent["iqr"], 4) if parent["iqr"] else None,
        within_bound=gap >= -metric["bound"] * parent["median"],
    )


def summarize(pairs: list, end_to_end: Sequence[dict] = ()) -> dict:
    """One workload's entry from ``[(seed, parent result, change result), ...]``,
    each result a perfbench JSON object (``correct``, ``attempted``,
    ``failed``, ``metrics``), with the accept rule's inputs for each metric
    of ``end_to_end`` (``BENCHMARK.json``'s list) that every run reports.
    ops/s is higher-better, so the change wins a pair when its ops/s is
    strictly higher."""
    by_side = {side: [pair[k] for pair in pairs] for k, side in enumerate(SIDES, start=1)}
    ops = [(seed, parent["metrics"]["ops_per_s"]["value"], change["metrics"]["ops_per_s"]["value"])
           for seed, parent, change in pairs]
    runs = {side: {name: _quartiles([r["metrics"][name]["value"] for r in side_runs])
                   for name in side_runs[0]["metrics"]}
            for side, side_runs in by_side.items()}
    reported = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair[1:]))
    return dict(
        pairs=len(pairs),
        ops_per_s_pairs=[[seed, round(p, 2), round(c, 2)] for seed, p, c in ops],
        ops_per_s_pairs_won_by_change=sum(c > p for _, p, c in ops),
        **{f"attempted_{side}": sum(r["attempted"] for r in side_runs)
           for side, side_runs in by_side.items()},
        failed={side: sum(r["failed"] for r in side_runs) for side, side_runs in by_side.items()},
        correct={side: all(r["correct"] for r in side_runs) for side, side_runs in by_side.items()},
        runs=runs,
        accept={metric["name"]: _accept_inputs(pairs, runs, metric)
                for metric in end_to_end if metric["name"] in reported},
    )


def _commit(result: dict) -> str | None:
    """The code a run measured: its git commit, or, in a checkout that is
    no git work tree, the sha256 of its sources as perfbench printed it."""
    env = result["env"]
    if env.get("git_commit"):
        return env["git_commit"][:7]
    return f"src_sha256:{env['src_sha256'][:12]}" if env.get("src_sha256") else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="perfbench workload name")
    ap.add_argument("--pairs", type=int, required=True, help="pairs to run; pair i uses seed i")
    ap.add_argument("--seconds", type=float, required=True, help="--seconds of each run")
    ap.add_argument("--pr", type=int, required=True, help="number in the output file name")
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json at the root)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    checkouts = dict(parent=args.parent, change=args.change)

    pairs = []
    for seed in range(args.pairs):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        got = {side: run_perfbench(checkouts[side], args.workload, seed, args.seconds)
               for side in order}
        pairs.append((seed, got["parent"], got["change"]))
        p, c = (got[side]["metrics"]["ops_per_s"]["value"] for side in SIDES)
        print(f"{args.workload} pair {seed}: ops/s parent {p:.2f} change {c:.2f}", flush=True)

    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    _, parent, change = pairs[0]
    env = change["env"]
    doc.update(
        pr=args.pr,
        parent_commit=_commit(parent),
        change_commit=_commit(change),
        machine=(f"{env.get('nproc')} vCPU {env.get('cpu_model')}, Python {env.get('python')}, "
                 f"numpy {env.get('numpy')}, one BLAS thread"),
        method=("python3 scripts/bench_pairs.py: python3 perfbench/run.py --workload W --seed S "
                "--seconds T --trace 0, parent and change alternating which runs first, "
                "seed S = pair index"),
    )
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    doc.setdefault("workloads", {})[args.workload] = dict(
        seconds=args.seconds, **summarize(pairs, end_to_end)
    )
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
