#!/usr/bin/env python3
"""The search's exact expected cost per sqrt(n) beside the boost-first baseline's.

For n = 9^e, e = 1..322, at t = 1 with p_good = 9/10 and p_bad = 1/10,
each row gives the exact ``exact_outcome(instance).expected_cost / sqrt(n)``
of ``run_search`` at the default 1000 shots (no sampling) and
``oracles.simple_search_cost(n) / sqrt(n)``. The baseline takes n up to
``MAX_BASELINE_N``, about 1.8e306, so its column ends at e = 320 and reads
``-`` beyond it.

Run:
    python scripts/cost_table.py
"""
from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from besearch import exact_outcome, make_instance  # noqa: E402
from besearch.oracles import MAX_BASELINE_N, simple_search_cost  # noqa: E402

EXPONENTS = range(1, 323)

HEADER = """\
# Exact E[cost]/sqrt(n) of run_search (t = 1, p 9/10 and 1/10, 1000 shots)
# beside simple_search_cost(n)/sqrt(n), for n = 9^e.
# Not like for like: simple_search_cost is one Grover run for a known t,
# with no stated success probability, while run_search does not know t and
# finds the solution with the probability exact_outcome gives. A crossover
# n between the two columns means something only at equal success
# probability and unknown t (for example boost-first inside the loop of
# Boyer-Brassard-Hoyer-Tapp, arXiv:quant-ph/9605034)."""


def rows(exponents: Iterable[int]) -> Iterator[tuple[int, float, float | None]]:
    """(e, exact E[cost]/sqrt(n), baseline cost/sqrt(n) or None) per e;
    sqrt(9^e) = 3^e exactly."""
    for e in exponents:
        n = 9**e
        cost = exact_outcome(make_instance(n, 1, 0.9, 0.1)).expected_cost / 3**e
        baseline = simple_search_cost(n) / 3**e if n <= MAX_BASELINE_N else None
        yield e, cost, baseline


def main() -> None:
    print(HEADER)
    print(f"{'e':>4} {'cost/sqrt(n)':>14} {'simple/sqrt(n)':>15}")
    for e, cost, baseline in rows(EXPONENTS):
        simple = "-" if baseline is None else f"{baseline:.2f}"
        print(f"{e:>4} {cost:>14.2f} {simple:>15}")


if __name__ == "__main__":
    main()
