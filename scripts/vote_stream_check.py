#!/usr/bin/env python3
"""Check the block sampler's vote cuts against numpy's binomial draws.

The sampler decides each verification vote by comparing one uniform with
its class's cut (``besearch.driver._vote_cuts``). That is exact because
numpy draws Binomial(v, p) by inversion, from one uniform per draw, when
v * min(p, 1 - p) <= 30. For every (v, p) of ``GRID`` this script checks,
against twin generators that draw ``binomial(v, p, N) > v // 2``:

* the cut table at ``--draws`` votes: a uniform above the cut (p <= 1/2)
  or at or below it (p > 1/2) must vote as numpy does, and the generator
  must end in the same state. Where the table leaves the votes to the
  binomial path instead (numpy's BTPE regime), numpy must indeed take
  more than one uniform per draw;
* the block sampler ``besearch.driver._sample_block`` itself, on the
  blocks of ``BLOCKS``: ``--blocks`` blocks of one class (one sample
  each) and as many of two classes, p and 1 - p (two samples each), and a
  tenth and a hundredth as many of two classes with 1 - p at weight 1e-4
  (50 and 1000 samples each), where at small p most blocks reject every
  sample from their uniforms' extremes and the others look their classes
  up. Each block must accept what ``Generator.choice`` followed by
  ``binomial(v, ps[sampled])`` accepts, and after a block that accepts
  nothing the generator must stand where those calls leave it.

The (v, p) pairs are checked in ``WORKERS`` processes. The script prints
numpy's version and how many blocks took each path: the all-reject
shortcut, the general cut path, the fallback (an undecided block,
rewound and drawn again by ``rng.binomial``) and the binomial path of an
instance without a cut table. It exits 1 naming the first (v, p) that
fails, or when no block took the shortcut or the general path.

    python3 scripts/vote_stream_check.py [--draws N] [--blocks N]
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import multiprocessing
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import besearch.driver as driver  # noqa: E402
from besearch.driver import _BAND, _sample_block, _vote_cuts  # noqa: E402
from besearch.model import IndexClass, ProblemInstance  # noqa: E402

VOTES = (1, 3, 21, 61, 101, 301)
PS = (0.0, 1e-3, 0.05, 0.1, 0.3, 0.48, 0.5, 0.52, 0.9, 1.0)


def _step(p: float, toward: float) -> float:
    return float(np.nextafter(p, toward))


def inversion_edges(v: int) -> tuple[float, float, float, float]:
    """The p just inside and just outside numpy's inversion regime on each
    side of 1/2: numpy draws by inversion while min(p, 1 - p) * v <= 30,
    with 1 - p formed in floats."""
    low = 30.0 / v
    while low * v > 30.0:
        low = _step(low, 0.0)
    while _step(low, 1.0) * v <= 30.0:
        low = _step(low, 1.0)
    high = 1.0 - low
    while (1.0 - high) * v > 30.0:
        high = _step(high, 1.0)
    while (1.0 - _step(high, 0.0)) * v <= 30.0:
        high = _step(high, 0.0)
    return low, _step(low, 1.0), high, _step(high, 0.0)


def grid() -> list[tuple[int, float]]:
    """Each v with each p of ``PS``, and where v * p = 30 falls below
    p = 1/2 also the p on either side of that edge and of its mirror."""
    pairs = [(v, p) for v in VOTES for p in PS]
    for v in VOTES:
        if 30.0 / v < 0.5:
            pairs += [(v, p) for p in inversion_edges(v)]
    return pairs


GRID = grid()


def threshold_votes(rng: np.random.Generator, v: int, p: float, draws: int):
    """``draws`` votes of one class decided by its cut as ``_vote_cuts``
    defines it, with a mask of the uniforms within ``_BAND`` of the cut or
    above the restart point, or None where the cut table leaves every vote
    to the binomial path."""
    cuts = _vote_cuts(np.array([p]), v)
    if cuts.cut is None:
        return None
    if cuts.drawn is not None:  # p = 0: numpy draws nothing, and no vote passes
        return np.zeros(draws, bool), np.zeros(draws, bool)
    u = rng.random(draws)
    margin = (u - cuts.cut[0]) * cuts.sign[0]
    return margin > 0.0, (np.abs(margin) < _BAND) | (u > cuts.top)


def stream_check(v: int, p: float, draws: int, seed: int = 0) -> tuple[str, Optional[str]]:
    """("threshold" or "binomial", the path the cut table takes, and None
    or what differs) for one (v, p)."""
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = threshold_votes(ours, v, p, draws)
    want = twin.binomial(v, p, draws) > v // 2
    if got is None:
        ours.random(draws)
        if ours.bit_generator.state == twin.bit_generator.state:
            return "binomial", "the cut table gives up, but numpy drew one uniform per vote"
        return "binomial", None
    votes, close = got
    differ = np.flatnonzero((votes != want) & ~close)
    if differ.size:
        return "threshold", f"vote {differ[0]} of {draws} differs"
    if ours.bit_generator.state != twin.bit_generator.state:
        return "threshold", "the generator states differ after the votes"
    return "threshold", None


# The blocks ``block_check`` runs per (v, p): (class weights, samples per
# block, divisor of --blocks). The classes are at p and 1 - p.
BLOCKS = (
    ((1.0,), 1, 1),
    ((0.3, 0.7), 2, 1),
    ((1.0 - 1e-4, 1e-4), 50, 10),
    ((1.0 - 1e-4, 1e-4), 1000, 100),
)

PATHS = ("shortcut", "general", "fallback", "binomial")


@contextlib.contextmanager
def tally_paths(tally: Counter):
    """Count in ``tally`` the path each ``_sample_block`` call takes while
    the block runs: ``_cut_block`` returning a count of uniforms is a
    fallback, and one that decides looked classes up on the general path
    or not at all on the shortcut. Blocks that never reach ``_cut_block``
    are counted as binomial by ``block_check``."""
    cut_block, classes = driver._cut_block, driver._classes
    looked = []

    def counted_classes(cdf, u):
        looked.append(u.size)
        return classes(cdf, u)

    def counted_cut_block(*args):
        looked.clear()
        block = cut_block(*args)
        tally["fallback" if isinstance(block, int) else "general" if looked else "shortcut"] += 1
        return block

    driver._cut_block, driver._classes = counted_cut_block, counted_classes
    try:
        yield tally
    finally:
        driver._cut_block, driver._classes = cut_block, classes


def block_check(v: int, p: float, weights: tuple[float, ...], shots: int, blocks: int,
                seed: int = 0, tally: Optional[Counter] = None) -> Optional[str]:
    """None, or what differs, when ``blocks`` blocks of ``shots`` samples go
    through ``_sample_block`` with the run's cut table: of one class at p,
    or of two at p and 1 - p, with class weights ``weights``. Each block
    must give the (class, verified) of ``choice`` followed by
    ``binomial(v, ps[sampled])`` on a twin generator, and after a block
    that accepts nothing the generator must stand where the twin's does;
    after an accepting one the twin is set to our state, since the votes
    past an acceptance are not drawn alike. Each block's path is added to
    ``tally`` when one is given."""
    tally = Counter() if tally is None else tally
    ps = (p, 1.0 - p)[:len(weights)]
    weights = np.array(weights)
    probs = weights / weights.sum()
    inst = ProblemInstance(tuple(IndexClass(q, 1, q > 0.5) for q in ps), strict=False)
    cuts = _vote_cuts(inst.ps, v)
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    counted = sum(tally.values())
    with tally_paths(tally):
        for block in range(blocks):
            got = _sample_block(ours, weights, cuts, shots)
            sampled = twin.choice(len(ps), size=shots, p=probs)
            accepts = twin.binomial(v, inst.ps[sampled]) > v // 2
            first = int(accepts.argmax())
            hit = bool(accepts[first])
            want = (int(sampled[first]), first + 1) if hit else (None, shots)
            if got != want:
                return f"block {block} of {blocks} gave {got}, numpy {want}"
            if hit:
                twin.bit_generator.state = ours.bit_generator.state
            elif ours.bit_generator.state != twin.bit_generator.state:
                return f"the generator states differ after block {block} of {blocks}"
    tally["binomial"] += blocks - (sum(tally.values()) - counted)
    return None


def check_pair(pair: tuple[int, float], draws: int, blocks: int) -> tuple[Optional[str], Counter]:
    """The stream check and the block checks of one (v, p): what fails
    first, or None, and the paths the blocks took."""
    v, p = pair
    tally = Counter()
    path, error = stream_check(v, p, draws)
    if error:
        return f"v={v} p={p!r} ({path}): {error}", tally
    for weights, shots, divisor in BLOCKS:
        error = block_check(v, p, weights, shots, blocks // divisor, tally=tally)
        if error:
            block = f"{len(weights)}-class {shots}-sample _sample_block"
            return f"v={v} p={p!r} ({block}): {error}", tally
    return None, tally


# The (v, p) pairs are checked in this many processes.
WORKERS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=10**6, help="table votes per (v, p)")
    parser.add_argument("--blocks", type=int, default=10**4,
                        help="one- and two-class blocks through the sampler per (v, p); "
                             "a tenth and a hundredth as many of 50 and 1000 samples")
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}: {len(GRID)} (v, p) pairs, {args.draws} table votes "
          f"and {args.blocks} one- and two-class blocks each")
    tally = Counter()
    check = functools.partial(check_pair, draws=args.draws, blocks=args.blocks)
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        for error, paths in pool.map(check, GRID):
            if error:
                print(error)
                pool.shutdown(cancel_futures=True)
                return 1
            tally.update(paths)
    print("blocks by path: " + ", ".join(f"{tally[path]} {path}" for path in PATHS))
    missing = [path for path in PATHS[:2] if not tally[path]]
    if missing:
        print(f"no block took the {' or the '.join(missing)} path")
        return 1
    print("vote stream check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
