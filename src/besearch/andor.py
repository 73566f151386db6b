"""Interleaved AND-OR trees evaluated by recursive bounded-error search.

A d-level tree alternates OR and AND gates over N leaves. A 0-level
tree is a single input variable. Each AND/OR node can be decided by
searching its children for a witness (OR: a 1-child; AND: a 0-child,
by De Morgan with free negation). Children are wrapped as worst-case
promise black boxes -- correct with probability exactly 9/10 -- so every
level uses one uniform bounded-error interface, and the per-node
decision is the search driver's actual stochastic outcome. Level-1
nodes use a one-sided Grover cost model over exact leaves; its
one-sidedness is conservatively discarded for the error model.

Tree description files are line-oriented::

    # comment lines and blank lines are ignored
    depth 2
    root OR
    fanouts 3 3
    leaves 010000110

``fanouts`` lists one fanout per level, root first, and is omitted for
depth 0. ``leaves`` is a bitstring of length N = product of fanouts.

In code, leaves are a sequence of ints or bools, an integer or bool
ndarray, or bytes with one byte per leaf, every value 0 or 1. They are
reduced level by level, bottom up, with one ``any``/``all`` per level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .driver import (
    DEFAULT_SHOTS, check_seed, check_shots, full_sweep_cost, run_search, search_blocks
)
from .model import PROMISE_BAD, PROMISE_GOOD, check_int, make_instance

GATE_OR = "OR"
GATE_AND = "AND"


@dataclass(frozen=True)
class AndOrTree:
    """Shape of a d-level AND-OR tree: per-level fanouts and the root gate.

    Gates alternate by level; the gate at each lower level is implied by
    ``root_gate``. ``depth == 0`` is a single input variable. The depth
    (>= 0) and each fanout (>= 1) are checked integers, stored as ``int``;
    ``fanouts`` must be a flat sequence.
    """

    depth: int
    fanouts: tuple[int, ...]
    root_gate: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", check_int("depth", self.depth, 0))
        if np.ndim(self.fanouts) != 1:
            raise ValueError(f"fanouts must be a sequence, got {self.fanouts!r}")
        object.__setattr__(self, "fanouts", tuple(check_int("fanout", f, 1) for f in self.fanouts))
        if len(self.fanouts) != self.depth:
            raise ValueError(
                f"need one fanout per level: depth {self.depth}, got {len(self.fanouts)}"
            )
        if self.root_gate not in (GATE_OR, GATE_AND):
            raise ValueError(f"root gate must be OR or AND, got {self.root_gate!r}")

    @property
    def n_leaves(self) -> int:
        return math.prod(self.fanouts)

    def child(self) -> "AndOrTree":
        """The subtree rooted one level down (gates alternate)."""
        if self.depth == 0:
            raise ValueError("a 0-level tree has no children")
        return AndOrTree(self.depth - 1, self.fanouts[1:], _gate_at(self, self.depth - 1))


Leaves = Union[Sequence[int], np.ndarray, bytes, bytearray]


def _gate_at(tree: AndOrTree, level: int) -> str:
    """The gate of the nodes at ``level``: the root is at level ``depth``,
    a node over leaves at level 1, and gates alternate."""
    if (tree.depth - level) % 2 == 0:
        return tree.root_gate
    return GATE_AND if tree.root_gate == GATE_OR else GATE_OR


def _gate(gate: str, vals: np.ndarray) -> np.ndarray:
    """One gate applied along the last axis: OR is ``any``, AND is ``all``."""
    return vals.any(axis=-1) if gate == GATE_OR else vals.all(axis=-1)


def evaluate_classical(tree: AndOrTree, bits: Leaves) -> int:
    """Ground-truth evaluation of the tree on the given leaves."""
    bits = _as_bits(tree, bits)
    if tree.depth == 0:
        return int(bits[0])
    return int(_gate(tree.root_gate, _child_values(tree, bits)))


def _as_bits(tree: AndOrTree, bits: Leaves) -> np.ndarray:
    """The leaves as a flat bool array of length N.

    Integer and bool values pass; floats, strings and values outside
    {0, 1} raise ValueError rather than being truncated.
    """
    if isinstance(bits, (bytes, bytearray)):
        vals = np.frombuffer(bits, dtype=np.uint8)
    else:
        vals = np.asarray(bits)
    # An empty list comes out as float64; its length is what is wrong.
    if vals.ndim != 1 or (vals.size and vals.dtype.kind not in "biu"):
        raise ValueError("leaves must be bits")
    if vals.size != tree.n_leaves:
        raise ValueError(f"expected {tree.n_leaves} leaves, got {vals.size}")
    if vals.dtype.kind != "b" and (vals.min() < 0 or vals.max() > 1):
        raise ValueError("leaves must be bits")
    return vals.astype(bool)


def _child_values(tree: AndOrTree, bits: np.ndarray) -> np.ndarray:
    """Values of the root's children (depth >= 1), by one reduction per level.

    Each level below the root is reduced bottom up, on the values viewed
    as rows of that level's fanout, so any depth works.
    """
    vals = bits
    for level, f in enumerate(reversed(tree.fanouts[1:]), start=1):
        vals = _gate(_gate_at(tree, level), vals.reshape(-1, f))
    return vals


def evaluate_quantum_sim(
    tree: AndOrTree,
    bits: Leaves,
    seed,
    shots: int = DEFAULT_SHOTS,
) -> int:
    """Simulated bounded-error evaluation of the tree (two-sided error).

    Depth 0 reads the variable exactly. Depth 1 is one draw of its
    bounded-error box: the classical value, flipped with probability
    1/10. Depth >= 2 decides the root by running the search driver over
    its children, each wrapped as a worst-case promise box (9/10 correct)
    around its true value; per-invocation error is at most 1/10. The shot
    count and the seed are checked at every depth, also where no search runs.
    """
    shots = check_shots(shots)
    check_seed(seed)
    bits = _as_bits(tree, bits)
    if tree.depth == 0:
        return int(bits[0])
    children = _child_values(tree, bits)
    if tree.depth == 1:
        truth = int(_gate(tree.root_gate, children))
        rng = np.random.default_rng(seed)
        return truth ^ (rng.random() < PROMISE_BAD)
    # The witnesses: 1-children under OR, 0-children under AND.
    witnesses = children if tree.root_gate == GATE_OR else ~children
    t = int(np.count_nonzero(witnesses))
    instance = make_instance(tree.fanouts[0], t, PROMISE_GOOD, PROMISE_BAD)
    found = run_search(instance, seed, shots).outcome == "found"
    if tree.root_gate == GATE_OR:
        return int(found)
    return int(not found)


def evaluate_quantum_cost(tree: AndOrTree, shots: int = DEFAULT_SHOTS) -> int:
    """Worst-case leaf-query count of the recursive evaluation: the root row's
    leaf_queries in ``level_costs``, or one query at depth 0."""
    rows = level_costs(tree, shots)
    return rows[-1][-1] if rows else 1


def level_costs(tree: AndOrTree, shots: int) -> list[tuple]:
    """The cost table: one row (level, fanout, leaves, gate, leaf_queries)
    per level of the tree, bottom level first, none at depth 0.

    A level-1 node of fanout f costs ceil(pi/4 sqrt(f)) leaf queries
    (one-sided Grover over exact leaves); a higher one costs
    ``full_sweep_cost(f, shots)`` -- what the driver charges for a search
    that finds nothing -- times the cost of one child. Every fanout must
    lie in [1, 9^479], the sizes the driver searches. The shot count is
    checked at every depth.
    """
    shots = check_shots(shots)
    rows = []
    q = leaves = 1
    for level, f in enumerate(reversed(tree.fanouts), start=1):
        if level == 1:
            search_blocks(f)  # the size bound full_sweep_cost checks on the levels above
            q *= math.ceil(math.pi / 4 * _sqrt(f))
        else:
            q *= full_sweep_cost(f, shots)
        leaves *= f
        rows.append((level, f, leaves, _gate_at(tree, level), q))
    return rows


def _sqrt(f: int) -> float:
    """sqrt(f) as a float, also for an f past the float range: f is scaled
    down by an exact power of 4 until it has at most 54 bits, and the
    square root of that is scaled back up by the power of 2. An f below
    2^54 is not scaled, so its root is ``math.sqrt(f)``."""
    k = max(0, (f.bit_length() - 53) // 2)
    return math.ldexp(math.sqrt(f >> 2 * k), k)


def dump_tree(tree: AndOrTree, bits: Leaves) -> str:
    """Serialize a tree and its leaves in the line-oriented file format."""
    bits = _as_bits(tree, bits)
    lines = [f"depth {tree.depth}", f"root {tree.root_gate}"]
    if tree.depth > 0:
        lines.append("fanouts " + " ".join(str(f) for f in tree.fanouts))
    lines.append("leaves " + (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii"))
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> tuple[AndOrTree, list[int]]:
    """Parse the line-oriented tree description format."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key not in ("depth", "root", "fanouts", "leaves"):
            raise ValueError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    for required in ("depth", "root", "leaves"):
        if required not in fields:
            raise ValueError(f"missing field {required!r}")
    try:
        depth = int(fields["depth"])
    except ValueError:
        raise ValueError(f"bad depth {fields['depth']!r}") from None
    if depth > 0:
        if "fanouts" not in fields:
            raise ValueError("missing field 'fanouts'")
        try:
            fanouts = tuple(int(f) for f in fields["fanouts"].split())
        except ValueError:
            raise ValueError(f"bad fanouts {fields['fanouts']!r}") from None
    elif "fanouts" in fields:
        raise ValueError(f"field 'fanouts' given at depth {depth}")
    else:
        fanouts = ()
    if any(ch not in "01" for ch in fields["leaves"]):
        raise ValueError("leaves must be a bitstring")
    tree = AndOrTree(depth=depth, fanouts=fanouts, root_gate=fields["root"])
    bits = [int(ch) for ch in fields["leaves"]]
    _as_bits(tree, bits)
    return tree, bits


def load_tree(path) -> tuple[AndOrTree, list[int]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())
