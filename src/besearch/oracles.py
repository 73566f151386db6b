"""Independent brute-force oracles and the two baseline cost models.

The structured engine is validated against two fully independent
routes: a dense complex linear-algebra check of the amplification
rotation (explicit reflection matrices on a random unitary), and an
exhaustive 2^r enumeration of majority voting. Neither shares code with
the engine's closed forms; a dense scenario is the pair (unitary,
flag_indices), or a stack of such pairs of one dimension, checked once
before any matrix work. A one-round cross-validation harness builds the
whole round -- preparation, reflections, and a 5-run majority vote -- as
explicit matrices and compares per-index masses with the structured
engine.
``run_fact_checks`` runs these oracles as the four fact checks that
``check-facts`` prints and the acceptance gate asserts on, against
tolerances defined here once.

The two baseline cost models from the simple approaches (per-query
majority boosting under Grover, and block-recursive splitting) are
deterministic integer formulas; their internal dynamics are not
simulated.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .driver import VERIFICATION_CONFIDENCE, build_state, check_seed
from .error_reduction import majority_prob, repetitions_for, schedule_for_round
from .model import (
    IndexClass, InvariantError, ProblemInstance, check_int, check_prob, expand_classes
)

# Dense scenarios stay comfortably below this Hilbert-space dimension.
MAX_DENSE_DIM = 64

# Resource guard for the one-round cross-check: its state has dimension
# 2n*64, so n <= 128. E1 is applied block by block, so memory is linear
# in n; the dense 2n x 2n A1 and G1 set the time at the cap (~0.02 s).
MAX_ROUND_DIM = 2**14

# The enumeration oracle sums 2^r outcomes for every odd r up to its bound,
# so its time doubles per step of r; at this cap it runs about 0.4 s and its
# cached popcount arrays hold 1.4 MB.
MAX_ENUM_R = 21

# Largest weight array one enumeration pass builds (8 MB): the grid's rows
# go through together up to r = 17 and one at a time at the cap.
_ENUM_ENTRIES = 2**20

# Largest n of the boost-first baseline: its error 1/(100 n) needs 100 n to fit a float.
MAX_BASELINE_N = int(np.finfo(float).max) // VERIFICATION_CONFIDENCE

# Scenarios of one dimension evaluated as one stack: at dimension 64 a
# stack's arrays take about 0.4 MB per scenario, so a chunk of them adds
# about 25 MB whatever the count.
SCENARIO_CHUNK = 64

# Largest scenario count of the fact checks: at dimension 64 each scenario
# takes 1-1.5 ms, so the cap runs for about two minutes.
MAX_SCENARIOS = 10**5

# Explicit repetition count of the dense round-1 majority vote.
ROUND_ONE_REPS = 5

# Tolerances of the rotation, majority and one-round fact checks, and of unitarity.
DENSE_TOL = 1e-10
ENUM_TOL = 1e-12
ROUND_TOL = 1e-9
UNITARY_TOL = 1e-12

# r_1, r_2, r_3 of the round schedule, pinned by hand arithmetic.
PINNED_SCHEDULE = (5, 7, 7)

# Success probabilities at which the majority oracle is compared with the engine.
MAJORITY_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

# The p of the round-schedule scan, a point of MAJORITY_GRID: the scan reads
# the majority check's enumerations at it.
SCHEDULE_P = 0.1

# Per-index success probabilities of the one-round cross-check instances.
ROUND_GRID = ((0.0,), (0.3,), (1.0,), (0.9, 0.1), (1.0, 0.0), (0.75, 0.25), (0.5, 0.5))


class UnitarityError(InvariantError):
    """A matrix that must be unitary is not: a construction bug, so an invariant violation."""


def _check_unitary(mat: np.ndarray, name: str) -> None:
    """UnitarityError unless ``mat``, one matrix or a (k, d, d) stack of
    them, is unitary within UNITARY_TOL; the error gives the largest defect."""
    gram = mat.conj().swapaxes(-1, -2) @ mat
    gram -= np.eye(mat.shape[-1])  # in place: one fewer temporary the size of the stack
    defect = np.max(np.abs(gram))
    if not defect <= UNITARY_TOL:  # also catches NaN from a broken construction
        raise UnitarityError(f"{name} deviates from unitarity by {defect:.3e}")


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian, phases fixed.

    ``rng`` may also be a sequence of k generators: each draws its own
    Gaussian, and the (k, dim, dim) stack takes one QR and one phase fix.
    ``dim`` and ``rng`` are checked before anything is drawn.
    """
    dim = check_int("dim", dim, 2, MAX_DENSE_DIM)
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else rng if isinstance(rng, (list, tuple)) else ()
    if not rngs or not all(isinstance(g, np.random.Generator) for g in rngs):
        raise ValueError(f"rng must be a numpy Generator or a nonempty sequence of them, "
                         f"got {rng!r}")
    # Each generator's real then imaginary parts, in one draw of 2 dim^2 normals.
    parts = np.array([g.standard_normal((2, dim, dim)) for g in rngs])
    q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    return u[0] if one else u


def unitary_with_first_column(psi: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion of a real unit vector as column 0.

    Negated Householder reflection through psi + e0: it maps e0 to psi,
    is unitary for any unit psi (zero entries included), and the choice
    of sign avoids cancellation because psi's first component is
    nonnegative in every caller. A (k, d) stack of vectors gives the
    (k, d, d) stack of their completions, each the matrix its vector
    alone gives.
    """
    psi = np.asarray(psi, dtype=complex)
    v = psi.copy()
    v[..., 0] += 1.0
    nv2 = np.array([np.vdot(x, x).real for x in v.reshape(-1, v.shape[-1])])
    u = (2.0 * (v[..., :, None] * v.conj()[..., None, :]) / nv2.reshape(v.shape[:-1] + (1, 1))
         - np.eye(v.shape[-1], dtype=complex))
    if np.max(np.linalg.norm(u[..., :, 0] - psi, axis=-1)) > UNITARY_TOL:
        raise UnitarityError("completion does not reproduce the prescribed column")
    return u


def _flag_masks(dim: int, flag_sets) -> np.ndarray:
    """The (k, dim) flag-1 masks of k nonempty proper sets of flag indices,
    each index an integer in [0, dim - 1]."""
    masks = np.zeros((len(flag_sets), dim), dtype=bool)
    for mask, flag_indices in zip(masks, flag_sets):
        if not isinstance(flag_indices, Iterable):
            raise ValueError(f"flag indices must be a collection of integers, got {flag_indices!r}")
        flags = {check_int("flag index", i, 0, dim - 1) for i in flag_indices}
        if not 0 < len(flags) < dim:
            raise ValueError("flag partition must be nonempty and proper")
        mask[list(flags)] = True
    return masks


def _scenario_stack(unitary, flag_indices) -> tuple[np.ndarray, np.ndarray]:
    """A dense scenario (unitary A, flag-1 index set), or a (k, d, d) stack
    of unitaries with a sequence of k flag sets, as a (k, d, d) stack and
    its (k, d) flag-1 masks, after the checks: a numeric square matrix or a
    nonempty stack of them, d in [2, MAX_DENSE_DIM], one valid flag set per
    matrix, and UnitarityError for a non-unitary A."""
    a = np.asarray(unitary)
    if a.dtype.kind not in "biufc":
        raise ValueError(f"unitary must be numeric, got dtype {a.dtype}")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"unitary must be a square matrix or a nonempty (k, d, d) stack, "
                         f"got shape {a.shape}")
    dim = check_int("dim", a.shape[-1], 2, MAX_DENSE_DIM)
    flag_sets = (flag_indices,) if a.ndim == 2 else tuple(flag_indices)
    a = a.reshape(-1, dim, dim)
    if len(flag_sets) != len(a):
        raise ValueError(f"a stack of {len(a)} unitaries needs {len(a)} flag sets, "
                         f"got {len(flag_sets)}")
    masks = _flag_masks(dim, flag_sets)
    _check_unitary(a, "A")
    return a, masks


def _normalized_parts(psi: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Each row of psi restricted to its mask, normalized (zero when it has no mass)."""
    parts = np.where(masks, psi, 0.0)
    norms = _row_norms(parts)
    return parts / np.where(norms > 0.0, norms, 1.0)[:, None]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a (k, d) complex array: the same two
    BLAS dot products, since matmul's 1 x 1 products call the same dot."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def random_scenario(dim: int, seed) -> tuple[np.ndarray, frozenset[int] | tuple[frozenset, ...]]:
    """Random scenario (unitary, flag_indices): a Haar-like unitary and a
    random proper flag set, both drawn from default_rng(seed).

    ``seed`` may also be a sequence of k seeds: the unitaries then come as
    one (k, dim, dim) stack from ``random_unitary`` and the flag sets as a
    k-tuple, scenario j being the one seed[j] alone gives. ``dim`` and
    every seed are checked before anything is drawn.
    """
    dim = check_int("dim", dim, 2, MAX_DENSE_DIM)
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    if not seeds:
        raise ValueError("random_scenario needs at least one seed")
    for s in seeds:
        check_seed(s)
    rngs = [np.random.default_rng(s) for s in seeds]
    a = random_unitary(dim, rngs)
    flags = tuple(frozenset(int(i) for i in _draw_flags(rng, dim)) for rng in rngs)
    return (a[0], flags[0]) if one else (a, flags)


def _draw_flags(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A scenario's flag-1 indices, drawn after its unitary: a size in
    [1, dim - 1], then that many distinct indices."""
    return rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)


def grover_operator(unitary: np.ndarray, flag_indices) -> np.ndarray:
    """G = -A S0 A^-1 S1 as an explicit matrix, S1 flipping the flag indices;
    for a (k, d, d) stack and k flag sets, the stack of the k G."""
    a, masks = _scenario_stack(unitary, flag_indices)
    return _grover_matrix(a, np.where(masks, -1.0, 1.0)[:, None, :]).reshape(np.shape(unitary))


def _grover_matrix(a: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """-A S0 A^H S1 with S0 = 1 - 2|0><0| and S1 = diag(s1), s1 of +-1, for
    one A or a stack: the sign diagonals flip column signs, giving the
    four-matrix product's entries."""
    s0 = np.ones(a.shape[-1])
    s0[0] = -1.0
    return -(((a * s0) @ a.conj().swapaxes(-1, -2)) * s1)


def amplification_residual(unitary: np.ndarray, flag_indices) -> float | np.ndarray:
    """Distance of G A|0> from the 3-theta rotation target, up to global phase:
    theta from the flag-1 mass of A|0>, phi1/phi0 its normalized flag parts.

    A (k, d, d) stack with a sequence of k flag sets gives an array of the k
    residuals, each the float its scenario alone gives: the matrix work runs
    once on the stack, and only theta is computed scenario by scenario.
    """
    a, masks = _scenario_stack(unitary, flag_indices)
    residuals = _residuals(a, masks)
    return float(residuals[0]) if np.ndim(unitary) == 2 else residuals


def _residuals(a: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """amplification_residual of a checked (k, d, d) stack of unitaries
    and its (k, d) flag-1 masks, as an array of k residuals."""
    g = _grover_matrix(a, np.where(masks, -1.0, 1.0)[:, None, :])
    _check_unitary(g, "G")
    psi = a[:, :, 0]
    out = (g @ a[:, :, :1])[:, :, 0]
    # Each scenario's flag-1 mass sums its own contiguous run of the masses,
    # so its additions are those of a sum over that scenario alone.
    masses = np.abs(psi[masks]) ** 2
    ends = np.cumsum(np.count_nonzero(masks, axis=1)).tolist()
    thetas = [math.asin(min(1.0, math.sqrt(min(1.0, float(np.add.reduce(masses[start:end]))))))
              for start, end in zip([0, *ends], ends)]
    sin3 = np.array([[math.sin(3 * t)] for t in thetas])
    cos3 = np.array([[math.cos(3 * t)] for t in thetas])
    target = sin3 * _normalized_parts(psi, masks) + cos3 * _normalized_parts(psi, ~masks)
    overlap = (target.conj()[:, None, :] @ out[:, :, None])[:, 0, 0]
    size = np.abs(overlap)
    turn = size > 0.0
    out[turn] *= (size[turn] / overlap[turn])[:, None]
    return _row_norms(out - target)


def dense_amplification_check(dim: int, flag_indices, seed) -> float:
    """Residual of the rotation identity on a seeded random unitary; ``dim``,
    ``seed`` and the flag set are checked before the unitary is built."""
    dim = check_int("dim", dim, 2, MAX_DENSE_DIM)
    check_seed(seed)
    _flag_masks(dim, [flag_indices])
    return amplification_residual(random_unitary(dim, np.random.default_rng(seed)), flag_indices)


def _rotation(p: float) -> np.ndarray:
    """Single-qubit rotation taking |0> to sqrt(1-p)|0> + sqrt(p)|1>."""
    s, c = math.sqrt(p), math.sqrt(1.0 - p)
    return np.array([[c, -s], [s, c]])


def _vote_blocks(ps: np.ndarray) -> np.ndarray:
    """The (k, 2w, 2w) vote blocks of k probabilities, w = 2^ROUND_ONE_REPS:
    the majority row order applied to R(p)^(x)ROUND_ONE_REPS (x) I.

    The Kronecker product is a stack of outer products, one factor at a
    time. Each product puts the new factor's row and column axes in front
    of the accumulated ones, so the multiplications run over whole
    contiguous blocks, and every entry is the left-to-right product
    ((R R) R ...) I that folding np.kron over the factors forms. One
    gather then reads the entries in Kronecker order, rows permuted.
    """
    rotations = np.array([_rotation(p) for p in ps])
    factors = [rotations] * ROUND_ONE_REPS + [np.broadcast_to(np.eye(2), rotations.shape)]
    votes = factors[0]
    for factor in factors[1:]:
        votes = factor.reshape(factor.shape + (1,) * (votes.ndim - 1)) * votes[:, None, None]
    return votes.reshape(len(ps), -1)[:, _vote_entries(ROUND_ONE_REPS)]


@functools.cache
def _vote_entries(reps: int) -> np.ndarray:
    """Where _vote_blocks' product holds each entry of a vote block on
    reps vote qubits + 1 output qubit.

    The product's axes run (last factor's row, column, ..., first
    factor's row, column), while a block's row and column bits run first
    factor first. Its rows apply output ^= majority: row i of the block
    is row i ^ majority(i >> 1) of the Kronecker product. Read-only,
    since the cache hands the same array to every caller.
    """
    qubits = reps + 1
    dim = 2**qubits
    row = np.array([i ^ (bin(i >> 1).count("1") * 2 > reps) for i in range(dim)])[:, None]
    col = np.arange(dim)[None, :]
    flat = np.zeros((dim, dim), dtype=np.intp)
    for q in range(qubits):  # bit q of row and column, counted from the last factor
        flat += (((row >> q) & 1) * 2 + ((col >> q) & 1)) << (2 * (qubits - 1 - q))
    flat.flags.writeable = False
    return flat


def structured_vs_dense_round(instances) -> float | np.ndarray:
    """Max per-index deviation between one dense round and the engine.

    Builds the whole first round as explicit matrices -- the preparation
    (a controlled rotation per index), the reflection pair, and a
    majority vote on ROUND_ONE_REPS fresh runs feeding a new flag qubit
    -- then compares per-index flag-1/flag-0 masses against the
    structured engine after one round.

    The error-reduction step E1 is block-diagonal: an identity on
    flag 0 and a work x work vote block on flag 1 for each index. Each
    distinct p's block is built and checked for unitarity once, and E1
    acts on the state through a reshape, so the cost is linear in n. The
    blocks are built as stacks of at most SCENARIO_CHUNK p's
    (``_vote_blocks``), so their memory is bounded whatever the batch.

    ``instances`` may also be a nonempty list or tuple of instances: the
    result is then an array of their deviations, each the float that
    instance alone gives. Every instance's dimension is checked against
    MAX_ROUND_DIM before any of them is expanded to one class per index;
    the distinct p are those of the whole batch, and A1 and G1 are built
    and checked as one stack per n. An instance whose classes are all
    singletons is its own expansion and is used as it is.
    """
    one = isinstance(instances, ProblemInstance)
    batch = [instances] if one else list(instances) if isinstance(instances, (list, tuple)) else []
    if not batch or not all(isinstance(inst, ProblemInstance) for inst in batch):
        raise ValueError(f"instances must be a ProblemInstance or a nonempty list or tuple of "
                         f"them, got {instances!r}")
    work = 2 ** (ROUND_ONE_REPS + 1)
    for inst in batch:  # every cap, before any instance's n singleton classes are built
        if inst.n * 2 * work > MAX_ROUND_DIM:
            raise ValueError(f"dense round dimension {inst.n * 2 * work} exceeds {MAX_ROUND_DIM}")
    per_index = [inst if inst.n == len(inst.classes) else expand_classes(inst) for inst in batch]

    # E1 on index (x) oldflag (x) votes (x) newflag, applied to
    # G1 A1|0> (x) |0...0>: flag 0 keeps its amplitude in work slot 0, flag 1
    # takes column 0 of its index's vote block. The blocks are real.
    distinct = np.unique(np.concatenate([e.ps for e in per_index]))
    first_columns = np.empty((len(distinct), work))
    for start in range(0, len(distinct), SCENARIO_CHUNK):
        blocks = _vote_blocks(distinct[start:start + SCENARIO_CHUNK])
        for block in blocks:
            _check_unitary(block, "E1 vote block")
        first_columns[start:start + len(blocks)] = blocks[:, :, 0]

    deviations = np.empty(len(batch))
    by_n: dict[int, list[int]] = {}
    for j, inst in enumerate(batch):
        by_n.setdefault(inst.n, []).append(j)
    for n, members in by_n.items():
        # Preparation states on index (x) flag, then unitaries completing them.
        ps = np.array([per_index[j].ps for j in members])
        psi1 = np.zeros((len(members), 2 * n), dtype=complex)
        psi1[:, 0::2] = np.sqrt((1.0 - ps) / n)
        psi1[:, 1::2] = np.sqrt(ps / n)
        a1 = unitary_with_first_column(psi1)
        _check_unitary(a1, "A1")
        g1 = _grover_matrix(a1, np.tile([1.0, -1.0], n))
        _check_unitary(g1, "G1")
        for g, psi, j in zip(g1, psi1, members):
            after_g = g @ psi
            psi2 = np.zeros((n, 2, work), dtype=complex)
            psi2[:, 0, 0] = after_g[0::2]
            psi2[:, 1, :] = after_g[1::2, None] * first_columns[
                np.searchsorted(distinct, per_index[j].ps)]
            psi2 = psi2.reshape(n, 2, work // 2, 2)
            dense_mass = np.sum(np.abs(psi2) ** 2, axis=(1, 2))
            state, _ = build_state(per_index[j], rounds=1)
            engine_mass = np.column_stack([state.w0, state.w1])
            deviations[j] = np.max(np.abs(dense_mass - engine_mass))
    return float(deviations[0]) if one else deviations


def simple_search_cost(n: int) -> int:
    """Query cost of the boost-first baseline: per-index majority to error
    1/(100 n), then Grover on top with ceil(pi/4 sqrt(n)) iterations."""
    n = check_int("n", n, 2, MAX_BASELINE_N)
    iters = math.ceil(math.pi / 4 * math.sqrt(n))
    return iters * repetitions_for(1.0 / (VERIFICATION_CONFIDENCE * n))


def block_recursion_cost(n: int) -> int:
    """Query cost of the block-recursive baseline.

    T(n) = n for n <= 64; otherwise
    T(n) = T(b) * ceil(sqrt(n / b)) + ceil(log2 n) with b = ceil(log2 n)^2.
    Constants are normalized to 1; this is a cost model, not a simulator.
    """
    n = check_int("n", n, 1)
    if n <= 64:
        return n
    b = _ceil_log2(n) ** 2
    return block_recursion_cost(b) * _ceil_sqrt_ratio(n, b) + _ceil_log2(n)


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _ceil_sqrt_ratio(n: int, b: int) -> int:
    """Smallest integer s with s^2 * b >= n (exact, no floating point)."""
    s = math.isqrt((n - 1) // b)
    while s * s * b < n:
        s += 1
    return s


@functools.cache
def _majority_ones(r: int) -> np.ndarray:
    """Popcount of every r-bit outcome string with a majority of ones.

    Ascending outcome order, read-only, one byte per string; the popcount
    is a shift-and-add over the bits (``np.bitwise_count`` needs numpy 2).
    """
    outcomes = np.arange(2**r, dtype=np.uint32)
    ones = np.zeros(2**r, dtype=np.uint8)
    for bit in range(r):
        ones += ((outcomes >> bit) & 1).astype(np.uint8)
    majority = ones[ones > r // 2]
    majority.flags.writeable = False
    return majority


def enumerate_majority(r: int, p) -> float | np.ndarray:
    """Exhaustive 2^r oracle for majority_prob: sums every outcome string.

    Each majority string contributes p^ones (1-p)^(r-ones), added in
    ascending outcome order; ``np.add.accumulate`` keeps that sequential
    order (``np.sum`` would sum pairwise), so the result is the same
    float as a plain loop over the strings. r is capped at MAX_ENUM_R,
    since the cached popcounts take 2^(r-1) bytes.

    ``p`` may also be a nonempty list or tuple of probabilities, each
    checked like a scalar: the result is then an array with the float
    each p alone gives, the rows of weights being accumulated together
    in passes of at most _ENUM_ENTRIES entries.
    """
    r = check_int("r", r, 1, MAX_ENUM_R)
    one = not isinstance(p, (list, tuple))
    ps = [check_prob("p", p)] if one else [check_prob("p", x) for x in p]
    if not ps:
        raise ValueError("p must be a probability or a nonempty list or tuple of them")
    if r % 2 == 0:
        raise ValueError(f"r must be odd, got {r}")
    ones = _majority_ones(r)
    weight = np.array([[x**j * (1.0 - x) ** (r - j) for j in range(r + 1)] for x in ps])
    sums = np.empty(len(ps))
    rows = max(1, _ENUM_ENTRIES // len(ones))
    for start in range(0, len(ps), rows):
        part = slice(start, start + rows)
        terms = weight[part, ones]
        sums[part] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]  # in place, no 2nd array
    return float(sums[0]) if one else sums


def majority_oracle_gap(max_r: int) -> float:
    """Max |majority_prob - enumeration| over odd r <= max_r and MAJORITY_GRID.

    max_r must lie in [1, MAX_ENUM_R]; majority_prob and the enumeration
    each evaluate the whole grid in one call per r.
    """
    return _majority_gap(max_r)[0]


def _majority_gap(max_r: int) -> tuple[float, dict[int, float]]:
    """majority_oracle_gap(max_r), with the enumeration's column at
    SCHEDULE_P keyed by r: each entry is the float that
    enumerate_majority(r, SCHEDULE_P) gives."""
    max_r = check_int("max_r", max_r, 1, MAX_ENUM_R)
    gap, column = 0.0, {}
    for r in range(1, max_r + 1, 2):
        enumerated = enumerate_majority(r, MAJORITY_GRID)
        engine = majority_prob(r, np.array(MAJORITY_GRID))
        gap = max(gap, float(np.max(np.abs(engine - enumerated))))
        column[r] = float(enumerated[MAJORITY_GRID.index(SCHEDULE_P)])
    return gap, column


@dataclass(frozen=True)
class FactCheck:
    """Outcome of one fact check; ``str()`` is its one-line report."""

    name: str
    value: object
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}: {'ok' if self.ok else 'FAIL'}"


def _oracle_schedule(errors: dict[int, float]) -> tuple[int, ...]:
    """r_1, r_2, r_3 by one scan of odd r with the 2^r enumeration oracle:
    r_k is the first odd r with error <= 2^-(k+5) at p = SCHEDULE_P.

    ``errors`` holds the enumerated errors at SCHEDULE_P already known by
    r (the majority check's column); the scan reads those and enumerates
    each r past them once, adding it to ``errors``.
    """
    def error(r: int) -> float:
        if r not in errors:
            errors[r] = enumerate_majority(r, SCHEDULE_P)
        return errors[r]

    schedule, r = [], 1
    for k in (1, 2, 3):
        while error(r) > 2.0 ** -(k + 5):
            r += 2
        schedule.append(r)
    return tuple(schedule)


def run_fact_checks(
    scenarios: int, dims, seed: int, max_r: int, round_grid=ROUND_GRID
) -> tuple[FactCheck, ...]:
    """Run the four fact checks and return their records in report order.

    rotation-oracle: the dense 3-theta residual over ``scenarios`` random
    scenarios (at most MAX_SCENARIOS), scenario i of dimension
    dims[i % len(dims)] and seed seed + i, evaluated in stacks of at most
    SCENARIO_CHUNK per dimension. majority-oracle: majority_prob against
    2^r enumeration for odd r <= max_r. round-schedule: r_1..r_3 against
    the enumeration scan and PINNED_SCHEDULE. round-crosscheck: one dense
    round against the engine on each tuple of per-index probabilities in
    ``round_grid`` (an index is a solution when p >= 1/2), all in one
    stacked call. Arguments are checked before any check runs.
    """
    scenarios = check_int("scenarios", scenarios, 1, MAX_SCENARIOS)
    seed = check_int("seed", seed, 0)
    dims = tuple(check_int("dim", d, 2, MAX_DENSE_DIM) for d in dims)
    if not dims:
        raise ValueError("fact checks need at least one dimension")
    gap, errors = _majority_gap(max_r)  # rejects a bad max_r before the dense work
    # Stacks of at most SCENARIO_CHUNK scenarios of one dimension; each
    # residual lands at its scenario's place, so the maximum is taken in
    # scenario order. A chunk is drawn as random_scenario draws it, with
    # the flag sets written straight into masks: the draws are valid by
    # construction, so only A's unitarity is checked.
    stacks: dict[int, list[int]] = {}
    for i in range(scenarios):
        stacks.setdefault(dims[i % len(dims)], []).append(i)
    residuals = np.empty(scenarios)
    for dim, members in stacks.items():
        for start in range(0, len(members), SCENARIO_CHUNK):
            chunk = members[start:start + SCENARIO_CHUNK]
            rngs = [np.random.default_rng(seed + i) for i in chunk]
            a = random_unitary(dim, rngs)
            masks = np.zeros((len(chunk), dim), dtype=bool)
            for mask, rng in zip(masks, rngs):
                mask[_draw_flags(rng, dim)] = True
            _check_unitary(a, "A")
            residuals[chunk] = _residuals(a, masks)
    residual = max(residuals.tolist())
    got = tuple(schedule_for_round(k) for k in (1, 2, 3))
    oracle = _oracle_schedule(errors)
    deviation = float(np.max(structured_vs_dense_round([
        ProblemInstance(
            tuple(IndexClass(p=p, count=1, is_solution=p >= 0.5) for p in ps), strict=False)
        for ps in round_grid
    ])))
    return (
        FactCheck("rotation-oracle", residual, residual <= DENSE_TOL,
                  f"max residual {residual:.3e} (tol {DENSE_TOL:.0e}) over {scenarios} scenarios"),
        FactCheck("majority-oracle", gap, gap <= ENUM_TOL,
                  f"max gap {gap:.3e} (tol {ENUM_TOL:.0e}) odd r <= {max_r}"),
        FactCheck("round-schedule", got, got == PINNED_SCHEDULE == oracle,
                  f"r1,r2,r3 = {got} (oracle {oracle}, expected {PINNED_SCHEDULE})"),
        FactCheck("round-crosscheck", deviation, deviation <= ROUND_TOL,
                  f"max deviation {deviation:.3e} (tol {ROUND_TOL:.0e})"),
    )
