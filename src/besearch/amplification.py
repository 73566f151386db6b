"""One exact round of amplitude amplification on a structured state.

The reflection pair G = -A S0 A^-1 S1 rotates the state by 2*theta in
the plane spanned by its normalized flag-1 and flag-0 components, taking
the flag-1 weight from sin(theta) to sin(3*theta). Componentwise that is
a scaling of every flag-1 amplitude by g1 = sin(3t)/sin(t) = 3 - 4sin^2(t)
and every flag-0 amplitude by g0 = cos(3t)/cos(t) = 1 - 4sin^2(t), so each
class's flag-1 mass scales by g1^2 and its flag-0 mass by g0^2; the
closed forms are used so the endpoints theta in {0, pi/2} need no special
casing. The simulator knows theta exactly (amplification itself would
work without knowing it) and recomputes it from the state at each call.
"""
from __future__ import annotations

import math

import numpy as np

from .model import NORM_TOL, InvariantError, StructuredState, check_prob


def amplification_factors(theta: float) -> tuple[float, float]:
    """Exact amplitude scalings (g1, g0) = (3 - 4sin^2, 1 - 4sin^2) at theta.

    At theta = 0 this is the small-angle limit (3, 1); at theta = pi/2 it
    is (-1, -3), where g0 is irrelevant because the flag-0 mass is zero.
    Either factor may be negative -- amplitudes are signed reals. theta
    must be a real number in [0, pi/2] (``check_prob`` with that interval).
    """
    return _gains(check_prob("theta", theta, math.pi / 2, "pi/2"))


def _gains(theta: float) -> tuple[float, float]:
    """The core of ``amplification_factors``, unchecked: (g1, g0) at a
    float theta in [0, pi/2]."""
    s2 = math.sin(theta) ** 2
    return 3.0 - 4.0 * s2, 1.0 - 4.0 * s2


def _amplify(w1: np.ndarray, w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One amplification round on the class arrays of a normalized state:
    (w1 g1^2, w0 g0^2), with sin^2(theta) the flag-1 share of the total mass."""
    # Summed once; the total is the same float total_mass returns.
    flag1 = float(np.add.reduce(w1))
    total = flag1 + float(np.add.reduce(w0))
    if not abs(total - 1.0) <= NORM_TOL:  # NaN fails too
        raise InvariantError("state is not normalized")
    # A share of the actual total keeps a rounding deficit in the total as
    # it is; taking sin^2 as sum(w1) alone would multiply the deficit by
    # about 9 per round once theta nears pi/2.
    s = min(1.0, flag1 / total)
    g1, g0 = _gains(math.asin(math.sqrt(s)))
    return w1 * g1**2, w0 * g0**2


def apply_amplification(state: StructuredState) -> StructuredState:
    """Apply one amplification round G to a normalized structured state.

    Every class's flag-1 mass is scaled by g1^2 and its flag-0 mass by
    g0^2, with sin^2(theta) recomputed as the flag-1 share of the state's
    total mass. Norm is preserved exactly: g1^2 sin^2 + g0^2 cos^2 = 1.
    """
    return StructuredState._adopt(*_amplify(state.w1, state.w0))
