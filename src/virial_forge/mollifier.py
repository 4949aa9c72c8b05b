"""Replace step discontinuities with C^1 ramps and restore zero energy.

Every jump of a piecewise profile is replaced by a cubic smoothstep ramp of
half-width delta.  Jumps with both sides positive get a symmetric ramp over
[b - delta, b + delta] (midpoint value at the old breakpoint); jumps touching
zero get a one-sided ramp on the positive side, so non-negativity and the
support are preserved exactly.  Plateau values away from the ramps are
unchanged, and the smoothstep's zero end slopes make every seam C^1.

Smoothing perturbs the energy balance, so ``rebalance`` re-solves each
family's free parameter on the mollified profiles with one bracketed Brent
solve for all of ``solvers.FAMILIES``; the nested potential integral stays
exact on ramps (see ``functionals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from . import functionals, solvers
from .errors import NoRootError, ProfileError, RampOverlapError
from .profiles import CONSTANT, RAMP, AngularProfile, Piece, PiecewiseProfile, SeparableAnsatz
from .solvers import RootBracket, brentq

__all__ = [
    "MollifySpec",
    "default_delta",
    "mollify_profile",
    "mollify_angular",
    "mollify",
    "rebalance",
    "seam_smoothness",
    "functional_drift",
]

# Values closer than this (relative) across a breakpoint count as continuous.
_JUMP_REL_TOL = 1e-12


@dataclass(frozen=True)
class MollifySpec:
    """Transition half-width of the ramps that smooth all three factors.

    ``delta`` is in the units of the mollified variable and must stay below
    half the smallest piece width so ramps cannot collide.
    """

    delta: float

    def __post_init__(self):
        if self.delta < 0.0 or not math.isfinite(self.delta):
            raise ProfileError("mollification half-width must be finite and >= 0")


def default_delta(ansatz, fraction=1e-3):
    """fraction * (smallest piece width of the spatial, momentum and angular factors)."""
    return fraction * min(ansatz.spatial.smallest_width, ansatz.momentum.smallest_width,
                          ansatz.angular.smallest_width)


def _is_jump(left, right):
    gap = abs(left - right)
    return gap > _JUMP_REL_TOL * max(1.0, abs(left), abs(right))


def _mollify_pieces(pieces, delta):
    """Insert smoothstep ramps at every jump of an ordered piece tuple."""
    if delta == 0.0:
        return tuple(pieces)
    if any(p.kind == RAMP for p in pieces):
        raise ProfileError("profile already carries ramps; mollify step profiles only")

    # One event per discontinuous interior boundary.
    events = []  # (boundary_index, ramp_lo, ramp_hi, left_value, right_value)
    for i in range(len(pieces) - 1):
        b = pieces[i].hi
        vl = pieces[i].right_value()
        vr = pieces[i + 1].left_value()
        if not _is_jump(vl, vr):
            continue
        if vl > 0.0 and vr > 0.0:
            lo, hi = b - delta, b + delta
        elif vl > 0.0:
            lo, hi = b - delta, b  # downward to zero: ramp inside the support
        else:
            lo, hi = b, b + delta  # upward from zero: ramp inside the support
        events.append((i, lo, hi, vl, vr))

    # A ramp must stay inside the two pieces adjacent to its breakpoint.
    for i, lo, hi, _, _ in events:
        if lo < pieces[i].lo:
            raise RampOverlapError(
                f"ramp at breakpoint {pieces[i].hi} would cross the piece edge "
                f"{pieces[i].lo}",
                pair=(pieces[i].lo, pieces[i].hi),
            )
        if hi > pieces[i + 1].hi:
            raise RampOverlapError(
                f"ramp at breakpoint {pieces[i].hi} would cross the piece edge "
                f"{pieces[i + 1].hi}",
                pair=(pieces[i].hi, pieces[i + 1].hi),
            )
    for (i, _, hi_a, _, _), (j, lo_b, _, _, _) in zip(events, events[1:]):
        if hi_a > lo_b:
            raise RampOverlapError(
                f"ramps at breakpoints {pieces[i].hi} and {pieces[j].hi} overlap",
                pair=(pieces[i].hi, pieces[j].hi),
            )

    cut_left = [0.0] * len(pieces)   # intrusion into each piece from its left edge
    cut_right = [0.0] * len(pieces)  # intrusion from its right edge
    ramp_after = {}
    for i, lo, hi, vl, vr in events:
        cut_right[i] = pieces[i].hi - lo
        cut_left[i + 1] = hi - pieces[i + 1].lo
        ramp_after[i] = Piece.ramp(vl, vr, lo, hi)

    out = []
    for i, p in enumerate(pieces):
        lo = p.lo + cut_left[i]
        hi = p.hi if math.isinf(p.hi) else p.hi - cut_right[i]
        if hi > lo:
            if p.kind == CONSTANT:
                out.append(Piece.constant(p.value, lo, hi))
            else:
                # Re-anchor so the power law stays the same function.
                value = p.value * (p.lo / lo) ** p.exponent if lo != p.lo else p.value
                out.append(Piece.power(value, p.exponent, lo, hi))
        if i in ramp_after:
            out.append(ramp_after[i])
    return tuple(out)


def mollify_profile(profile, delta):
    """C^1 version of a radial step profile (plateaus unchanged)."""
    return PiecewiseProfile(_mollify_pieces(profile.pieces, delta), profile.domain_label)


def mollify_angular(angular, delta):
    """C^1 version of an angular profile; the domain endpoints need no ramp."""
    return AngularProfile(_mollify_pieces(angular.pieces, delta))


def mollify(ansatz, spec):
    """Mollify all three factors of an ansatz."""
    return SeparableAnsatz(mollify_profile(ansatz.spatial, spec.delta),
                           mollify_profile(ansatz.momentum, spec.delta),
                           mollify_angular(ansatz.angular, spec.delta))


def rebalance(params, spec, energy_tol=1e-10):
    """Re-solve the family's free parameter on the mollified profiles.

    Returns ``(new_params, mollified_ansatz)`` where the free parameter
    (radius for the uniform ball, halo level for the disjoint core-halo,
    momentum cutoff for the monotonic family) has been re-solved so the
    mollified datum's total energy vanishes to ``energy_tol``.

    Starting from the step solve x0, the root is bracketed on [x0/2, x0]
    (hi doubled until the energy changes sign) and refined by Brent
    iteration.  With ``spec.delta == 0`` this is the step solve exactly.
    """
    family = solvers.family_of(params)
    x0 = family.solve(**{name: getattr(params, name) for name in family.inputs})
    if spec.delta == 0.0:
        new_params = replace(params, **{family.free: x0})
        return new_params, family.ansatz(new_params)

    # The factor x does not move is the same step profile at every x, so
    # its smoothed copy, and the integrals memoized on it, are made once.
    smooth = lru_cache(maxsize=None)(partial(mollify_profile, delta=spec.delta))

    def mollified(x):
        step = family.ansatz(replace(params, **{family.free: x}))
        return SeparableAnsatz(smooth(step.spatial), smooth(step.momentum),
                               mollify_angular(step.angular, spec.delta))

    def residual(x):
        return functionals.total_energy(mollified(x))

    bracket = RootBracket.expand(residual, 0.5 * x0, x0)
    x = bracket.lo if bracket.lo == bracket.hi else brentq(
        residual, bracket.lo, bracket.hi, xtol=1e-15 * x0
    )
    if abs(residual(x)) > energy_tol:
        raise NoRootError(f"rebalanced energy residual {residual(x):.3e}")
    return replace(params, **{family.free: x}), mollified(x)


def seam_smoothness(profile):
    """Worst one-sided derivative mismatch across ramp seams.

    Each ramp is examined in its own normalized coordinates (unit ramp
    width, values scaled by the larger endpoint magnitude): at both seams
    the left and right difference quotients with step h = 1e-6 are
    compared.  A C^1 seam gives a discrepancy of order h; a kinked (merely
    continuous) seam gives an order-one discrepancy regardless of h.
    """
    h = 1e-6
    worst = 0.0
    for p in profile.pieces:
        if p.kind != RAMP:
            continue
        width = p.hi - p.lo
        vscale = max(abs(p.left), abs(p.right))
        if vscale == 0.0:
            continue

        def g(t):
            return profile._value(p.lo + t * width) / vscale

        for seam in (0.0, 1.0):
            d_minus = (g(seam) - g(seam - h)) / h
            d_plus = (g(seam + h) - g(seam)) / h
            worst = max(worst, abs(d_plus - d_minus))
    return worst


_DRIFT_KEYS = ("mass", "kinetic", "potential", "total_energy", "virial", "l32_norm")


def functional_drift(step_ansatz, mollified_ansatz):
    """Per-functional |mollified - step| table (values and drifts)."""
    step = functionals.evaluate(step_ansatz)
    moll = functionals.evaluate(mollified_ansatz)
    out = {}
    for key in _DRIFT_KEYS:
        s, m = getattr(step, key), getattr(moll, key)
        out[key] = {"step": s, "mollified": m, "drift": abs(m - s)}
    return out
