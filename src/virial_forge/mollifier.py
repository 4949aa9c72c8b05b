"""Replace step discontinuities with C^1 ramps and restore zero energy.

Every jump of a piecewise profile, radial or angular, is replaced by a cubic
smoothstep ramp of half-width delta.  A jump is any difference above 1e-12
relative to the larger side, however small both sides are.  Jumps with both
sides positive get a symmetric ramp over [b - delta, b + delta]; jumps
touching zero get a one-sided ramp on the positive side, so non-negativity
and the support are preserved exactly.  One pass over the pieces trims each
to the stretch between the ramp before it and the ramp after it, with its
formula unchanged, so values away from the ramps are those of the step
profile.  Each ramp takes its end values from its neighbours there, so the
profile is continuous; next to plateaus (every family datum) the
smoothstep's zero end slopes make the seams C^1 as well.

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
from .profiles import RAMP, Piece, SeparableAnsatz
from .solvers import RootBracket, brentq

__all__ = [
    "MollifySpec",
    "default_delta",
    "mollify_profile",
    "mollify",
    "rebalance",
    "seam_smoothness",
    "functional_drift",
]

# Values closer than this, relative to the larger, count as continuous.
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
    return abs(left - right) > _JUMP_REL_TOL * max(abs(left), abs(right))


def _mollify_pieces(pieces, delta):
    """Insert a smoothstep ramp at every jump of an ordered piece tuple, in one pass.

    Each piece keeps [start, lo): ``start`` is the end of the ramp before it
    (else its own lo) and ``lo`` the start of the ramp after it (else its own
    hi).  A ramp must fit between ``start`` and the far edge of the next piece.
    """
    if delta == 0.0:
        return tuple(pieces)
    if any(p.kind == RAMP for p in pieces):
        raise ProfileError("profile already carries ramps; mollify step profiles only")
    out, start = [], pieces[0].lo
    for p, nxt in zip(pieces, (*pieces[1:], None)):
        b = lo = hi = p.hi
        jump = nxt is not None and _is_jump(p.right_value(), nxt.left_value())
        if jump:
            lo = b - delta if p.right_value() > 0.0 else b
            hi = b + delta if nxt.left_value() > 0.0 else b
            if lo < start or hi > nxt.hi:
                raise RampOverlapError(
                    f"ramp [{lo}, {hi}] at breakpoint {b} would leave [{start}, {nxt.hi}], "
                    "crossing a piece edge or the ramp before it",
                    pair=(start, nxt.hi),
                )
        if lo > start:
            p = replace(p, lo=start, hi=lo, value=p.value_at(start))
            out.append(p)
        if jump:
            out.append(Piece.ramp(p.value_at(lo), nxt.value_at(hi), lo, hi))
        start = hi
    return tuple(out)


def mollify_profile(profile, delta):
    """C^1 version of a step profile, radial or angular (plateaus unchanged)."""
    return replace(profile, pieces=_mollify_pieces(profile.pieces, delta))


def mollify(ansatz, spec):
    """Mollify all three factors of an ansatz."""
    return SeparableAnsatz(mollify_profile(ansatz.spatial, spec.delta),
                           mollify_profile(ansatz.momentum, spec.delta),
                           mollify_profile(ansatz.angular, spec.delta))


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

    # The factors x does not move are the same step profiles at every x, so
    # their smoothed copies, and the integrals memoized on them, are made once.
    smooth = lru_cache(maxsize=None)(partial(mollify_profile, delta=spec.delta))

    def mollified(x):
        step = family.ansatz(replace(params, **{family.free: x}))
        return SeparableAnsatz(smooth(step.spatial), smooth(step.momentum), smooth(step.angular))

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
