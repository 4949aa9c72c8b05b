"""Replace value jumps with smoothstep ramps and restore zero energy.

Every jump of a piecewise profile, radial or angular, is replaced by a cubic
smoothstep ramp of half-width delta.  A jump is any difference above 1e-12
relative to the larger side, however small both sides are.  Jumps with both
sides positive get a symmetric ramp over [b - delta, b + delta]; jumps
touching zero get a one-sided ramp on the positive side, so non-negativity
and the support are preserved exactly.  One pass over the pieces trims each
to the stretch between the ramp before it and the ramp after it, with its
formula unchanged, so values away from the ramps are those of the step
profile.  Each ramp takes its end values from its neighbours there, so the
profile is continuous; next to plateaus (every ramp of a family datum) the
smoothstep's zero end slopes make the seams C^1 as well.  So a family datum
is C^1 at every former value jump only: slope jumps without a value jump
(the monotonic family at r1 and r2) are left as they are, and
``seam_smoothness`` examines the ends of ramps only.

Smoothing perturbs the energy balance, so ``rebalance`` re-solves each
family's free parameter on the mollified profiles: core-halo shells by the
step solve's energy quadratic, any other datum by one Brent solve bracketed
by ``RootBracket.expand`` from the step solve; ``check_criteria`` judges
the energy at the root.
Ramp moments and nested self terms are closed-form Bernstein sums; ramp
fractional powers and kinetic weights take GL14, so ``method=fixed-rule``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import functionals, solvers
from .errors import ProfileError, RampOverlapError
from .profiles import RAMP, Piece, PiecewiseProfile, SeparableAnsatz
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


class MollifySpec(namedtuple("MollifySpec", "delta")):
    """Transition half-width of the ramps that smooth all three factors.

    ``delta`` is in the units of the mollified variable and must stay below
    half the smallest piece width so ramps cannot collide.
    """

    __slots__ = ()

    def __new__(cls, delta):
        if delta < 0.0 or not math.isfinite(delta):
            raise ProfileError("mollification half-width must be finite and >= 0")
        return super().__new__(cls, delta)


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
    hi).  A ramp must fit between ``start`` and the far edge of the next piece,
    and keep a nonzero width once its ends are rounded.
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
                    "crossing a piece edge or the ramp before it")
            if lo == hi:
                raise RampOverlapError(
                    f"ramp half-width {delta!r} rounds to zero width at breakpoint {b!r}")
        if lo > start:
            p = Piece(p.kind, start, lo, p.value_at(start), p.exponent)
            out.append(p)
        if jump:
            out.append(Piece.ramp(p.value_at(lo), nxt.value_at(hi), lo, hi))
        start = hi
    return tuple(out)


def mollify_profile(profile, delta):
    """Continuous version of a step profile, radial or angular: a ramp at every value jump."""
    return profile._replace(pieces=_mollify_pieces(profile.pieces, delta))


def mollify(ansatz, spec):
    """Mollify all three factors of an ansatz."""
    return SeparableAnsatz(mollify_profile(ansatz.spatial, spec.delta),
                           mollify_profile(ansatz.momentum, spec.delta),
                           mollify_profile(ansatz.angular, spec.delta))


def rebalance(params, step_ansatz, spec):
    """Re-solve the family's free parameter on the mollified profiles.

    ``params`` is a step datum whose free parameter x0 (radius, halo level or
    momentum cutoff) is the step solve; its ``step_ansatz`` is smoothed first,
    so a ramp misfit names the datum's own breakpoint.  Returns
    ``(new_params, mollified_ansatz)``; with ``spec.delta == 0``, the given pair.

    Disjoint shells (r1 < r2 < r3) leave the core alone and scale every halo
    piece, ramps included, with the level, so it is the smaller positive root
    of the energy quadratic of the spatial factor mollified at level 1
    (``solvers.corehalo_level``), at which the factor is mollified once more.
    Any other datum takes the Brent root of its total energy, bracketed by
    ``RootBracket.expand`` outward from x0; a point rebuilds and smooths only
    the factor the free parameter moves (``Family.moves``) and is evaluated once.
    """
    if spec.delta == 0.0:
        return params, step_ansatz
    family = solvers.family_of(params)
    x0 = getattr(params, family.free)
    first = mollify(step_ansatz, spec)
    factors = list(first._values())  # a point other than x0 replaces the moved one
    slot = SeparableAnsatz._fields.index(family.moves)

    def moved(x):
        step = family.factor(params._replace(**{family.free: x}), family.moves)
        return PiecewiseProfile(_mollify_pieces(step.pieces, spec.delta), step.domain_label)

    if family.name == "core-halo" and params.r1 < params.r2 < params.r3:
        unit = moved(1.0).pieces
        alpha = solvers.corehalo_level(
            functionals._EXACT.kinetic_energy(first.momentum),
            [p for p in unit if p.hi <= params.r1],
            [p for p in unit if p.lo >= params.r2 and not p.is_zero],
            lambda: f"r1={params.r1}, r2={params.r2}, r3={params.r3}, p={params.p}, "
                    f"delta={spec.delta}")[0]
        return (params._replace(alpha=alpha),
                SeparableAnsatz(moved(alpha), first.momentum, first.angular))
    points = {}

    def point(x):
        """(total energy, mollified ansatz) at free value x."""
        if x not in points:
            ansatz = first
            if x != x0:
                factors[slot] = moved(x)
                ansatz = SeparableAnsatz(*factors)
            points[x] = functionals.total_energy(ansatz), ansatz
        return points[x]

    def residual(x):
        return point(x)[0]

    bracket = RootBracket.expand(residual, x0)
    x = brentq(residual, bracket.lo, bracket.hi, xtol=1e-15 * x0)
    return params._replace(**{family.free: x}), point(x)[1]


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


def functional_drift(step_report, mollified_report):
    """Per-functional |mollified - step| table (values and drifts) of two ``FunctionalReport``s."""
    out = {}
    for key in _DRIFT_KEYS:
        s, m = getattr(step_report, key), getattr(mollified_report, key)
        out[key] = {"step": s, "mollified": m, "drift": abs(m - s)}
    return out
