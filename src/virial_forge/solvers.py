"""Zero-energy solves for the three ansatz families and the virial threshold.

Each family has one free parameter fixed by requiring kinetic plus potential
energy to vanish exactly:

* uniform ball: the spatial radius, R = 3 / (5 KE(P)), in closed form;
* disjoint core-halo: the halo level, the positive root of an exact
  quadratic in it, for step and mollified data (``mollifier.rebalance``);
* monotonic core-halo: the momentum cutoff, by Brent iteration on a
  bracket in closed form (the kinetic term is strictly increasing in it).

A solve returns its root; ``functionals.check_criteria`` judges its energy.

Brent iteration (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) is ``brentq``, a step-for-step port of the C
routine behind ``scipy.optimize.brentq`` at its default tolerances, so its
roots are bit-identical to scipy's while the package never imports scipy
for a root.

``FAMILIES`` is the one place a family is defined: its params class, free
parameter, the factor that parameter moves, spatial-profile builder and
exact zero-energy solve; the step ansatz (``Family.ansatz``, also bound as
``uniform_ansatz``, ``core_halo_ansatz`` and ``monotonic_ansatz``) is built
the same way for all three.  The params classes are named tuples: each
field is checked by the profile builder that consumes it (``uniform_eta``,
``core_halo_eta``, ``monotonic_eta``, ``momentum_ball``,
``AngularProfile.cutoff``).

The angular threshold a* = 1 - 1/S (S the spatial*momentum virial factor)
marks where the virial reaches -1/2; any cutoff at or below a* certifies
the virial hypothesis.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import functionals
from .errors import (
    BracketError,
    DegenerateFactorError,
    NoPositiveRootError,
    NoRootError,
    ThresholdUnreachableError,
)
from .profiles import (
    AngularProfile,
    Piece,
    SeparableAnsatz,
    check_positive,
    check_radii,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    uniform_eta,
)

__all__ = [
    "FAMILIES",
    "Family",
    "family_of",
    "UniformParams",
    "CoreHaloParams",
    "MonotonicParams",
    "RootBracket",
    "brentq",
    "uniform_ansatz",
    "core_halo_ansatz",
    "monotonic_ansatz",
    "solve_uniform_R",
    "corehalo_energy_quadratic",
    "corehalo_level",
    "solve_corehalo_alpha",
    "solve_monotonic_P",
    "solve_threshold_a",
]

AROUND_EPS = tuple(2.0**k for k in range(-9, 18, 2))  # probes reach (1 + 2^17) x0
# scipy's default (and smallest allowed) relative tolerance of brentq.
_BRENT_RTOL = 4 * sys.float_info.epsilon


class UniformParams(namedtuple("UniformParams", "r p a")):
    """Uniform ball of radius r with momentum cutoff p and angular cutoff a."""

    __slots__ = ()


class CoreHaloParams(namedtuple("CoreHaloParams", "r1 r2 r3 p alpha a")):
    """Disjoint core [0, r1] plus halo [r2, r3] at level alpha (> 0)."""

    __slots__ = ()


class MonotonicParams(namedtuple("MonotonicParams", "r1 r2 r3 n p a")):
    """Singly-supported profile: core to r1, (r1/r)**n atmosphere, skin to r3."""

    __slots__ = ()


class RootBracket(namedtuple("RootBracket", "lo hi")):
    """Interval with a sign change of a scalar residual."""

    __slots__ = ()

    @classmethod
    def expand(cls, f, x0):
        """Probe outward from x0 on the side of a rising f's root until f changes sign.

        The probes are x0 / (1 + eps) if f(x0) > 0, else x0 (1 + eps), per eps
        of AROUND_EPS.  Returns the last two probes (x0 the first); an x0 <= 0
        raises BracketError at once.
        """
        if not x0 > 0.0:
            raise BracketError(f"cannot bracket around {x0!r}: need x0 > 0")
        f0 = f(x0)
        if f0 == 0.0:
            return cls(x0, x0)
        last = x0
        for eps in AROUND_EPS:
            far = x0 / (1.0 + eps) if f0 > 0.0 else x0 * (1.0 + eps)
            if f0 * f(far) <= 0.0:
                return cls(min(last, far), max(last, far))
            last = far
        raise BracketError(f"no sign change on [{min(x0, last)!r}, {max(x0, last)!r}]")


def brentq(f, a, b, xtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, as ``scipy.optimize.brentq``.

    A step-for-step port of scipy's C routine at its default rtol: the same
    sign test, update order and interpolate/extrapolate/bisect choice, with
    a, b and every f(x) taken as floats, so the iterates and the root match
    it bit for bit.  Raises ValueError (scipy's messages) when xtol <= 0,
    when f(a) and f(b) have the same sign or when f returns NaN, and
    NoRootError when ``maxiter`` iterations do not converge.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C divides to +-inf or NaN here; both bisect below
            # min(b, a) is C's MIN(a, b), NaN included.
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NoRootError(f"Brent iteration did not converge in {maxiter} iterations, "
                      f"last x={xcur!r}")


def solve_uniform_R(p):
    """Zero-energy radius of the uniform ball: R = 3 / (5 KE(P))."""
    check_positive(p, "momentum cutoff")
    return 3.0 / (5.0 * functionals.kinetic_energy_ball(p))


def corehalo_energy_quadratic(ke, core, halo):
    """Coefficients (A, B, C) with zero energy iff A a^2 + B a + C = 0.

    ``core`` are the spatial pieces the halo level a leaves alone, ``halo``
    the nonzero ones at a = 1, which a scales, and ``ke`` the kinetic energy:
    m2(a) = m2_core + a m2_halo, the nested mass integral N(a) = N_core +
    a m2_core m1_halo + a^2 N_halo, and g(a) = KE m2(a)^2 - N(a) = 0.
    """
    m2_core = nested_core = m2_halo = m1_halo = nested_hh = 0.0
    for piece in core:  # each nested term takes the mass before it, as functionals folds
        nested_core += piece.nested(m2_core)
        m2_core += piece.moment(2)
    for piece in halo:
        nested_hh += piece.nested(m2_halo)
        m2_halo += piece.moment(2)
        m1_halo += piece.moment(1)
    return (ke * m2_halo**2 - nested_hh, 2.0 * ke * m2_core * m2_halo - m2_core * m1_halo,
            ke * m2_core**2 - nested_core)


def corehalo_level(ke, core, halo, datum):
    """(alpha, roots): the smaller positive root of ``corehalo_energy_quadratic``.

    Errors name the input as ``datum()`` does.  With no halo piece, A = B = 0
    and alpha = 0 iff C = KE m2^2 - N is within 1e-12 of the larger of
    KE m2^2 = C + N and N, both finite.
    """
    try:
        a_coef, b_coef, c_coef = corehalo_energy_quadratic(ke, core, halo)
        nested = 0.0 if halo else -corehalo_energy_quadratic(0.0, core, halo)[2]  # -C at KE 0
    except OverflowError as exc:
        raise DegenerateFactorError(
            f"core-halo energy quadratic overflows the float range for {datum()}") from exc
    if not halo:
        if abs(c_coef) <= 1e-12 * max(c_coef + nested, nested) < math.inf:
            return 0.0, (0.0,)
        raise NoPositiveRootError(
            "degenerate halo (r2 == r3) and the core alone does not balance")
    roots = solve_quadratic(a_coef, b_coef, c_coef)
    positive = [x for x in roots if x > 0.0]
    if not positive:
        raise NoPositiveRootError(
            f"zero-energy condition has no positive halo level (roots {roots}) for {datum()}")
    return min(positive), roots


def solve_quadratic(a, b, c):
    """Real roots of a x^2 + b x + c, ascending, via the stable formula."""
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    if b == 0.0:
        x = root / (2.0 * a)
        return tuple(sorted((-x, x)))
    q = -0.5 * (b + math.copysign(root, b))
    return tuple(sorted((q / a, c / q)))


def solve_corehalo_alpha(r1, r2, r3, p, full_output=False):
    """Halo level making the disjoint core-halo energy exactly zero.

    The smaller positive root of the energy quadratic of a unit core and a
    unit halo piece (``corehalo_level``), or with ``full_output`` the pair
    ``(alpha, roots)``; NoPositiveRootError, giving the roots, if none is.
    """
    check_radii(r1, r2, r3)
    check_positive(p, "momentum cutoff")
    halo = (Piece.constant(1.0, r2, r3),) if r2 < r3 else ()
    alpha, roots = corehalo_level(functionals.kinetic_energy_ball(p),
                                  (Piece.constant(1.0, 0.0, r1),), halo,
                                  lambda: f"r1={r1}, r2={r2}, r3={r3}, p={p}")
    return (alpha, roots) if full_output else alpha


def solve_monotonic_P(r1, r2, r3, n):
    """Momentum cutoff balancing the monotonic profile's potential energy.

    The potential energy -K is independent of the cutoff, while the kinetic
    term, the p^2-weighted mean of sqrt(1+p^2) over [0, P], increases
    strictly from its rest-mass floor of 1, so a root exists iff 1 < K < inf.
    That mean lies between 3P/4 and sqrt(1+P^2), so the residual KE(P) - K is
    <= 0 at P = sqrt(K^2 - 1) and > 0 at P = 3K/2, and Brent iteration runs
    on that bracket.  Any factor above 4/3 would do; 3/2 keeps the upper end
    below the kinetic moment's overflow edge (P ~ 9.7e76) up to K ~ 6.5e76.
    """
    eta = monotonic_eta(r1, r2, r3, n)
    pot = functionals.potential_energy_profile(eta)
    if not -math.inf < pot < -1.0:
        raise NoRootError(
            f"potential energy {pot:.6g} cannot balance the rest-mass floor "
            "(needs potential < -1)"
        )

    def residual(p):
        return functionals.kinetic_energy_ball(p) + pot

    lo = math.sqrt(-pot - 1.0) * math.sqrt(1.0 - pot)
    return brentq(residual, lo, -1.5 * pot, xtol=1e-15 * lo)


def solve_threshold_a(ansatz):
    """Largest angular cutoff a* with virial(a*) = -1/2 for this ansatz's profiles.

    The angular part is ignored: the virial factorizes as S * (a - 1) / 2
    for sharp cutoffs, S the spatial*momentum factor, so a* = 1 - 1/S and
    every a <= a* keeps the virial at or below -1/2.  When S <= 1/2 no
    cutoff in (-1, 1) reaches the threshold.
    """
    factor = functionals.spatial_momentum_factor(ansatz.spatial, ansatz.momentum)
    if factor <= 0.5:
        raise ThresholdUnreachableError(
            f"spatial*momentum virial factor {factor:.6g} <= 1/2: "
            "no angular cutoff reaches virial -1/2")
    return 1.0 - 1.0 / factor


_FACTORS = ("spatial", "momentum", "angular")


class Family(namedtuple("Family", "name params free moves spatial solve")):
    """One ansatz family: a spatial profile plus one free parameter.

    ``params`` is the family's parameter record class and ``free`` the name of
    its field fixed by zero energy.  ``spatial`` builds the step spatial
    profile from the params; every family takes the momentum ball of radius
    ``p`` and the angular cutoff ``a``, so ``factor`` and ``ansatz`` are
    written once.  ``moves`` names the one factor the free parameter changes
    (``"spatial"`` or ``"momentum"``), so a re-solve rebuilds that factor
    alone.  ``solve`` takes the other fields (``inputs``) as keywords and
    returns the exact zero-energy value of the free one.
    """

    __slots__ = ()

    @property
    def inputs(self):
        """Parameter fields other than the free one, in declaration order."""
        return tuple(name for name in self.params._fields if name != self.free)

    def factor(self, params, name):
        """The step profile of one factor ("spatial", "momentum" or "angular") of ``params``."""
        if name == "spatial":
            return self.spatial(params)
        if name == "momentum":
            return momentum_ball(params.p)
        return AngularProfile.cutoff(params.a)

    def ansatz(self, params):
        """The step ansatz of ``params``."""
        return SeparableAnsatz(*(self.factor(params, name) for name in _FACTORS))


FAMILIES = {
    family.name: family
    for family in (
        Family("uniform", UniformParams, "r", "spatial",
               lambda params: uniform_eta(params.r),
               lambda p, a: solve_uniform_R(p)),
        Family("core-halo", CoreHaloParams, "alpha", "spatial",
               lambda params: core_halo_eta(params.r1, params.r2, params.r3, params.alpha),
               lambda r1, r2, r3, p, a: solve_corehalo_alpha(r1, r2, r3, p)),
        Family("monotonic", MonotonicParams, "p", "momentum",
               lambda params: monotonic_eta(params.r1, params.r2, params.r3, params.n),
               lambda r1, r2, r3, n, a: solve_monotonic_P(r1, r2, r3, n)),
    )
}
uniform_ansatz = FAMILIES["uniform"].ansatz
core_halo_ansatz = FAMILIES["core-halo"].ansatz
monotonic_ansatz = FAMILIES["monotonic"].ansatz


def family_of(params):
    """The FAMILIES entry whose params class built ``params``."""
    for family in FAMILIES.values():
        if type(params) is family.params:
            return family
    raise TypeError(f"unsupported family parameters {type(params).__name__}")
