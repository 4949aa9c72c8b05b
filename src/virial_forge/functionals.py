"""Mass, kinetic/potential energy, L^{3/2} norm, virial, and certification.

For a separable ansatz f = C * g(|q|) * h(|p|) * L(cos(angle)) every
functional reduces to products and ratios of one-dimensional moments:

* mass                = C * 8 pi^2 * ||g r^2|| * ||h p^2|| * int L = 1
* kinetic (with rest mass) = ||h sqrt(1+p^2) p^2|| / ||h p^2||
* potential           = -||g r^2||^{-2} * int g(q) q (int_0^q g s^2 ds) dq
* virial              = (||g r^3||/||g r^2||) (||h p^3||/||h p^2||)
                        * (int x L / int L)
* L^{3/2} norm        = (int g^{3/2} r^2 * int h^{3/2} p^2 * int L^{3/2})^{2/3}
                        / (2 pi^{2/3} ||g r^2|| ||h p^2|| int L)

Each formula is written once and reads its moments from a moment source.
The exact source (``method="auto"``) takes them from exact piecewise
moments and a nested integral exact on plateaus and ramps; the self term
of a spatial power law, the kinetic weight of a momentum profile that is
not a ball and the fractional powers of ramps use the fixed Gauss-Legendre
rules of ``profiles``, so this route integrates nothing adaptively and
loads neither numpy nor scipy.  The adaptive source
(``method="quadrature"``) integrates every moment adaptively, once per
evaluation, and is kept as an independent oracle.  A source computes the
a-free part as one record and completes it from the angular profile's
moments.  Only ``evaluate`` takes ``method``; ``radial_functionals`` (the
exact record itself, which the floor scan completes for each cutoff),
``total_energy``, ``potential_energy_profile`` and
``spatial_momentum_factor`` read the exact source.  Certification checks
the three blow-up hypotheses: zero total energy, virial <= -1/2, and
L^{3/2} norm above the critical constant (3/8)(15/16)^{1/3}.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .profiles import (
    CONSTANT,
    GL6,
    POWER,
    RAMP,
    check_factor,
    check_positive,
    fixed_rule,
    gauss_legendre,
    norm_constant,
    panel_edges,
    plateau_self_nested,
    power_integral,
    radial_scale,
)

__all__ = [
    "CRITICAL_L32_NORM",
    "FunctionalReport",
    "Certificate",
    "kinetic_energy_ball",
    "momentum_energy_moment",
    "potential_energy_profile",
    "virial",
    "spatial_momentum_factor",
    "radial_functionals",
    "total_energy",
    "evaluate",
    "check_criteria",
]

# L^{3/2} threshold below which global existence holds; blow-up candidates
# must exceed it.  Computed at full precision, never hard-coded decimal.
CRITICAL_L32_NORM = (3.0 / 8.0) * (15.0 / 16.0) ** (1.0 / 3.0)

DEFAULT_ENERGY_TOL = 1e-9

_CLOSED = "closed-form"
_RULE = "fixed-rule"
_QUAD = "quadrature"


def _format_float(x):
    """How every document and CSV prints a float: 17 significant digits, round-trip exact."""
    return f"{x:.17g}"


def momentum_energy_moment(p_max):
    """Exact int_0^P sqrt(1+p^2) p^2 dp.

    Uses the antiderivative (P(1+2P^2)sqrt(1+P^2) - asinh P)/8 from P = 1
    on.  Below, where that expression cancels, one GL14 panel over [0, P]
    takes over: the integrand's branch points +-i are far enough away for
    ~4e-16 relative.
    Raises OverflowError where the moment exceeds the float range (P above
    ~4e76).
    """
    check_positive(p_max, "momentum cutoff", ValueError, zero_ok=True)
    if p_max < 1.0:
        return gauss_legendre(lambda p: p * p * math.sqrt(1.0 + p * p), 0.0, p_max)
    s = math.sqrt(1.0 + p_max * p_max)
    moment = (p_max * (1.0 + 2.0 * p_max * p_max) * s - math.asinh(p_max)) / 8.0
    if not math.isfinite(moment):
        raise OverflowError(f"momentum energy moment overflows at P={p_max!r}")
    return moment


def kinetic_energy_ball(p_max):
    """Kinetic (rest mass included) energy of a unit-mass momentum ball.

    Equals (3/8)(sqrt(1+P^2)/P^2 + 2 sqrt(1+P^2) - asinh(P)/P^3)
    = 1 + 3P^2/10 - 3P^4/56 + ..., increasing from 1, with KE ~ 3P/4 as P
    grows.  At P <= 1e-4, where 3 M / P^3 would round around the exact value
    but 3P^4/56 is below half an ulp of 1, the series 1 + 3P^2/10 is
    returned, so the floating-point value is >= 1 and non-decreasing.
    """
    check_positive(p_max, "momentum cutoff", ValueError)
    if p_max <= 1e-4:
        return 1.0 + 3.0 * p_max * p_max / 10.0
    return 3.0 * momentum_energy_moment(p_max) / p_max**3


def _relativistic(p):
    return math.sqrt(1.0 + p * p)


def _is_ball(phi):
    """True when the only nonzero piece of phi is a plateau from 0."""
    live = [p for p in phi.pieces if not p.is_zero]
    return len(live) == 1 and live[0].kind == CONSTANT and live[0].lo == 0.0


def _kinetic_integrand(value, p):
    return value * p * p * math.sqrt(1.0 + p * p)


def _kinetic_weight(piece):
    """int sqrt(1+p^2) h(p) p^2 dp over one momentum piece.

    A plateau from 0 takes ``momentum_energy_moment``; every other piece the
    GL14 rule (on a thin shell a difference of antiderivatives would cancel),
    on ``panel_edges``: ratio 2 for a power law, else max(1, left end) wide.
    """
    if piece.is_zero:
        return 0.0
    if piece.kind == CONSTANT and piece.lo == 0.0:
        return piece.value * momentum_energy_moment(piece.hi)
    edges = panel_edges(piece.lo, piece.hi, 0.0 if piece.kind == POWER else 1.0)
    if piece.kind != RAMP:
        return fixed_rule(lambda p: _kinetic_integrand(piece.value_at(p), p), edges)
    # The edges in the ramp rule's coordinate, which runs from the smaller end.
    small_end = piece.lo if piece.left <= piece.right else piece.hi
    w = piece.hi - piece.lo
    return piece.ramp_rule(_kinetic_integrand, sorted(abs(p - small_end) / w for p in edges))


def _exact_kinetic(phi):
    """(int sqrt(1+p^2) h p^2 dp, int h p^2 dp), up to a common positive factor."""
    if phi.memo("ball", _is_ball):
        return kinetic_energy_ball(phi.support_radius), 1.0
    return math.fsum(_kinetic_weight(p) for p in phi.pieces), phi.moment(2)


def _power_self_nested(n, lo, hi):
    """int_lo^hi q^(1-n) int_lo^q s^(2-n) ds dq, the self term of a power law (lo/r)**n.

    q = lo e^s gives lo^(5-2n) int_0^u e^((2-n)s) expm1((3-n)s)/(3-n) ds,
    u = log1p((hi - lo) / lo) (the quotient is s at n = 3), which cancels
    nothing on a thin piece or near n = 3.  The integrand is entire, its
    exponential rates between 2 - n and 5 - 2n, and largest at s = u where
    5 - 2n > 0, else near s = 0.  GL14 panels 8/rate wide at that end,
    doubling away from it, keep the sum within ~4e-15 of mpmath for n in
    [0.5, 6] and w/lo in [1e-12, 1e4], and within ~eps |5 - 2n| u beyond.
    """
    k, u = 3.0 - n, math.log1p((hi - lo) / lo)
    rate = max(abs(2.0 - n), abs(5.0 - 2.0 * n))
    edges = [t / rate for t in panel_edges(0.0, rate * u, 8.0)[:-1]] + [u]
    if n < 2.5:
        edges = [u - s for s in reversed(edges)]
    return lo ** (5.0 - 2.0 * n) * fixed_rule(
        lambda s: math.exp((2.0 - n) * s) * (math.expm1(k * s) / k if k else s), edges)


def _exact_nested(profile):
    """Nested mass integral, exact piece by piece.

    Walks pieces left to right keeping the exact enclosed mass M and adds
    int piece(q) * q * (M + local cumulative) dq.  On a power law (any real
    exponent) the term in M has a closed form and the self term is a fixed
    rule (``_power_self_nested``); a plateau's self term is
    ``plateau_self_nested``.  On a smoothstep ramp the
    integrand is a polynomial of degree 10 (cubic value, linear q, degree-6
    cumulative), which the 6-point Gauss-Legendre rule integrates exactly.
    """
    total = 0.0
    enclosed = 0.0
    for p in profile.pieces:
        lo, hi = p.lo, p.hi
        if p.is_zero:
            continue
        if p.kind == RAMP:
            total += gauss_legendre(
                lambda q: p.value_at(q) * q * (enclosed + p.partial_moment(2, q)), lo, hi, GL6)
            enclosed += p.moment(2)
        else:
            c, n = p.value, p.exponent
            pref = c * lo**n
            lead = enclosed * power_integral(1.0 - n, lo, hi)
            inner = plateau_self_nested(lo, hi) if n == 0.0 else _power_self_nested(n, lo, hi)
            total += pref * (lead + pref * inner)
            enclosed += pref * power_integral(2.0 - n, lo, hi)
    return total


class _MomentSource:
    """Every functional, written once over a source of one-dimensional moments.

    A source supplies ``moment(g, k)`` = int g r^k dr, ``norm_moment(g)`` =
    int g^{3/2} r^2 dr, ``angular(L)`` = (int L, int x L, int L^{3/2}),
    ``kinetic(h)`` = (int sqrt(1+p^2) h p^2 dp, int h p^2 dp) up to a common
    positive factor, and ``nested(g)`` = int g(q) q (int_0^q g s^2 ds) dq;
    ``label`` and ``residuals`` fill the report's route and error estimates.
    """

    def kinetic_energy(self, phi):
        num, den = self.kinetic(phi)
        return num / check_factor(den, "momentum")

    def potential_energy(self, eta):
        m2 = check_factor(self.moment(eta, 2), "spatial")
        try:
            squared = m2**2  # 0 once m2 < ~1e-162
        except OverflowError:
            squared = math.inf
        return -self.nested(eta) / check_factor(squared, "squared spatial")

    def spatial_momentum_factor(self, eta, phi):
        m3q, m2q = self.moment(eta, 3), self.moment(eta, 2)
        m3p, m2p = self.moment(phi, 3), self.moment(phi, 2)
        return (m3q / check_factor(m2q, "spatial")) * (m3p / check_factor(m2p, "momentum"))

    def radial(self, eta, phi):
        """The a-free record of C * eta * phi * L, for any angular profile L."""
        kin, pot = self.kinetic_energy(phi), self.potential_energy(eta)
        scale, factor = radial_scale(eta, phi), self.spatial_momentum_factor(eta, phi)
        norms = self.norm_moment(eta) * self.norm_moment(phi)
        m2q = check_factor(self.moment(eta, 2), "spatial")
        m2p = check_factor(self.moment(phi, 2), "momentum")
        return _Radial(kin, pot, kin + pot, scale, factor, norms, m2q, m2p,
                       2.0 * math.pi ** (2.0 / 3.0) * m2q * m2p)

    def report(self, eta, phi, angular):
        """The FunctionalReport of C * eta * phi * angular: the a-free record, completed."""
        rad = self.radial(eta, phi)
        c = norm_constant(rad.scale, angular.moments()[0])
        m0, m1, nl = self.angular(angular)
        m0 = check_factor(m0, "angular")
        return FunctionalReport(
            norm_constant=c,
            mass=c * 8.0 * math.pi**2 * rad.m2q * rad.m2p * m0,
            l32_norm=rad.l32_norm(m0, nl),
            kinetic=rad.kinetic,
            potential=rad.potential,
            total_energy=rad.total_energy,
            virial=rad.virial(m0, m1),
            method=self.label(eta, phi, angular),
            residuals=self.residuals(eta, phi, angular),
        )


class _Radial(namedtuple("_Radial", "kinetic potential total_energy scale factor norms "
                                    "m2q m2p den")):
    """Everything a report needs but the angular moments (m0, m1, m32)."""

    __slots__ = ()

    def virial(self, m0, m1):
        return self.factor * m1 / m0

    def l32_norm(self, m0, m32):
        return (self.norms * m32) ** (2.0 / 3.0) / (self.den * m0)


class _Exact(_MomentSource):
    """Closed forms, else the fixed GL14 rule, memoized per profile; never adaptive."""

    def moment(self, profile, k):
        return profile.moment(k)

    def norm_moment(self, profile):
        return profile.power_moment(1.5, 2)

    def angular(self, angular):
        return angular.moments()

    def kinetic(self, phi):
        return phi.memo("kinetic", _exact_kinetic)

    def nested(self, eta):
        return eta.memo("nested", _exact_nested)

    def label(self, eta, phi, angular):
        """A fixed rule where any factor has a ramp, the spatial factor a power law
        (its self term) or the momentum factor is not a ball."""
        rule = eta.has_ramp or phi.has_ramp or angular.has_ramp or not phi.memo("ball", _is_ball)
        power = any(p.kind == POWER and not p.is_zero for p in eta.pieces)
        return _RULE if rule or power else _CLOSED

    def residuals(self, eta, phi, angular):
        return {}


class _Adaptive(_MomentSource):
    """Every integral by adaptive quadrature, kept by profile identity so it runs once."""

    def __init__(self):
        from . import quadrature  # here, so the exact route never loads it

        self.quad = quadrature
        self.results = {}

    def _result(self, integral, profile, *args):
        key = (integral, id(profile), *args)
        if key not in self.results:
            self.results[key] = integral(profile, *args)
        return self.results[key]

    def moment(self, profile, k):
        return self._result(self.quad.profile_moment_quad, profile, k).value

    def norm_moment(self, profile):
        return self._result(self.quad.profile_moment_quad, profile, 2, 1.5).value

    def angular(self, angular):
        return tuple(
            self._result(self.quad.angular_moment_quad, angular, k, beta).value
            for k, beta in ((0, 1.0), (1, 1.0), (0, 1.5))
        )

    def kinetic(self, phi):
        weighted = self._result(self.quad.profile_moment_quad, phi, 2, 1.0, _relativistic)
        return weighted.value, self.moment(phi, 2)

    def nested(self, eta):
        return self._result(self.quad.nested_mass_quad, eta).value

    def label(self, eta, phi, angular):
        return _QUAD

    def residuals(self, eta, phi, angular):
        """Crude relative error estimates propagated from the integrator."""

        def rel(integral, *args):
            result = self._result(integral, *args)
            return abs(result.abs_error_estimate / result.value) if result.value else 0.0

        moment, angular_moment = self.quad.profile_moment_quad, self.quad.angular_moment_quad
        base = rel(moment, eta, 2) + rel(moment, phi, 2) + rel(angular_moment, angular, 0, 1.0)
        return {
            "mass": base,
            "kinetic": base + rel(moment, phi, 2, 1.0, _relativistic),
            "potential": base + rel(self.quad.nested_mass_quad, eta),
            "virial": base + rel(moment, eta, 3) + rel(moment, phi, 3)
            + rel(angular_moment, angular, 1, 1.0),
            "l32_norm": base + rel(moment, eta, 2, 1.5) + rel(moment, phi, 2, 1.5)
            + rel(angular_moment, angular, 0, 1.5),
        }


_SOURCES = {"auto": _Exact, _QUAD: _Adaptive}
_EXACT = _Exact()


def potential_energy_profile(eta):
    """Potential energy determined by the spatial profile alone (<= 0)."""
    return _EXACT.potential_energy(eta)


def total_energy(ansatz):
    """Kinetic plus potential energy; ``rebalance``'s residual, so no L^{3/2} ramp rules."""
    return _EXACT.kinetic_energy(ansatz.momentum) + _EXACT.potential_energy(ansatz.spatial)


def spatial_momentum_factor(eta, phi):
    """(||g r^3||/||g r^2||) * (||h p^3||/||h p^2||), the a-free virial factor."""
    return _EXACT.spatial_momentum_factor(eta, phi)


def radial_functionals(spatial, momentum):
    """The exact a-free record of C * spatial * momentum * L, for any L.

    Its ``virial(m0, m1)`` and ``l32_norm(m0, m32)`` complete it from the
    angular moments, bit for bit as ``evaluate`` does.
    """
    return _EXACT.radial(spatial, momentum)


def virial(ansatz):
    """Mean q.p; negative when momenta point inward on average."""
    return evaluate(ansatz).virial


class FunctionalReport(namedtuple("FunctionalReport", "norm_constant mass l32_norm kinetic "
                                                    "potential total_energy virial method "
                                                    "residuals")):
    """Every functional of one ansatz, plus evaluation-error estimates.

    ``residuals`` maps entry names to relative error estimates; the exact
    source reports none, the adaptive source propagates the integrator's
    estimates.  It has no default, so no two reports share one dict.
    """

    __slots__ = ()


def evaluate(ansatz, method="auto"):
    """Full functional report for one ansatz.

    ``method`` picks the moment source: "auto" (closed forms wherever they
    exist, the fixed GL14 rule for ramps, a momentum profile that is not a
    ball and a spatial power law's self term; ``method`` in the report is
    "closed-form" or "fixed-rule" accordingly) or "quadrature" (every
    integral adaptive, each computed once -- the oracle route).
    """
    if method not in _SOURCES:
        raise ValueError(f"unknown evaluation method {method!r}")
    return _SOURCES[method]().report(ansatz.spatial, ansatz.momentum, ansatz.angular)


class Certificate(namedtuple("Certificate", "report energy_residual virial_margin norm_margin "
                                          "critical_norm energy_tol passed")):
    """Verdict on the three finite-time blow-up hypotheses.

    pass requires |total energy| <= energy_tol, virial <= -1/2 (non-strict),
    and L^{3/2} norm strictly above the critical constant.  The three margins
    are recorded so the verdict is recomputable.
    """

    __slots__ = ()


def check_criteria(ansatz, energy_tol=DEFAULT_ENERGY_TOL):
    """Certify the blow-up hypotheses for one ansatz.

    Zero energy is certified to the tolerance ``energy_tol`` because solved
    parameters are floating-point roots; the residual is reported so callers
    can tighten the solve.
    """
    check_positive(energy_tol, "energy tolerance", ValueError)
    report = evaluate(ansatz)
    energy_residual = abs(report.total_energy)
    virial_margin = -0.5 - report.virial
    norm_margin = report.l32_norm - CRITICAL_L32_NORM
    return Certificate(
        report=report,
        energy_residual=energy_residual,
        virial_margin=virial_margin,
        norm_margin=norm_margin,
        critical_norm=CRITICAL_L32_NORM,
        energy_tol=energy_tol,
        passed=energy_residual <= energy_tol and virial_margin >= 0.0 and norm_margin > 0.0,
    )
