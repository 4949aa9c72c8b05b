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
moments and an exact nested integral; the kinetic weight of a momentum
profile that is not a ball and the fractional powers of ramps use the fixed
Gauss-Legendre rules of ``profiles``, so this route integrates nothing
adaptively and loads neither numpy nor scipy.  The adaptive source
(``method="quadrature"``) integrates every moment adaptively, once per
evaluation, and is kept as an independent oracle.  Certification checks the
three blow-up hypotheses: zero total energy, virial <= -1/2, and L^{3/2}
norm above the critical constant (3/8)(15/16)^{1/3}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import quadrature
from .errors import DegenerateFactorError
from .profiles import (
    CONSTANT,
    GL6,
    POWER,
    RAMP,
    check_positive,
    fixed_rule,
    gauss_legendre,
    panel_edges,
    power_integral,
)

__all__ = [
    "CRITICAL_L32_NORM",
    "FunctionalReport",
    "Certificate",
    "kinetic_energy_ball",
    "momentum_energy_moment",
    "mass",
    "l32_norm",
    "kinetic_energy",
    "kinetic_energy_profile",
    "spatial_density",
    "potential_energy",
    "potential_energy_profile",
    "virial",
    "spatial_momentum_factor",
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


def momentum_energy_moment(p_max):
    """Exact int_0^P sqrt(1+p^2) p^2 dp.

    Uses the antiderivative (P(1+2P^2)sqrt(1+P^2) - asinh P)/8; below
    P = 0.05 that expression cancels catastrophically, so a Maclaurin
    series accurate to ~1e-13 takes over.
    """
    check_positive(p_max, "momentum cutoff", ValueError, zero_ok=True)
    if p_max < 0.05:
        x = p_max * p_max
        series = 1.0 / 3.0 + x * (
            0.1 + x * (-1.0 / 56.0 + x * (1.0 / 144.0 + x * (-5.0 / 1408.0 + x * (7.0 / 3328.0))))
        )
        return p_max**3 * series
    s = math.sqrt(1.0 + p_max * p_max)
    return (p_max * (1.0 + 2.0 * p_max * p_max) * s - math.asinh(p_max)) / 8.0


def kinetic_energy_ball(p_max):
    """Kinetic (rest mass included) energy of a unit-mass momentum ball.

    Equals (3/8)(sqrt(1+P^2)/P^2 + 2 sqrt(1+P^2) - asinh(P)/P^3); always
    >= 1 and strictly increasing, with KE ~ 3P/4 as P grows.  Where P^3
    underflows (P below ~2.8e-103) the exact limit 1 is returned.
    """
    check_positive(p_max, "momentum cutoff", ValueError)
    if p_max**3 < sys.float_info.min:
        return 1.0
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


def _exact_nested(profile):
    """Nested mass integral, exact piece by piece.

    Walks pieces left to right keeping the exact enclosed mass M and adds
    int piece(q) * q * (M + local cumulative) dq.  A power law (any real
    exponent, with the exact logarithmic cases) has a closed form, and a
    plateau is the power law of exponent 0.  On a smoothstep ramp the
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
            if n == 3.0:
                inner = 1.0 / lo - (math.log(hi / lo) + 1.0) / hi
            else:
                inner = (
                    power_integral(4.0 - 2.0 * n, lo, hi)
                    - lo ** (3.0 - n) * power_integral(1.0 - n, lo, hi)
                ) / (3.0 - n)
            total += pref * (lead + pref * inner)
            enclosed += pref * power_integral(2.0 - n, lo, hi)
    return total


def _factor(value, name):
    if value <= 0.0 or not math.isfinite(value):
        raise DegenerateFactorError(f"{name} factor integral is {value}")
    return value


class _MomentSource:
    """Every functional, written once over a source of one-dimensional moments.

    A source supplies ``moment(g, k)`` = int g r^k dr, ``norm_moment(g)`` =
    int g^{3/2} r^2 dr, ``angular(L)`` = (int L, int x L, int L^{3/2}),
    ``kinetic(h)`` = (int sqrt(1+p^2) h p^2 dp, int h p^2 dp) up to a common
    positive factor, and ``nested(g)`` = int g(q) q (int_0^q g s^2 ds) dq;
    ``label`` and ``residuals`` fill the report's route and error estimates.
    """

    def mass(self, ansatz):
        c = ansatz.norm_constant
        m2q = self.moment(ansatz.spatial, 2)
        m2p = self.moment(ansatz.momentum, 2)
        m0 = self.angular(ansatz.angular)[0]
        return c * 8.0 * math.pi**2 * m2q * m2p * m0

    def kinetic_energy(self, phi):
        num, den = self.kinetic(phi)
        return num / _factor(den, "momentum")

    def potential_energy(self, eta):
        m2 = _factor(self.moment(eta, 2), "spatial")
        return -self.nested(eta) / m2**2

    def spatial_momentum_factor(self, eta, phi):
        m3q, m2q = self.moment(eta, 3), self.moment(eta, 2)
        m3p, m2p = self.moment(phi, 3), self.moment(phi, 2)
        return (m3q / _factor(m2q, "spatial")) * (m3p / _factor(m2p, "momentum"))

    def virial(self, ansatz):
        factor = self.spatial_momentum_factor(ansatz.spatial, ansatz.momentum)
        m0, m1, _ = self.angular(ansatz.angular)
        return factor * m1 / _factor(m0, "angular")

    def l32_norm(self, ansatz):
        nq = self.norm_moment(ansatz.spatial)
        np_ = self.norm_moment(ansatz.momentum)
        m0, _, nl = self.angular(ansatz.angular)
        m2q = self.moment(ansatz.spatial, 2)
        m2p = self.moment(ansatz.momentum, 2)
        numerator = (nq * np_ * nl) ** (2.0 / 3.0)
        denominator = (
            2.0
            * math.pi ** (2.0 / 3.0)
            * _factor(m2q, "spatial")
            * _factor(m2p, "momentum")
            * _factor(m0, "angular")
        )
        return numerator / denominator


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

    def label(self, ansatz):
        ball = ansatz.momentum.memo("ball", _is_ball)
        return _RULE if ansatz.has_ramp or not ball else _CLOSED

    def residuals(self, ansatz):
        return {}


class _Adaptive(_MomentSource):
    """Every integral by adaptive quadrature, each kept so it runs once."""

    def __init__(self):
        self.results = {}

    def _result(self, integral, *args):
        key = (integral, *args)
        if key not in self.results:
            self.results[key] = integral(*args)
        return self.results[key]

    def moment(self, profile, k):
        return self._result(quadrature.profile_moment_quad, profile, k).value

    def norm_moment(self, profile):
        return self._result(quadrature.profile_moment_quad, profile, 2, 1.5).value

    def angular(self, angular):
        return tuple(
            self._result(quadrature.angular_moment_quad, angular, k, beta).value
            for k, beta in ((0, 1.0), (1, 1.0), (0, 1.5))
        )

    def kinetic(self, phi):
        weighted = self._result(quadrature.profile_moment_quad, phi, 2, 1.0, _relativistic)
        return weighted.value, self.moment(phi, 2)

    def nested(self, eta):
        return self._result(quadrature.nested_mass_quad, eta).value

    def label(self, ansatz):
        return _QUAD

    def residuals(self, ansatz):
        """Crude relative error estimates propagated from the integrator."""

        def rel(integral, *args):
            result = self._result(integral, *args)
            return abs(result.abs_error_estimate / result.value) if result.value else 0.0

        moment = quadrature.profile_moment_quad
        base = (
            rel(moment, ansatz.spatial, 2)
            + rel(moment, ansatz.momentum, 2)
            + rel(quadrature.angular_moment_quad, ansatz.angular, 0, 1.0)
        )
        return {
            "mass": base,
            "kinetic": base + rel(moment, ansatz.momentum, 2, 1.0, _relativistic),
            "potential": base + rel(quadrature.nested_mass_quad, ansatz.spatial),
            "virial": base + rel(moment, ansatz.spatial, 3) + rel(moment, ansatz.momentum, 3),
            "l32_norm": base,
        }


_SOURCES = {"auto": _Exact, _QUAD: _Adaptive}


def _source(method):
    """A fresh moment source for ``method`` ("auto" or "quadrature")."""
    if method not in _SOURCES:
        raise ValueError(f"unknown evaluation method {method!r}")
    return _SOURCES[method]()


def mass(ansatz, method="auto"):
    """Total mass (1 by construction; the adaptive source re-derives it)."""
    return _source(method).mass(ansatz)


def kinetic_energy_profile(phi, method="auto"):
    """Kinetic energy determined by the momentum profile alone (>= 1)."""
    return _source(method).kinetic_energy(phi)


def kinetic_energy(ansatz, method="auto"):
    """Mean sqrt(1+|p|^2), the kinetic-plus-rest-mass energy (>= 1)."""
    return _source(method).kinetic_energy(ansatz.momentum)


def spatial_density(ansatz, q_radius):
    """Spatial mass density rho(|q|) = g(|q|) / (4 pi ||g r^2||)."""
    m2q = _factor(ansatz.spatial.moment(2), "spatial")
    return ansatz.spatial(q_radius) / (4.0 * math.pi * m2q)


def potential_energy_profile(eta, method="auto"):
    """Potential energy determined by the spatial profile alone (<= 0)."""
    return _source(method).potential_energy(eta)


def potential_energy(ansatz, method="auto"):
    """Potential (binding) energy of the ansatz."""
    return _source(method).potential_energy(ansatz.spatial)


def total_energy(ansatz, method="auto"):
    """Kinetic plus potential energy."""
    return kinetic_energy(ansatz, method=method) + potential_energy(ansatz, method=method)


def spatial_momentum_factor(eta, phi, method="auto"):
    """(||g r^3||/||g r^2||) * (||h p^3||/||h p^2||), the a-free virial factor."""
    return _source(method).spatial_momentum_factor(eta, phi)


def virial(ansatz, method="auto"):
    """Mean q.p; negative when momenta point inward on average."""
    return _source(method).virial(ansatz)


def l32_norm(ansatz, method="auto"):
    """L^{3/2} norm of the normalized phase-space density."""
    return _source(method).l32_norm(ansatz)


@dataclass(frozen=True)
class FunctionalReport:
    """Every functional of one ansatz, plus evaluation-error estimates.

    ``residuals`` maps entry names to relative error estimates; the exact
    source reports none, the adaptive source propagates the integrator's
    estimates.
    """

    norm_constant: float
    mass: float
    l32_norm: float
    kinetic: float
    potential: float
    total_energy: float
    virial: float
    method: str
    residuals: dict = field(default_factory=dict)


def evaluate(ansatz, method="auto"):
    """Full functional report for one ansatz.

    ``method`` picks the moment source: "auto" (closed forms wherever they
    exist, the fixed GL14 rule where ramps or a momentum profile that is not
    a ball need it; ``method`` in the report is "closed-form" or
    "fixed-rule" accordingly) or "quadrature" (every integral adaptive, each
    computed once -- the oracle route).
    """
    source = _source(method)
    kin = source.kinetic_energy(ansatz.momentum)
    pot = source.potential_energy(ansatz.spatial)
    return FunctionalReport(
        norm_constant=ansatz.norm_constant,
        mass=source.mass(ansatz),
        l32_norm=source.l32_norm(ansatz),
        kinetic=kin,
        potential=pot,
        total_energy=kin + pot,
        virial=source.virial(ansatz),
        method=source.label(ansatz),
        residuals=source.residuals(ansatz),
    )


@dataclass(frozen=True)
class Certificate:
    """Verdict on the three finite-time blow-up hypotheses.

    pass requires |total energy| <= energy_tol, virial <= -1/2 (non-strict),
    and L^{3/2} norm strictly above the critical constant.  The three margins
    are recorded so the verdict is recomputable.
    """

    report: FunctionalReport
    energy_residual: float
    virial_margin: float
    norm_margin: float
    critical_norm: float
    energy_tol: float
    energy_ok: bool
    virial_ok: bool
    norm_ok: bool
    passed: bool


def check_criteria(ansatz, energy_tol=DEFAULT_ENERGY_TOL, method="auto"):
    """Certify the blow-up hypotheses for one ansatz.

    Zero energy is certified to the tolerance ``energy_tol`` because solved
    parameters are floating-point roots; the residual is reported so callers
    can tighten the solve.
    """
    check_positive(energy_tol, "energy tolerance", ValueError)
    report = evaluate(ansatz, method=method)
    energy_residual = abs(report.total_energy)
    virial_margin = -0.5 - report.virial
    norm_margin = report.l32_norm - CRITICAL_L32_NORM
    energy_ok = energy_residual <= energy_tol
    virial_ok = report.virial <= -0.5
    norm_ok = norm_margin > 0.0
    return Certificate(
        report=report,
        energy_residual=energy_residual,
        virial_margin=virial_margin,
        norm_margin=norm_margin,
        critical_norm=CRITICAL_L32_NORM,
        energy_tol=energy_tol,
        energy_ok=energy_ok,
        virial_ok=virial_ok,
        norm_ok=norm_ok,
        passed=energy_ok and virial_ok and norm_ok,
    )
