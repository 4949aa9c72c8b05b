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
The exact source (``method="auto"``) sums what each piece of ``profiles``
integrates: its moments, its kinetic weight, and its term of the nested
integral given the mass enclosed before it.  A spatial power law's self
term, a momentum profile that is not a ball and a ramp's fractional powers
take the pieces' fixed GL14 rule (so a mollified report says
``fixed-rule``): no adaptive integral, no numpy or scipy.  The adaptive source
(``method="quadrature"``) is the independent oracle, ``quadrature._Adaptive``,
which ``evaluate`` alone imports.  Each formula reads a moment from its
source where it needs it (the exact source's are memoized per profile),
computes the a-free part from the radial moments and completes it from the
angular moments.  Only ``evaluate`` takes ``method``; ``radial_functionals``
(the exact a-free part, which the floor scan completes for each cutoff),
``spatial_momentum_factor``, and ``total_energy`` and
``potential_energy_profile`` (which read ||g r^2|| alone) take the exact
source.  Certification checks the three blow-up hypotheses: zero total
energy, virial <= -1/2, and L^{3/2} norm above (3/8)(15/16)^{1/3}.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateFactorError
from .profiles import (
    CONSTANT,
    POWER,
    check_factor,
    check_positive,
    momentum_energy_moment,
    norm_constant,
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


def _is_ball(phi):
    """True when the only nonzero piece of phi is a plateau from 0."""
    live = [p for p in phi.pieces if not p.is_zero]
    return len(live) == 1 and live[0].kind == CONSTANT and live[0].lo == 0.0


def _exact_kinetic(phi):
    """(int sqrt(1+p^2) h p^2 dp, int h p^2 dp), up to a common positive factor."""
    if phi.memo("ball", _is_ball):
        return kinetic_energy_ball(phi.support_radius), 1.0
    try:
        return math.fsum(p.kinetic_weight() for p in phi.pieces), phi.moment(2)
    except OverflowError as exc:
        raise DegenerateFactorError(
            f"{phi.domain_label} kinetic integral overflows the float range") from exc


def _exact_nested(profile):
    """Nested mass integral: each nonzero piece's ``nested`` term of the mass before it."""
    total = enclosed = 0.0
    try:
        for p in profile.pieces:
            if not p.is_zero:
                total += p.nested(enclosed)
                enclosed += p.moment(2)
    except OverflowError as exc:
        raise DegenerateFactorError(
            f"{profile.domain_label} nested potential integral overflows the float range") from exc
    return total


def _virial_factor(m3q, m2q, m3p, m2p):
    """(||g r^3||/||g r^2||) * (||h p^3||/||h p^2||) of the checked m2q and m2p."""
    return (m3q / m2q) * (m3p / m2p)


class _MomentSource:
    """Every functional, written once over a source of one-dimensional moments.

    A source supplies ``moment(g, k)`` = int g r^k and ``moment(g, k, beta)``
    = int g^beta r^k, read where a formula needs them, so an input fails with
    the error of the first moment it reads; ``angular(L, exact)`` = (int L,
    int x L, int L^{3/2}), where ``exact`` is ``L.moments()``, which a report
    reads once, for C; ``kinetic(h)`` = (int sqrt(1+p^2) h p^2 dp,
    int h p^2 dp) up to a common positive factor, and
    ``nested(g)`` = int g(q) q (int_0^q g s^2 ds) dq;
    ``label`` and ``residuals`` fill the report's route and error estimates.
    """

    def kinetic_energy(self, phi):
        num, den = self.kinetic(phi)
        return num / check_factor(den, "momentum")

    def potential_energy(self, eta, m2):
        """The potential energy of eta, whose int g r^2 is ``m2``."""
        m2 = check_factor(m2, "spatial")
        try:
            squared = m2**2  # 0 once m2 < ~1e-162
        except OverflowError:
            squared = math.inf
        return -self.nested(eta) / check_factor(squared, "squared spatial")

    def radial(self, eta, phi):
        """The a-free record of C * eta * phi * L, for any angular profile L."""
        kin = self.kinetic_energy(phi)
        m2q = self.moment(eta, 2)
        pot = self.potential_energy(eta, m2q)
        m2p = check_factor(self.moment(phi, 2), "momentum")
        # m2q passed potential_energy's check; C takes the exact m2 on both routes.
        scale = radial_scale(eta, phi)
        factor = _virial_factor(self.moment(eta, 3), m2q, self.moment(phi, 3), m2p)
        norms = self.moment(eta, 2, 1.5) * self.moment(phi, 2, 1.5)
        return _Radial(kin, pot, kin + pot, scale, factor, norms, m2q, m2p,
                       2.0 * math.pi ** (2.0 / 3.0) * m2q * m2p)

    def report(self, eta, phi, angular):
        """The FunctionalReport of C * eta * phi * angular: the a-free record, completed."""
        rad = self.radial(eta, phi)
        exact = angular.moments()
        c = norm_constant(rad.scale, exact[0])
        m0, m1, nl = self.angular(angular, exact)
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

    def moment(self, profile, k, *beta):
        return profile.power_moment(*beta, k) if beta else profile.moment(k)

    def angular(self, angular, exact):
        return exact

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


_EXACT = _Exact()


def potential_energy_profile(eta):
    """Potential energy determined by the spatial profile alone (<= 0)."""
    return _EXACT.potential_energy(eta, eta.moment(2))


def total_energy(ansatz):
    """Kinetic plus potential energy; ``rebalance``'s residual, so it reads m2 alone."""
    kinetic, eta = _EXACT.kinetic_energy(ansatz.momentum), ansatz.spatial
    return kinetic + _EXACT.potential_energy(eta, eta.moment(2))


def spatial_momentum_factor(eta, phi):
    """(||g r^3||/||g r^2||) * (||h p^3||/||h p^2||), the a-free virial factor; m3 is read first."""
    m3q, m2q = eta.moment(3), eta.moment(2)
    m3p, m2p = phi.moment(3), phi.moment(2)
    return _virial_factor(m3q, check_factor(m2q, "spatial"), m3p, check_factor(m2p, "momentum"))


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
    exist, the fixed GL14 rule for a ramp's fractional powers, a momentum
    profile that is not a ball and a spatial power law's self term; the
    report says "closed-form" or "fixed-rule" accordingly) or "quadrature"
    (every integral adaptive, each computed once -- the oracle route).
    """
    if method == "auto":
        source = _EXACT
    elif method == _QUAD:
        from .quadrature import _Adaptive  # here, so the exact route never loads the oracle

        source = _Adaptive()
    else:
        raise ValueError(f"unknown evaluation method {method!r}")
    return source.report(ansatz.spatial, ansatz.momentum, ansatz.angular)


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
