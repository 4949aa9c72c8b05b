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

The closed-form route evaluates these from exact piecewise moments; the
quadrature route recomputes every integral adaptively and is kept as an
independent oracle.  Certification checks the three blow-up hypotheses:
zero total energy, virial <= -1/2, and L^{3/2} norm above the critical
constant (3/8)(15/16)^{1/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import quadrature
from .errors import DegenerateFactorError
from .profiles import CONSTANT, POWER, power_integral

__all__ = [
    "CRITICAL_L32_NORM",
    "FunctionalReport",
    "Certificate",
    "kinetic_energy_ball",
    "momentum_energy_moment",
    "normalization",
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
_QUAD = "quadrature"


def momentum_energy_moment(p_max):
    """Exact int_0^P sqrt(1+p^2) p^2 dp.

    Uses the antiderivative (P(1+2P^2)sqrt(1+P^2) - asinh P)/8; below
    P = 0.05 that expression cancels catastrophically, so a Maclaurin
    series accurate to ~1e-13 takes over.
    """
    if p_max < 0.0:
        raise ValueError("momentum cutoff must be >= 0")
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
    >= 1 and strictly increasing, with KE ~ 3P/4 as P grows.
    """
    if p_max <= 0.0:
        raise ValueError("momentum cutoff must be positive")
    return 3.0 * momentum_energy_moment(p_max) / p_max**3


def _as_indicator(profile):
    """(value, upper) when the profile is a single constant plateau from 0."""
    live = [p for p in profile.pieces if not p.is_zero]
    if len(live) == 1 and live[0].kind == CONSTANT and live[0].lo == 0.0:
        return live[0].value, live[0].hi
    return None


def _nested_closed_value(profile):
    """Closed-form nested mass integral, or None when ramps are present.

    Walks pieces left to right keeping the exact enclosed mass M and adds
    int piece(q) * q * (M + local cumulative) dq analytically.  Constant and
    power-law pieces (any real exponent, with the exact logarithmic cases)
    are covered; smoothstep ramps make this unwieldy and fall back to the
    adaptive route.
    """
    total = 0.0
    enclosed = 0.0
    for p in profile.pieces:
        lo, hi = p.lo, p.hi
        if p.is_zero:
            continue
        if p.kind == CONSTANT:
            c = p.value
            inner = (power_integral(4.0, lo, hi) - lo**3 * power_integral(1.0, lo, hi)) / 3.0
            total += c * (enclosed * power_integral(1.0, lo, hi) + c * inner)
            enclosed += c * power_integral(2.0, lo, hi)
        elif p.kind == POWER:
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
        else:
            return None
    return total


def _factor(value, name):
    if value <= 0.0 or not math.isfinite(value):
        raise DegenerateFactorError(f"{name} factor integral is {value}")
    return value


def normalization(ansatz):
    """Mass-normalizing constant C of the ansatz."""
    return ansatz.norm_constant


def mass(ansatz, method="auto"):
    """Total mass (1 by construction; the quadrature route re-derives it)."""
    c = ansatz.norm_constant
    if method == _QUAD:
        m2q = quadrature.profile_moment_quad(ansatz.spatial, 2).value
        m2p = quadrature.profile_moment_quad(ansatz.momentum, 2).value
        m0 = quadrature.angular_moment_quad(ansatz.angular, 0).value
    else:
        m2q = ansatz.spatial.moment(2)
        m2p = ansatz.momentum.moment(2)
        m0 = ansatz.angular.moments()[0]
    return c * 8.0 * math.pi**2 * m2q * m2p * m0


def kinetic_energy_profile(phi, method="auto"):
    """Kinetic energy determined by the momentum profile alone (>= 1)."""
    if method != _QUAD:
        ind = _as_indicator(phi)
        if ind is not None:
            return kinetic_energy_ball(ind[1])
        # Ramps keep exact second moments; only the weighted factor needs quad.
        num = quadrature.profile_moment_quad(
            phi, 2, weight=lambda p: math.sqrt(1.0 + p * p)
        ).value
        return num / _factor(phi.moment(2), "momentum")
    num = quadrature.profile_moment_quad(
        phi, 2, weight=lambda p: math.sqrt(1.0 + p * p)
    ).value
    den = quadrature.profile_moment_quad(phi, 2).value
    return num / _factor(den, "momentum")


def kinetic_energy(ansatz, method="auto"):
    """Mean sqrt(1+|p|^2), the kinetic-plus-rest-mass energy (>= 1)."""
    return kinetic_energy_profile(ansatz.momentum, method=method)


def spatial_density(ansatz, q_radius):
    """Spatial mass density rho(|q|) = g(|q|) / (4 pi ||g r^2||)."""
    m2q = _factor(ansatz.spatial.moment(2), "spatial")
    return ansatz.spatial(q_radius) / (4.0 * math.pi * m2q)


def potential_energy_profile(eta, method="auto"):
    """Potential energy determined by the spatial profile alone (<= 0)."""
    if method != _QUAD:
        m2 = _factor(eta.moment(2), "spatial")
        nested = _nested_closed_value(eta)
        if nested is not None:
            return -nested / m2**2
        nested = quadrature.nested_mass_integral(eta)
        return -nested / m2**2
    m2 = _factor(quadrature.profile_moment_quad(eta, 2).value, "spatial")
    nested = quadrature.nested_mass_integral(eta)
    return -nested / m2**2


def potential_energy(ansatz, method="auto"):
    """Potential (binding) energy of the ansatz."""
    return potential_energy_profile(ansatz.spatial, method=method)


def total_energy(ansatz, method="auto"):
    """Kinetic plus potential energy."""
    return kinetic_energy(ansatz, method=method) + potential_energy(ansatz, method=method)


def spatial_momentum_factor(eta, phi, method="auto"):
    """(||g r^3||/||g r^2||) * (||h p^3||/||h p^2||), the a-free virial factor."""
    if method == _QUAD:
        m3q = quadrature.profile_moment_quad(eta, 3).value
        m2q = quadrature.profile_moment_quad(eta, 2).value
        m3p = quadrature.profile_moment_quad(phi, 3).value
        m2p = quadrature.profile_moment_quad(phi, 2).value
    else:
        m3q, m2q = eta.moment(3), eta.moment(2)
        m3p, m2p = phi.moment(3), phi.moment(2)
    return (m3q / _factor(m2q, "spatial")) * (m3p / _factor(m2p, "momentum"))


def virial(ansatz, method="auto"):
    """Mean q.p; negative when momenta point inward on average."""
    factor = spatial_momentum_factor(ansatz.spatial, ansatz.momentum, method=method)
    if method == _QUAD:
        m0 = quadrature.angular_moment_quad(ansatz.angular, 0).value
        m1 = quadrature.angular_moment_quad(ansatz.angular, 1).value
    else:
        m0, m1, _ = ansatz.angular.moments()
    return factor * m1 / _factor(m0, "angular")


def l32_norm(ansatz, method="auto"):
    """L^{3/2} norm of the normalized phase-space density."""
    if method == _QUAD:
        nq = quadrature.profile_moment_quad(ansatz.spatial, 2, beta=1.5).value
        np_ = quadrature.profile_moment_quad(ansatz.momentum, 2, beta=1.5).value
        nl = quadrature.angular_moment_quad(ansatz.angular, 0, beta=1.5).value
        m2q = quadrature.profile_moment_quad(ansatz.spatial, 2).value
        m2p = quadrature.profile_moment_quad(ansatz.momentum, 2).value
        m0 = quadrature.angular_moment_quad(ansatz.angular, 0).value
    else:
        nq = ansatz.spatial.power_moment(1.5, 2)
        np_ = ansatz.momentum.power_moment(1.5, 2)
        m0, _, nl = ansatz.angular.moments()
        m2q = ansatz.spatial.moment(2)
        m2p = ansatz.momentum.moment(2)
    numerator = (nq * np_ * nl) ** (2.0 / 3.0)
    denominator = (
        2.0
        * math.pi ** (2.0 / 3.0)
        * _factor(m2q, "spatial")
        * _factor(m2p, "momentum")
        * _factor(m0, "angular")
    )
    return numerator / denominator


@dataclass(frozen=True)
class FunctionalReport:
    """Every functional of one ansatz, plus evaluation-error estimates.

    ``residuals`` maps entry names to absolute error estimates; the
    closed-form route reports zeros, the quadrature route propagates the
    integrator's estimates.
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


def _quad_residuals(ansatz):
    """Crude relative error estimates propagated from the integrator."""

    def rel(result):
        return abs(result.abs_error_estimate / result.value) if result.value else 0.0

    base = (
        rel(quadrature.profile_moment_quad(ansatz.spatial, 2))
        + rel(quadrature.profile_moment_quad(ansatz.momentum, 2))
        + rel(quadrature.angular_moment_quad(ansatz.angular, 0))
    )
    return {
        "mass": base,
        "kinetic": base + rel(
            quadrature.profile_moment_quad(
                ansatz.momentum, 2, weight=lambda p: math.sqrt(1.0 + p * p)
            )
        ),
        "potential": base + rel(quadrature.nested_mass_quad(ansatz.spatial)),
        "virial": base
        + rel(quadrature.profile_moment_quad(ansatz.spatial, 3))
        + rel(quadrature.profile_moment_quad(ansatz.momentum, 3)),
        "l32_norm": base,
    }


def evaluate(ansatz, method="auto"):
    """Full functional report for one ansatz.

    ``method`` is "auto" (closed forms wherever exact, adaptive quadrature
    only where ramps force it), "closed-form" (alias of auto), or
    "quadrature" (every integral evaluated adaptively -- the oracle route).
    """
    if method not in ("auto", _CLOSED, _QUAD):
        raise ValueError(f"unknown evaluation method {method!r}")
    route = _QUAD if method == _QUAD else "auto"
    kin = kinetic_energy(ansatz, method=route)
    pot = potential_energy(ansatz, method=route)
    label = _QUAD if (method == _QUAD or ansatz.has_ramp) else _CLOSED
    residuals = _quad_residuals(ansatz) if method == _QUAD else {}
    return FunctionalReport(
        norm_constant=ansatz.norm_constant,
        mass=mass(ansatz, method=route),
        l32_norm=l32_norm(ansatz, method=route),
        kinetic=kin,
        potential=pot,
        total_energy=kin + pot,
        virial=virial(ansatz, method=route),
        method=label,
        residuals=residuals,
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
    if energy_tol <= 0.0:
        raise ValueError("energy tolerance must be positive")
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
