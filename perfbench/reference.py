"""Independent reference values for checking virial-forge outputs.

Everything here is computed by the benchmark itself with fixed
Gauss-Legendre rules from numpy, never through virial_forge, so a defect in
the program's closed forms or in its quadrature oracle shows up as a
mismatch.  A profile is a list of pieces in the benchmark's own literal
form, one dict per piece:

    {"kind": "constant", "lo": .., "hi": .., "value": v}
    {"kind": "power", "lo": .., "hi": .., "value": v, "exponent": n}   v*(lo/r)**n
    {"kind": "ramp", "lo": .., "hi": .., "left": l, "right": r}       C^1 smoothstep

Pieces are contiguous and finite; the zero tail is implied.
"""

from __future__ import annotations

import math

import numpy as np

CRITICAL_L32_NORM = (3.0 / 8.0) * (15.0 / 16.0) ** (1.0 / 3.0)

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(48)
_KE_NODES, _KE_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _piece_values(piece, r):
    kind = piece["kind"]
    if kind == "constant":
        return np.full_like(r, piece["value"])
    if kind == "power":
        return piece["value"] * (piece["lo"] / r) ** piece["exponent"]
    t = (r - piece["lo"]) / (piece["hi"] - piece["lo"])
    return piece["left"] + (piece["right"] - piece["left"]) * t * t * (3.0 - 2.0 * t)


def _rule(piece, lo, hi):
    """Nodes and weights for int_lo^hi over a sub-interval of one piece.

    Power-law pieces are integrated in log r, where they are exponentials.
    """
    if piece["kind"] == "power":
        ulo, uhi = math.log(lo), math.log(hi)
        u = 0.5 * (uhi - ulo) * _NODES + 0.5 * (uhi + ulo)
        r = np.exp(u)
        return r, 0.5 * (uhi - ulo) * _WEIGHTS * r
    return 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo), 0.5 * (hi - lo) * _WEIGHTS


def moment(pieces, k, beta=1.0, weight=None):
    """int g(r)**beta * weight(r) * r**k dr over the profile."""
    total = 0.0
    for piece in pieces:
        r, w = _rule(piece, piece["lo"], piece["hi"])
        f = _piece_values(piece, r) ** beta * r**k
        if weight is not None:
            f = f * weight(r)
        total += float(np.dot(w, f))
    return total


def nested_mass(pieces):
    """int g(q) q (int_0^q g(s) s^2 ds) dq, both levels by Gauss-Legendre."""
    total = 0.0
    enclosed = 0.0
    for piece in pieces:
        q, wq = _rule(piece, piece["lo"], piece["hi"])
        inner = np.empty_like(q)
        for i, qi in enumerate(q):
            s, ws = _rule(piece, piece["lo"], qi)
            inner[i] = np.dot(ws, _piece_values(piece, s) * s * s)
        total += float(np.dot(wq, _piece_values(piece, q) * q * (enclosed + inner)))
        enclosed += moment([piece], 2)
    return total


def ke_ball(p_max):
    """Mean sqrt(1+p^2) over the unit-mass momentum ball of radius p_max.

    Integrated in t = asinh(p), where the integrand cosh^2 t sinh^2 t is
    entire, so one 80-point rule is exact to rounding for p_max <= 1e4.
    """
    t_max = math.asinh(p_max)
    t = 0.5 * t_max * (_KE_NODES + 1.0)
    integral = 0.5 * t_max * float(np.dot(_KE_WEIGHTS, (np.cosh(t) * np.sinh(t)) ** 2))
    return 3.0 * integral / p_max**3


def functionals(spatial, momentum, angular):
    """Mass-normalized functionals of C * g(|q|) * h(|p|) * L(cos)."""
    m2q, m3q = moment(spatial, 2), moment(spatial, 3)
    m2p, m3p = moment(momentum, 2), moment(momentum, 3)
    m0, m1 = moment(angular, 0), moment(angular, 1)
    kinetic = moment(momentum, 2, weight=lambda p: np.sqrt(1.0 + p * p)) / m2p
    potential = -nested_mass(spatial) / m2q**2
    l32 = (
        moment(spatial, 2, beta=1.5) * moment(momentum, 2, beta=1.5) * moment(angular, 0, beta=1.5)
    ) ** (2.0 / 3.0) / (2.0 * math.pi ** (2.0 / 3.0) * m2q * m2p * m0)
    return {
        "kinetic": kinetic,
        "potential": potential,
        "virial": (m3q / m2q) * (m3p / m2p) * (m1 / m0),
        "l32_norm": l32,
    }


def ball(radius):
    return [{"kind": "constant", "lo": 0.0, "hi": radius, "value": 1.0}]


def cutoff(a):
    return [{"kind": "constant", "lo": -1.0, "hi": a, "value": 1.0}]


def core_halo_spatial(r1, r2, r3, alpha):
    return [
        {"kind": "constant", "lo": 0.0, "hi": r1, "value": 1.0},
        {"kind": "constant", "lo": r1, "hi": r2, "value": 0.0},
        {"kind": "constant", "lo": r2, "hi": r3, "value": alpha},
    ]


def monotonic_spatial(r1, r2, r3, n):
    return [
        {"kind": "constant", "lo": 0.0, "hi": r1, "value": 1.0},
        {"kind": "power", "lo": r1, "hi": r2, "value": 1.0, "exponent": n},
        {"kind": "constant", "lo": r2, "hi": r3, "value": (r1 / r2) ** n},
    ]


def uniform_radius(p):
    return 3.0 / (5.0 * ke_ball(p))


def corehalo_alpha_roots(r1, r2, r3, p):
    """Real roots of KE * m2(alpha)^2 - N(alpha) in the halo level alpha.

    m2 = m2c + alpha m2h is linear and N = Ncc + alpha Nch + alpha^2 Nhh
    quadratic in alpha; each coefficient is integrated on its own, because
    at large P the halo terms exceed the core terms by dozens of decades.
    """
    ke = ke_ball(p)
    core = ball(r1)
    halo = [{"kind": "constant", "lo": r2, "hi": r3, "value": 1.0}]
    m2c, m2h = moment(core, 2), moment(halo, 2)
    a = ke * m2h * m2h - nested_mass(halo)
    b = 2.0 * ke * m2c * m2h - m2c * moment(halo, 1)
    c = ke * m2c * m2c - nested_mass(core)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(root, b))
    return tuple(sorted((q / a, c / q)))


def corehalo_alpha(r1, r2, r3, p):
    """Smallest positive zero-energy halo level, or None when none exists."""
    positive = [x for x in corehalo_alpha_roots(r1, r2, r3, p) if x > 0.0]
    return min(positive) if positive else None


def monotonic_p(r1, r2, r3, n):
    """Zero-energy momentum cutoff by bisection, or None when PE >= -1."""
    spatial = monotonic_spatial(r1, r2, r3, n)
    pot = -nested_mass(spatial) / moment(spatial, 2) ** 2
    if pot >= -1.0:
        return None
    lo, hi = 1e-6, 1.0
    while ke_ball(hi) + pot < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ke_ball(mid) + pot < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def close(ours, ref, rel, abs_tol=0.0):
    return abs(ours - ref) <= max(rel * abs(ref), abs_tol)
