"""Shared helpers: seeded random profiles/ansaetze for the property suites."""

import bisect
import math
from itertools import accumulate

import mpmath
import numpy as np
import pytest

from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    momentum_ball,
)
from virial_forge.quadrature import integrate

PROPERTY_SEED = 1139


def tight_integral(f, profile):
    """int f over the profile's nonzero pieces, one adaptive integral per piece.

    Asks rel 1e-13 of each piece and 1e-15 of the whole (from a first pass at
    the default tolerances) in absolute terms: far below the exact route's
    1e-12 agreement bound.  QUADPACK's roundoff floor, ~50 eps, rules out rel
    1e-14, and a ramp narrow against its radius cannot meet a fixed abs 1e-24.
    """
    pieces = [p for p in profile.pieces if not p.is_zero]
    whole = math.fsum(abs(integrate(f, p.lo, p.hi).value) for p in pieces)
    return math.fsum(integrate(f, p.lo, p.hi, abs_tol=1e-15 * whole, rel_tol=1e-13).value
                     for p in pieces)


def enclosed_mass(profile):
    """q -> int_0^q g(s) s^2 ds in floats, from ``piece_mass`` (not the exact route's moments)."""
    starts = [p.lo for p in profile.pieces]
    masses = [piece_mass(p, math) for p in profile.pieces]  # the zero tail's is 0
    prefix = list(accumulate((share(p.hi) for p, share in zip(profile.pieces[:-1], masses)),
                             initial=0.0))

    def mass(q):
        i = bisect.bisect_right(starts, q) - 1
        return prefix[i] + masses[i](q)

    return mass


def tight_nested(eta):
    """Tight reference for the nested mass integral int g(q) q (int_0^q g s^2 ds) dq."""
    mass = enclosed_mass(eta)
    return tight_integral(lambda q: eta(q) * q * mass(q), eta)


def assert_rel(value, reference, rel):
    """|value - reference| <= rel * |reference|, with no absolute floor."""
    assert abs(value - reference) <= rel * abs(reference), (value, reference)


def _ramp_poly(piece, num=mpmath.mpf):
    """(lo, w, ascending coefficients of the ramp value in t = (r - lo)/w), in ``num``."""
    lo, w = num(piece.lo), num(piece.hi) - num(piece.lo)
    left, d = num(piece.left), num(piece.right) - num(piece.left)
    return lo, w, [left, 0, 3 * d, -2 * d]


def piece_mass(piece, m=mpmath):
    """q -> int_lo^q g(s) s^2 ds on one finite piece, from the piece's own form.

    A plateau c gives c (q - lo)(q^2 + q lo + lo^2) / 3; a power law
    c (lo/s)^n gives c lo^3 expm1((3-n) L)/(3-n), L = log1p((q - lo)/lo)
    (c lo^3 L at n = 3); a ramp its value polynomial times (lo + w t)^2,
    integrated term by term in t = (q - lo)/w.  ``m`` is ``mpmath`` (in mpf
    at the current precision) or ``math`` (in floats).
    """
    num = mpmath.mpf if m is mpmath else float
    if piece.kind == "ramp":
        lo, w, coeffs = _ramp_poly(piece, num)
        mass = [0.0] * 6
        for i, c in enumerate(coeffs):
            for j, s in enumerate((lo * lo, 2 * lo * w, w * w)):
                mass[i + j] += c * s * w
        cumulative = [c / (j + 1) for j, c in enumerate(mass)]

        def ramp(q):
            t = (q - lo) / w
            total = 0.0
            for c in reversed(cumulative):
                total = (total + c) * t
            return total

        return ramp
    lo, c = num(piece.lo), num(piece.value)
    if piece.kind == "constant":
        return lambda q: c * (q - lo) * (q * q + q * lo + lo * lo) / 3
    k = 3 - num(piece.exponent)

    def power(q):
        log_q = m.log1p((q - lo) / lo)
        return c * lo**3 * (m.expm1(k * log_q) / k if k else log_q)

    return power


def mp_piece_integral(piece, f):
    """int f(value(r), r) dr over one finite piece, in mpmath at the current precision.

    ``f`` takes mpf arguments.  A ramp runs in t = (r - lo)/w, split at
    t = 2^-j toward its smaller end, past the distance sqrt(small/|right -
    left|) of the branch points of a power of the value near that end; a
    power law runs in r, split at lo * 2^j.
    """
    lo, hi = mpmath.mpf(piece.lo), mpmath.mpf(piece.hi)
    if piece.kind == "ramp":
        lo, w, coeffs = _ramp_poly(piece)
        small, big = sorted((piece.left, piece.right))
        depth = 1
        if 0.0 < small < big:
            depth = max(1, 4 - int(math.log2(small / (big - small)) / 2))
        cuts = [mpmath.mpf(2) ** -j for j in range(depth, 0, -1)]
        if piece.left > piece.right:
            cuts = [1 - c for c in reversed(cuts)]
        return w * mpmath.quad(lambda t: f(mpmath.polyval(coeffs[::-1], t), lo + w * t),
                               [0, *cuts, 1])
    value = mpmath.mpf(piece.value)
    if piece.kind == "constant":
        return mpmath.quad(lambda r: f(value, r), [lo, (lo + hi) / 2, hi])
    n = mpmath.mpf(piece.exponent)
    cuts = [lo]
    while 2 * cuts[-1] < hi:
        cuts.append(2 * cuts[-1])
    return mpmath.quad(lambda r: f(value * (lo / r) ** n, r), [*cuts, hi])


def mp_total_energy(spatial, momentum):
    """Kinetic plus potential energy of piecewise profiles, in mpmath.

    The kinetic energy is int sqrt(1+p^2) h p^2 / int h p^2; the potential is
    -int g(q) q M(q) dq / M(inf)^2 with the enclosed mass M(q) = int_0^q g s^2 ds,
    each piece's share from ``piece_mass``.
    """
    def weight(value, p):
        return value * p * p

    num = mpmath.fsum(mp_piece_integral(p, lambda v, x: weight(v, x) * mpmath.sqrt(1 + x * x))
                      for p in momentum.pieces if not p.is_zero and math.isfinite(p.hi))
    den = mpmath.fsum(mp_piece_integral(p, weight)
                      for p in momentum.pieces if not p.is_zero and math.isfinite(p.hi))
    nested = enclosed = mpmath.mpf(0)
    for p in spatial.pieces:
        if p.is_zero or not math.isfinite(p.hi):
            continue
        local = piece_mass(p)
        nested += mp_piece_integral(p, lambda v, q: v * q * (enclosed + local(q)))
        enclosed += mp_piece_integral(p, weight)
    return num / den - nested / enclosed**2


def random_radial_profile(rng, domain_label="radial-position", max_pieces=4):
    """Random compactly supported profile of constant and power-law pieces.

    At least one piece is strictly positive, so all normalization factors
    are nondegenerate.
    """
    while True:
        n_pieces = int(rng.integers(1, max_pieces + 1))
        cuts = np.sort(rng.uniform(0.05, 3.0, size=n_pieces))
        # Enforce a minimum gap so pieces are never razor thin.
        ok = cuts[0] > 0.04 and np.all(np.diff(cuts) > 0.05) if n_pieces > 1 else True
        if not ok:
            continue
        segments = []
        lo = 0.0
        positive = False
        for hi in cuts:
            use_power = lo > 0.0 and rng.random() < 0.4
            if use_power:
                value = float(rng.uniform(0.2, 1.5))
                exponent = float(rng.uniform(0.5, 4.0))
                segments.append(Piece.power(value, exponent, lo, hi))
                positive = True
            else:
                value = float(rng.uniform(0.0, 1.5))
                if value < 0.05:
                    value = 0.0
                segments.append(Piece.constant(value, lo, hi))
                positive = positive or value > 0.0
            lo = float(hi)
        if positive:
            return PiecewiseProfile.from_segments(segments, domain_label=domain_label)


def random_momentum_profile(rng):
    """Momentum factor: a plain ball half the time, otherwise two plateaus."""
    if rng.random() < 0.5:
        return momentum_ball(float(rng.uniform(0.3, 3.0)))
    p1 = float(rng.uniform(0.2, 1.0))
    p2 = p1 + float(rng.uniform(0.2, 1.5))
    v1 = float(rng.uniform(0.3, 1.5))
    v2 = float(rng.uniform(0.0, 1.0))
    return PiecewiseProfile.from_segments(
        [Piece.constant(v1, 0.0, p1), Piece.constant(v2, p1, p2)],
        domain_label="radial-momentum",
    )


def random_angular_profile(rng):
    """Angular factor: sharp cutoff half the time, otherwise two plateaus."""
    if rng.random() < 0.5:
        return AngularProfile.cutoff(float(rng.uniform(-0.9, 0.95)))
    x = float(rng.uniform(-0.8, 0.8))
    v1 = float(rng.uniform(0.2, 1.5))
    v2 = float(rng.uniform(0.0, 1.0))
    return AngularProfile(
        (Piece.constant(v1, -1.0, x), Piece.constant(v2, x, 1.0))
    )


def random_ansatz(rng):
    from virial_forge.profiles import SeparableAnsatz

    return SeparableAnsatz(
        random_radial_profile(rng),
        random_momentum_profile(rng),
        random_angular_profile(rng),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(PROPERTY_SEED)
