"""Shared helpers: seeded random profiles/ansaetze for the property suites."""

import math

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


def tight_nested(eta):
    """Tight reference for the nested mass integral int g(q) q (int_0^q g s^2 ds) dq."""
    return tight_integral(lambda q: eta(q) * q * eta.cumulative_moment2(q), eta)


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
