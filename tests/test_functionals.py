"""Energies, norm, virial, and certification against independent oracles."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    assert_rel,
    mp_piece_integral,
    random_ansatz,
    random_momentum_profile,
    tight_nested,
)
from virial_forge import functionals, profiles, quadrature
from virial_forge.errors import DegenerateFactorError
from virial_forge.functionals import (
    CRITICAL_L32_NORM,
    check_criteria,
    evaluate,
    kinetic_energy_ball,
    momentum_energy_moment,
    potential_energy_profile,
    radial_functionals,
    spatial_momentum_factor,
    total_energy,
    virial,
)
from virial_forge.mollifier import MollifySpec, mollify, mollify_profile
from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    SeparableAnsatz,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    uniform_eta,
)
from virial_forge.quadrature import (
    angular_moment_quad,
    integrate,
    profile_moment_quad,
)
from virial_forge.solvers import (
    CoreHaloParams,
    MonotonicParams,
    UniformParams,
    core_halo_ansatz,
    monotonic_ansatz,
    solve_corehalo_alpha,
    solve_monotonic_P,
    solve_uniform_R,
    uniform_ansatz,
)


def unit_box_ansatz(a=1.0):
    return SeparableAnsatz(uniform_eta(1.0), momentum_ball(1.0), AngularProfile.cutoff(a))


def reference_corehalo(a=-0.8):
    alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
    return core_halo_ansatz(
        CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=a)
    )


def reference_monotonic(a=-0.95):
    p = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
    return monotonic_ansatz(
        MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p, a=a)
    )


class TestNormalization:
    def test_unit_box(self):
        # 1/C = 8 pi^2 (1/3)(1/3)(2)
        assert unit_box_ansatz().norm_constant == pytest.approx(
            9.0 / (16.0 * math.pi**2), rel=1e-14
        )

    def test_doubling_spatial_halves_constant(self):
        tall = SeparableAnsatz(
            PiecewiseProfile.from_segments([Piece.constant(2.0, 0.0, 1.0)]),
            momentum_ball(1.0),
            AngularProfile.cutoff(1.0),
        )
        assert tall.norm_constant == pytest.approx(
            unit_box_ansatz().norm_constant / 2.0, rel=1e-14
        )

    @pytest.mark.parametrize(
        "build",
        [unit_box_ansatz, reference_corehalo, reference_monotonic],
        ids=["uniform", "core-halo", "monotonic"],
    )
    def test_mass_is_one(self, build):
        assert evaluate(build()).mass == pytest.approx(1.0, abs=1e-12)

    def test_mass_is_one_randomized(self, rng):
        for _ in range(10):
            assert evaluate(random_ansatz(rng)).mass == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        zero = PiecewiseProfile((Piece.constant(0.0, 0.0, math.inf),))
        broken = SeparableAnsatz(zero, momentum_ball(1.0), AngularProfile.cutoff(1.0))
        with pytest.raises(DegenerateFactorError):
            broken.norm_constant

    @pytest.mark.parametrize("radius", [1e-52, 1e-103], ids=["overflow", "underflow"])
    def test_infinite_constant_rejected(self, radius):
        # Every factor is positive, but 1/C overflows or underflows.
        tiny = SeparableAnsatz(uniform_eta(radius), momentum_ball(radius),
                               AngularProfile.cutoff(1.0))
        with pytest.raises(DegenerateFactorError, match="normalization constant is inf"):
            tiny.norm_constant

    def test_zero_constant_rejected(self):
        # 1/C = 8 pi^2 m2q m2p int L overflows to inf, and 1/inf is C = 0.
        huge = SeparableAnsatz(uniform_eta(1e60), momentum_ball(1e60),
                               AngularProfile.cutoff(0.0))
        with pytest.raises(DegenerateFactorError, match="normalization constant is 0.0"):
            huge.norm_constant


class TestKineticEnergy:
    def test_rest_mass_limit(self):
        assert kinetic_energy_ball(1e-4) == pytest.approx(1.0, abs=1e-6)

    def test_reference_value(self):
        expected = 0.375 * (3.0 * math.sqrt(2.0) - math.log(1.0 + math.sqrt(2.0)))
        assert kinetic_energy_ball(1.0) == pytest.approx(expected, rel=1e-14)

    def test_ultrarelativistic_slope(self):
        assert kinetic_energy_ball(1e6) / 1e6 == pytest.approx(0.75, rel=1e-6)

    def test_strictly_increasing(self):
        ps = np.geomspace(1e-3, 1e4, 60)
        kes = [kinetic_energy_ball(p) for p in ps]
        assert all(b > a for a, b in zip(kes, kes[1:]))
        assert all(k >= 1.0 for k in kes)

    def test_rest_mass_floor_at_tiny_cutoffs(self):
        # 3 M / P^3 rounds around 1 + 3P^2/10 at tiny P; the series keeps the
        # value >= 1 and non-decreasing there, and on into the closed form.
        kes = [kinetic_energy_ball(p) for p in np.geomspace(1e-102, 1e-2, 20_000).tolist()]
        assert min(kes) >= 1.0
        assert all(b >= a for a, b in zip(kes, kes[1:]))

    @pytest.mark.parametrize("p_max", [1e-6, 9.99e-5, 1e-4, 1.0001e-4, 3e-4])
    def test_series_matches_closed_form(self, p_max):
        # Either side of the series threshold, within one ulp of the exact value.
        with mpmath.workdps(50):
            p = mpmath.mpf(p_max)
            s = mpmath.sqrt(1 + p * p)
            exact = 3 * (s / p**2 + 2 * s - mpmath.asinh(p) / p**3) / 8
            assert abs(kinetic_energy_ball(p_max) - exact) <= 2.3e-16

    @pytest.mark.parametrize("p_max", [0.01, 0.03, 0.049, 0.051, 0.2, 1.0, 40.0])
    def test_energy_moment_matches_quadrature(self, p_max):
        oracle = integrate(
            lambda p: math.sqrt(1.0 + p * p) * p * p, 0.0, p_max,
            abs_tol=1e-16, rel_tol=1e-13,
        )
        assert momentum_energy_moment(p_max) == pytest.approx(oracle.value, rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.floats(-6.0, 3.0))
    @example(math.log10(0.055))  # where the antiderivative alone cancels most
    @example(0.0)  # P = 1, where the antiderivative takes over from the rule
    def test_energy_moment_matches_closed_form(self, log_p):
        p_max = 10.0**log_p
        with mpmath.workdps(50):
            p = mpmath.mpf(p_max)
            exact = (p * (1 + 2 * p * p) * mpmath.sqrt(1 + p * p) - mpmath.asinh(p)) / 8
            assert abs(momentum_energy_moment(p_max) / exact - 1) <= 1e-15

    @pytest.mark.parametrize("p_max", [1e77, 1e102])
    def test_overflow_raises(self, p_max):
        # The moment exceeds the float range; inf would give a radius of 0.
        with pytest.raises(OverflowError, match="momentum energy moment overflows"):
            kinetic_energy_ball(p_max)

    def test_non_indicator_momentum_uses_quadrature(self):
        phi = PiecewiseProfile.from_segments(
            [Piece.constant(1.0, 0.0, 0.5), Piece.constant(0.3, 0.5, 1.5)],
            domain_label="radial-momentum",
        )
        ans = SeparableAnsatz(uniform_eta(1.0), phi, AngularProfile.cutoff(1.0))
        num = quadrature._kinetic_quad(phi)
        den = profile_moment_quad(phi, 2)
        assert evaluate(ans).kinetic == pytest.approx(num.value / den.value, rel=1e-12)

    def test_rest_mass_floor_randomized(self, rng):
        for _ in range(10):
            phi = random_momentum_profile(rng)
            ans = SeparableAnsatz(uniform_eta(1.0), phi, AngularProfile.cutoff(1.0))
            assert evaluate(ans).kinetic >= 1.0


def spatial_density(ansatz, q_radius):
    """Spatial mass density rho(|q|) = g(|q|) / (4 pi ||g r^2||), from the profile moment."""
    return ansatz.spatial(q_radius) / (4.0 * math.pi * ansatz.spatial.moment(2))


class TestSpatialDensity:
    # The density is the momentum marginal of the normalized phase-space
    # density; these pin the spatial moment and norm_constant that form it.
    def test_uniform_interior(self):
        r = 1.4
        ans = SeparableAnsatz(uniform_eta(r), momentum_ball(1.0), AngularProfile.cutoff(1.0))
        assert spatial_density(ans, 0.3) == pytest.approx(
            3.0 / (4.0 * math.pi * r**3), rel=1e-14
        )
        assert spatial_density(ans, 2.0 * r) == 0.0

    def test_integrates_to_one(self):
        ans = reference_corehalo()
        res = integrate(
            lambda q: spatial_density(ans, q) * 4.0 * math.pi * q * q,
            0.0,
            ans.spatial.support_radius,
            breakpoints=ans.spatial.breakpoints,
        )
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_momentum_integration(self):
        # rho(q) must equal C eta(q) * 2 pi * int(phi p^2) * int(L dx).
        ans = reference_corehalo()
        m2p = profile_moment_quad(ans.momentum, 2).value
        m0 = angular_moment_quad(ans.angular, 0).value
        for q in (0.1, 0.19, 1.2, 1.9):
            direct = ans.norm_constant * ans.spatial(q) * 2.0 * math.pi * m2p * m0
            assert spatial_density(ans, q) == pytest.approx(direct, rel=1e-10, abs=1e-18)


class TestPotentialEnergy:
    def test_uniform_ball_reference(self):
        assert potential_energy_profile(uniform_eta(1.0)) == pytest.approx(-0.6, rel=1e-14)
        assert potential_energy_profile(uniform_eta(2.0)) == pytest.approx(-0.3, rel=1e-14)

    def test_coulomb_dilation(self, rng):
        from conftest import random_radial_profile

        for _ in range(5):
            eta = random_radial_profile(rng)
            lam = 2.3
            assert potential_energy_profile(eta.dilate(lam)) == pytest.approx(
                potential_energy_profile(eta) / lam, rel=1e-12
            )

    def test_corehalo_balances_kinetic(self):
        ans = reference_corehalo()
        assert evaluate(ans).potential == pytest.approx(-kinetic_energy_ball(1.0), rel=1e-10)

    def test_closed_form_matches_quadrature(self):
        eta = monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0)
        closed = potential_energy_profile(eta)
        ans = SeparableAnsatz(eta, momentum_ball(1.0), AngularProfile.cutoff(1.0))
        adaptive = evaluate(ans, method="quadrature").potential
        assert closed == pytest.approx(adaptive, rel=1e-8)

    def test_never_positive(self, rng):
        for _ in range(10):
            assert evaluate(random_ansatz(rng)).potential <= 0.0

    @pytest.mark.parametrize("thickness", [1e-4, 1e-8, 1e-10])
    def test_thin_plateau_shell_nested_keeps_its_digits(self, thickness):
        # A lone plateau [1, 1 + w]: its O(w^2) nested term once came from
        # O(w) differences and erred by 2e-12, 4.7e-9 and 8.8e-7 here.
        hi = 1.0 + thickness
        eta = PiecewiseProfile.from_segments([Piece.constant(0.0, 0.0, 1.0),
                                              Piece.constant(1.0, 1.0, hi)])
        with mpmath.workdps(40):
            ref = mpmath.quad(lambda q: q * (q**3 - 1) / 3, [1, mpmath.mpf(hi)])
        assert_rel(functionals._exact_nested(eta), float(ref), 1e-15)


def mp_power_self_nested(n, lo, hi):
    """int_lo^hi q^(1-n) int_lo^q s^(2-n) ds dq in 60-digit mpmath."""
    with mpmath.workdps(60):
        n, lo, hi = mpmath.mpf(n), mpmath.mpf(lo), mpmath.mpf(hi)
        k = 3 - n

        def inner(q):
            return (q**k - lo**k) / k if k else mpmath.log(q / lo)

        return float(mpmath.quad(lambda q: q ** (1 - n) * inner(q), [lo, hi]))


SELF_TERM_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)
NEAR_CUBIC = st.builds(lambda sign, e: 3.0 + sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                       st.floats(min_value=-13, max_value=-6))
EXPONENTS = st.one_of(st.floats(min_value=0.5, max_value=6.0), st.just(3.0), NEAR_CUBIC)
LOWER_ENDS = st.floats(min_value=-3, max_value=2).map(lambda e: 10.0**e)


def relative_widths(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


def mp_closed_self_nested(n, lo, hi):
    """The closed form of the self term in 80-digit mpmath, for n other than 2, 5/2 and 3."""
    with mpmath.workdps(80):
        n, lo, hi = mpmath.mpf(n), mpmath.mpf(lo), mpmath.mpf(hi)

        def power(e):
            return (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)

        return float((power(4 - 2 * n) - lo ** (3 - n) * power(1 - n)) / (3 - n))


class TestPowerSelfTerm:
    """The self term of a power-law piece against mpmath.

    A closed form divides by 3 - n and builds an O(w^2) term from O(w)
    terms; where that cancelled it read 3.3e-4 off at n = 3 +- 1e-12 and
    exactly 0 on a 1e-10-thin piece at n = 3.  The fixed rule in log radius
    cancels nothing.
    """

    @SELF_TERM_PROPERTY
    @given(n=NEAR_CUBIC, lo=LOWER_ENDS, x=relative_widths(-12, 4))
    @example(n=3.0 + 1e-12, lo=0.01, x=0.0909090909 / 0.01 - 1.0)
    @example(n=3.0 - 1e-12, lo=0.01, x=0.0909090909 / 0.01 - 1.0)
    @example(n=3.0 + 1e-9, lo=1.0, x=0.1)
    def test_near_cubic_keeps_its_digits(self, n, lo, x):
        hi = lo * (1.0 + x)
        assume(hi > lo)
        assert_rel(profiles.power_self_nested(n, lo, hi), mp_power_self_nested(n, lo, hi), 1e-14)

    @SELF_TERM_PROPERTY
    @given(n=EXPONENTS, lo=LOWER_ENDS, x=relative_widths(-12, -6))
    @example(n=3.0, lo=1.0, x=1e-10)
    @example(n=2.0, lo=1.0, x=1e-10)
    def test_thin_piece_keeps_its_digits(self, n, lo, x):
        hi = lo * (1.0 + x)
        assume(hi > lo)
        assert_rel(profiles.power_self_nested(n, lo, hi), mp_power_self_nested(n, lo, hi), 1e-14)

    @SELF_TERM_PROPERTY
    @given(n=EXPONENTS, lo=LOWER_ENDS, x=relative_widths(-12, 4))
    def test_any_piece_within_the_closed_form_band(self, n, lo, x):
        # One fixed rule for every piece, thin or wide, near n = 3 or not.
        hi = lo * (1.0 + x)
        assume(hi > lo)
        assert_rel(profiles.power_self_nested(n, lo, hi), mp_power_self_nested(n, lo, hi), 1e-14)

    @SELF_TERM_PROPERTY
    @given(n=st.one_of(st.floats(min_value=-10.0, max_value=0.4),
                       st.floats(min_value=6.0, max_value=40.0)),
           lo=LOWER_ENDS, x=relative_widths(-12, 4))
    @example(n=20.0, lo=0.01, x=1e4)
    @example(n=-5.0, lo=1.0, x=1e4)
    @example(n=-6.11316922106936, lo=0.001, x=0.1)
    def test_steep_exponents_keep_their_digits(self, n, lo, x):
        # Panels as wide as at n in [0.5, 6] read 1.3e-8 off at the first
        # example.  The bound adds the self term's own conditioning in n,
        # ~eps |5 - 2n| log(hi / lo).  lo^(5 - 2n) with 5 - 2n rounded read
        # 1.2e-14 off at the last example, where the bound is 1.04e-14.
        hi = lo * (1.0 + x)
        assume(hi > lo)
        rel = 1e-14 + 2.2e-16 * abs(5.0 - 2.0 * n) * math.log1p(x)
        assert_rel(profiles.power_self_nested(n, lo, hi), mp_closed_self_nested(n, lo, hi), rel)


NESTED_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
SCALES = st.floats(min_value=1e-3, max_value=1e3)
# Ramp half-width as a fraction of the smallest piece width (< 1/2, so ramps fit).
RAMP_FRACTIONS = st.floats(min_value=1e-7, max_value=0.45)


@st.composite
def stepped_profiles(draw, power_laws):
    """Step profile of 2-6 pieces (power laws only with ``power_laws``), at a random scale."""
    n_pieces = draw(st.integers(min_value=2, max_value=6))
    segments, lo = [], 0.0
    for _ in range(n_pieces):
        hi = lo + draw(st.floats(min_value=0.05, max_value=2.0))
        value = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0)))
        if power_laws and lo > 0.0 and value > 0.0 and draw(st.booleans()):
            exponent = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                                      st.floats(min_value=0.3, max_value=5.0)))
            segments.append(Piece.power(value, exponent, lo, hi))
        else:
            segments.append(Piece.constant(value, lo, hi))
        lo = hi
    if all(p.is_zero for p in segments):
        segments[0] = Piece.constant(1.0, 0.0, segments[0].hi)
    return PiecewiseProfile.from_segments(segments).dilate(draw(SCALES))


def assert_nested_matches_tight_reference(eta):
    assert eta.has_ramp
    assert functionals._exact_nested(eta) == pytest.approx(tight_nested(eta), rel=1e-12)


class TestNestedOnRamps:
    """The exact nested integral of ramped profiles against a tight adaptive reference."""

    @NESTED_PROPERTY
    @given(stepped_profiles(power_laws=True), RAMP_FRACTIONS)
    def test_ramps_next_to_power_laws(self, eta, fraction):
        assert_nested_matches_tight_reference(
            mollify_profile(eta, fraction * eta.smallest_width))

    @NESTED_PROPERTY
    @given(radius=st.floats(min_value=1.0, max_value=1e4),
           gap=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
           halo=st.floats(min_value=0.01, max_value=1.0),
           level=st.floats(min_value=1e-6, max_value=2.0),
           fraction=st.floats(min_value=1e-9, max_value=1e-4))
    def test_narrow_ramps_at_large_radius(self, radius, gap, halo, level, fraction):
        r2 = radius * (1.0 + gap)
        eta = core_halo_eta(radius, r2, r2 + radius * halo, level)
        assert_nested_matches_tight_reference(mollify_profile(eta, fraction * radius))

    @NESTED_PROPERTY
    @given(stepped_profiles(power_laws=False), RAMP_FRACTIONS)
    def test_multi_ramp_plateaus(self, eta, fraction):
        assert_nested_matches_tight_reference(
            mollify_profile(eta, fraction * eta.smallest_width))


RULE_PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)
DECADES = st.floats(min_value=-3.0, max_value=4.0).map(lambda e: 10.0**e)


def mp_kinetic_weight(pieces):
    """int sqrt(1+p^2) h(p) p^2 dp over the given pieces, in mpmath at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.fsum(
            mp_piece_integral(p, lambda v, x: v * x * x * mpmath.sqrt(1 + x * x))
            for p in pieces))


class TestKineticWeight:
    """The exact route's kinetic weight, piece by piece, against mpmath."""

    @pytest.mark.parametrize("p_max", [0.01, 1.0, 19.7, 332.6, 1e4])
    @settings(RULE_PROPERTY, max_examples=10)
    @given(fraction=st.floats(min_value=-9.0, max_value=-0.31).map(lambda e: 10.0**e))
    def test_mollified_ball(self, p_max, fraction):
        phi = mollify_profile(momentum_ball(p_max), fraction * p_max)
        plateau, ramp = phi.pieces[:2]
        assert ramp.kind == "ramp"
        assert_rel(ramp.kinetic_weight(), mp_kinetic_weight([ramp]), 1e-14)
        assert_rel(functionals._exact_kinetic(phi)[0], mp_kinetic_weight([plateau, ramp]),
                   1e-14)

    @RULE_PROPERTY
    @given(lo=st.one_of(st.just(0.0), DECADES),
           width=st.floats(min_value=-9.0, max_value=3.0).map(lambda e: 10.0**e),
           left=st.sampled_from((0.0, 1e-9, 0.3, 1.0)),
           right=st.sampled_from((0.0, 1e-6, 0.5, 2.0)))
    def test_ramp(self, lo, width, left, right):
        ramp = Piece.ramp(left, right, lo, lo + width)
        if not ramp.is_zero:
            assert_rel(ramp.kinetic_weight(), mp_kinetic_weight([ramp]), 1e-14)

    @RULE_PROPERTY
    @given(lo=DECADES, width=st.floats(min_value=-9.0, max_value=1.0).map(lambda e: 10.0**e))
    def test_plateau_away_from_zero(self, lo, width):
        shell = Piece.constant(0.7, lo, lo * (1.0 + width))
        assert_rel(shell.kinetic_weight(), mp_kinetic_weight([shell]), 1e-14)

    @RULE_PROPERTY
    @given(lo=DECADES, ratio=st.floats(min_value=1e-3, max_value=3.0).map(lambda e: 10.0**e),
           exponent=st.one_of(st.sampled_from((1.0, 3.0, 5.0)),
                              st.floats(min_value=0.3, max_value=6.0)))
    @example(lo=1e-3, ratio=1e3, exponent=3.0)  # r^-1 times the weight: a pole at 0
    @example(lo=0.01, ratio=100.0, exponent=2.5)
    def test_power_law(self, lo, ratio, exponent):
        piece = Piece.power(1.3, exponent, lo, lo * ratio)
        assert_rel(piece.kinetic_weight(), mp_kinetic_weight([piece]), 1e-14)


class TestVirial:
    def test_symmetric_momenta_vanish(self):
        assert virial(unit_box_ansatz(a=1.0)) == 0.0

    @pytest.mark.parametrize("r,p,a", [(1.0, 1.0, -0.5), (0.4, 2.0, 0.3), (2.5, 0.7, -0.9)])
    def test_uniform_closed_form(self, r, p, a):
        ans = uniform_ansatz(UniformParams(r=r, p=p, a=a))
        assert virial(ans) == pytest.approx(9.0 * r * p * (a - 1.0) / 32.0, rel=1e-12)

    def test_angular_factor_splits_off(self):
        # V(a) * 2 / (a - 1) must not depend on a.
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        factors = []
        for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
            ans = core_halo_ansatz(
                CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=a)
            )
            factors.append(virial(ans) * 2.0 / (a - 1.0))
        for f in factors[1:]:
            assert f == pytest.approx(factors[0], rel=1e-12)

    def test_reference_corehalo_value(self):
        ans = reference_corehalo(a=-0.8)
        oracle = evaluate(ans, method="quadrature").virial
        got = virial(ans)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got <= -0.5
        assert got == pytest.approx(-0.5007, abs=2e-4)


class TestTotalEnergy:
    def test_solved_radius_balances(self):
        for p in (0.3, 1.0, 7.0):
            ans = uniform_ansatz(UniformParams(r=solve_uniform_R(p), p=p, a=-0.5))
            assert abs(total_energy(ans)) <= 1e-12

    def test_shrinking_spatial_goes_negative(self):
        r = solve_uniform_R(1.0)
        ans = uniform_ansatz(UniformParams(r=0.5 * r, p=1.0, a=-0.5))
        assert total_energy(ans) < 0.0

    def test_widening_momentum_goes_positive(self):
        r = solve_uniform_R(1.0)
        ans = uniform_ansatz(UniformParams(r=r, p=8.0, a=-0.5))
        assert total_energy(ans) > 0.0


class TestL32Norm:
    def test_unit_box_closed_value(self):
        # Constant density on a product of unit balls: norm = C^{1/3} of the
        # phase-space volume bookkeeping, i.e. (9/(16 pi^2))^{1/3}.
        ans = unit_box_ansatz(a=1.0)
        expected = (9.0 / (16.0 * math.pi**2)) ** (1.0 / 3.0)
        assert evaluate(ans).l32_norm == pytest.approx(expected, rel=1e-13)
        alt = (2.0 / 9.0) ** (-1.0 / 3.0) / (2.0 * math.pi ** (2.0 / 3.0))
        assert evaluate(ans).l32_norm == pytest.approx(alt, rel=1e-13)

    def test_spatial_shrink_raises_norm(self):
        base = unit_box_ansatz(a=1.0)
        lam = 0.5
        shrunk = SeparableAnsatz(
            base.spatial.dilate(lam), base.momentum, base.angular
        )
        assert evaluate(shrunk).l32_norm == pytest.approx(evaluate(base).l32_norm / lam, rel=1e-12)

    @pytest.mark.parametrize("build,n_samples", [(unit_box_ansatz, 100_000),
                                                 (reference_corehalo, 250_000)])
    def test_monte_carlo_spot_check(self, build, n_samples):
        # Independent 6-D Monte Carlo of int f^{3/2} dmu with exact volume
        # factors; agreement within 5 standard errors of the estimator.
        ans = build()
        rng = np.random.default_rng(4242)
        q_max = ans.spatial.support_radius
        p_max = ans.momentum.support_radius
        qs = q_max * rng.random(n_samples) ** (1.0 / 3.0)
        ps = p_max * rng.random(n_samples) ** (1.0 / 3.0)
        xs = rng.uniform(-1.0, 1.0, n_samples)
        c32 = ans.norm_constant**1.5
        samples = np.array(
            [
                c32
                * ans.spatial(float(q)) ** 1.5
                * ans.momentum(float(p)) ** 1.5
                * ans.angular(float(x)) ** 1.5
                for q, p, x in zip(qs, ps, xs)
            ]
        )
        volume = 8.0 * math.pi**2 * (q_max**3 / 3.0) * (p_max**3 / 3.0) * 2.0
        integral = volume * samples.mean()
        stderr = volume * samples.std(ddof=1) / math.sqrt(n_samples)
        closed = evaluate(ans).l32_norm ** 1.5
        assert abs(integral - closed) <= 5.0 * stderr + 1e-12 * closed

    def test_critical_constant(self):
        assert CRITICAL_L32_NORM == pytest.approx(0.375 * 0.9375 ** (1.0 / 3.0), rel=1e-15)
        assert 0.367018 < CRITICAL_L32_NORM < 0.367019


class TestCertificate:
    def test_reference_corehalo_passes(self):
        cert = check_criteria(reference_corehalo(a=-0.8))
        assert cert.passed
        assert cert.energy_residual <= cert.energy_tol == 1e-9
        assert cert.report.virial <= -0.5
        assert cert.virial_margin >= 0.0
        assert cert.norm_margin > 0.0
        assert cert.virial_margin == -0.5 - cert.report.virial
        assert cert.norm_margin == cert.report.l32_norm - CRITICAL_L32_NORM

    def test_uniform_fails_on_virial_only(self):
        ans = uniform_ansatz(UniformParams(r=solve_uniform_R(1.0), p=1.0, a=-0.99))
        cert = check_criteria(ans)
        assert not cert.passed
        assert cert.energy_residual <= cert.energy_tol
        assert cert.norm_margin > 0.0
        assert cert.virial_margin < 0.0

    def test_monotonic_passes(self):
        cert = check_criteria(reference_monotonic(a=-0.95))
        assert cert.passed

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_criteria(unit_box_ansatz(), energy_tol=0.0)

    def test_report_carries_method(self):
        rep = evaluate(reference_corehalo())
        assert rep.method == "closed-form"
        rep_q = evaluate(reference_corehalo(), method="quadrature")
        assert rep_q.method == "quadrature"
        assert rep_q.residuals


class TestOracleEquivalence:
    def test_randomized_closed_vs_quadrature(self, rng):
        for _ in range(8):
            ans = random_ansatz(rng)
            closed = evaluate(ans)
            oracle = evaluate(ans, method="quadrature")
            assert oracle.mass == pytest.approx(1.0, rel=1e-10)
            assert closed.kinetic == pytest.approx(oracle.kinetic, rel=1e-10)
            assert closed.virial == pytest.approx(oracle.virial, rel=1e-10, abs=1e-14)
            assert closed.l32_norm == pytest.approx(oracle.l32_norm, rel=1e-10)
            assert closed.potential == pytest.approx(oracle.potential, rel=1e-8)


class TestEvaluateCutoffs:
    """evaluate across angular profiles: route labels and degenerate factors."""

    def test_labels_follow_each_angular_profile(self):
        # Only the angular factor differs: its ramp alone makes the route a fixed rule.
        angulars = (AngularProfile.cutoff(-0.5), mollify_profile(AngularProfile.cutoff(-0.5), 0.1))
        assert [evaluate(SeparableAnsatz(uniform_eta(1.0), momentum_ball(1.0), angular)).method
                for angular in angulars] == ["closed-form", "fixed-rule"]

    def test_labels_follow_the_spatial_power_law(self):
        # A power law's self term runs the fixed rule; plateaus alone stay closed form.
        assert evaluate(reference_monotonic()).method == "fixed-rule"
        assert evaluate(reference_corehalo()).method == "closed-form"

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("factor", ["spatial", "momentum", "angular", "normalization"])
    def test_degenerate_factors_raise(self, method, factor):
        ansatz = unit_box_ansatz()
        if factor == "spatial":
            ansatz = ansatz._replace(
                spatial=PiecewiseProfile((Piece.constant(0.0, 0.0, math.inf),)))
        elif factor == "momentum":
            ansatz = ansatz._replace(momentum=PiecewiseProfile(
                (Piece.constant(0.0, 0.0, math.inf),), domain_label="radial-momentum"))
        elif factor == "angular":
            ansatz = ansatz._replace(angular=AngularProfile(
                (Piece.constant(0.0, -1.0, 1.0),)))
        else:
            ansatz = SeparableAnsatz(uniform_eta(1e-52), momentum_ball(1e-52),
                                     AngularProfile.cutoff(1.0))
        with pytest.raises(DegenerateFactorError, match=factor):
            evaluate(ansatz, method)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("radius, squared", [(1e-103, "0.0"), (1e60, "inf")],
                             ids=["underflow", "overflow"])
    def test_spatial_mass_squared_out_of_range(self, method, radius, squared):
        # The spatial mass is finite and positive, but its square, the
        # potential's denominator, leaves the float range.
        ansatz = SeparableAnsatz(uniform_eta(radius), momentum_ball(radius),
                                 AngularProfile.cutoff(0.0))
        message = f"squared spatial factor integral is {squared}"
        with pytest.raises(DegenerateFactorError, match=message):
            evaluate(ansatz, method)


class TestMomentSources:
    def test_oracle_integrates_each_moment_once(self, monkeypatch):
        # Ramp-free, so the exact norm constant needs no quadrature; the
        # oracle needs 3 spatial, 4 momentum, 3 angular and 1 nested integral.
        ans = SeparableAnsatz(
            monotonic_eta(0.2, 0.6, 1.0, 2.0),
            PiecewiseProfile.from_segments(
                [Piece.constant(1.0, 0.0, 0.5), Piece.constant(0.3, 0.5, 1.5)],
                domain_label="radial-momentum",
            ),
            AngularProfile((Piece.constant(1.0, -1.0, 0.2), Piece.constant(0.4, 0.2, 1.0))),
        )
        calls = []
        real = quadrature.integrate

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counting)
        evaluate(ans, method="quadrature")
        assert len(calls) == 11

    def test_exact_route_memoizes_per_profile(self, monkeypatch):
        # The exact route integrates nothing adaptively: its six ramp
        # integrals (the momentum kinetic weight and five ramp power moments)
        # take the GL14 ramp rule, and a second exact evaluate reads each back
        # from the profiles; the oracle reads none of those memos.
        def build():
            return mollify(reference_corehalo(), MollifySpec(0.01))

        def counting(calls, real):
            def counted(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            return counted

        adaptive, rules = [], []
        monkeypatch.setattr(quadrature, "integrate", counting(adaptive, quadrature.integrate))
        monkeypatch.setattr(profiles.Piece, "ramp_rule", counting(rules, profiles.Piece.ramp_rule))
        ans = build()
        evaluate(ans)
        assert adaptive == []
        assert len(rules) == 6
        rules.clear()
        evaluate(ans)
        assert rules == []

        oracle_calls = []
        for name in ("profile_moment_quad", "_kinetic_quad", "angular_moment_quad",
                     "nested_mass_quad"):
            def counted(*args, _real=getattr(quadrature, name), **kwargs):
                oracle_calls.append(_real)
                return _real(*args, **kwargs)

            monkeypatch.setattr(quadrature, name, counted)
        memoized = evaluate(ans, method="quadrature")
        n_memoized = len(oracle_calls)
        oracle_calls.clear()
        fresh = evaluate(build(), method="quadrature")
        assert n_memoized == len(oracle_calls) == 11
        assert repr(memoized) == repr(fresh)

    def test_oracle_builds_each_evaluator_once(self, monkeypatch):
        # Every adaptive integrand calls the profile's pointwise evaluator,
        # built on the profile's first point and memoized on it.
        built = []
        real = profiles._evaluator

        def counting(profile):
            built.append(profile)
            return real(profile)

        monkeypatch.setattr(profiles, "_evaluator", counting)
        ans = mollify(reference_corehalo(), MollifySpec(0.01))
        evaluate(ans, method="quadrature")
        assert sorted(map(id, built)) == sorted(map(id, (ans.spatial, ans.momentum, ans.angular)))
        built.clear()
        evaluate(ans, method="quadrature")
        assert built == []

    def test_equal_distinct_angulars_give_equal_reports(self):
        # The oracle keys its integrals by profile identity: equal profiles
        # integrate separately and give the same report.
        step = reference_corehalo()
        build = (lambda: AngularProfile.cutoff(-0.3),
                 lambda: mollify_profile(AngularProfile.cutoff(-0.3), 0.05))
        for make in build:
            first, second = make(), make()
            assert first == second and first is not second
            assert (evaluate(step._replace(angular=first), method="quadrature")
                    == evaluate(step._replace(angular=second), method="quadrature"))

    @staticmethod
    def _rel_estimate(result):
        return abs(result.abs_error_estimate / result.value)

    def test_residuals_read_norm_and_angular_moments(self):
        # l32_norm reads the three beta = 3/2 norm moments and virial the
        # angular first moment; their estimates must enter the residuals.
        ans = reference_monotonic()
        rep = evaluate(ans, method="quadrature")
        spatial_norm = self._rel_estimate(profile_moment_quad(ans.spatial, 2, 1.5))
        assert spatial_norm > 1e-8
        assert rep.residuals["l32_norm"] >= spatial_norm
        assert rep.residuals["virial"] >= self._rel_estimate(angular_moment_quad(ans.angular, 1))

    def test_virial_residual_reads_angular_first_moment(self):
        # int x L nearly cancels here, so its relative estimate dominates.
        angular = AngularProfile((Piece.constant(1.0, -1.0, 0.0),
                                  Piece.constant(1.0 + 1e-6, 0.0, 1.0)))
        ans = SeparableAnsatz(uniform_eta(1.0), momentum_ball(1.0), angular)
        first = self._rel_estimate(angular_moment_quad(angular, 1))
        assert first > 1e-10
        assert evaluate(ans, method="quadrature").residuals["virial"] >= first

    @pytest.mark.parametrize("method", ["closed-form", "quad", "exact", ""])
    @pytest.mark.parametrize("call", [evaluate], ids=["evaluate"])
    def test_unknown_method_rejected(self, call, method):
        with pytest.raises(ValueError, match="unknown evaluation method"):
            call(reference_corehalo(), method)


RECORD_PROPERTY = settings(derandomize=True, deadline=None, max_examples=80, database=None)
POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
CUTOFFS = st.floats(min_value=-0.99, max_value=1.0)
RADII = st.lists(POSITIVE, min_size=3, max_size=3).map(sorted)
STEP_DATA = st.one_of(
    st.builds(lambda r, p, a: uniform_ansatz(UniformParams(r=r, p=p, a=a)),
              POSITIVE, POSITIVE, CUTOFFS),
    st.builds(lambda r, alpha, p, a: core_halo_ansatz(CoreHaloParams(*r, p=p, alpha=alpha, a=a)),
              RADII, st.floats(min_value=1e-6, max_value=2.0), POSITIVE, CUTOFFS),
    st.builds(lambda r, n, p, a: monotonic_ansatz(MonotonicParams(*r, n=n, p=p, a=a)),
              RADII, st.floats(min_value=0.3, max_value=6.0), POSITIVE, CUTOFFS),
)


def _mollified(ansatz, fraction):
    return SeparableAnsatz(*(mollify_profile(f, fraction * f.smallest_width)
                             for f in (ansatz.spatial, ansatz.momentum, ansatz.angular)))


def _ramp_literal(widths, level, p, a, t):
    """A literal with a ramp in every factor: spatial core, ramp and shelf; a momentum
    ramp from 1 at 0 down to 0 at p; an angular ramp down to 0 between a and 1."""
    r1, r2, r3 = widths[0], widths[0] + widths[1], sum(widths)
    b = a + t * (1.0 - a)
    return SeparableAnsatz(
        PiecewiseProfile.from_segments([Piece.constant(1.0, 0.0, r1),
                                        Piece.ramp(1.0, level, r1, r2),
                                        Piece.constant(level, r2, r3)]),
        PiecewiseProfile.from_segments([Piece.ramp(1.0, 0.0, 0.0, p)],
                                       domain_label="radial-momentum"),
        AngularProfile((Piece.constant(1.0, -1.0, a), Piece.ramp(1.0, 0.0, a, b),
                        Piece.constant(0.0, b, 1.0))))


# Every kind of datum the exact route serves.
RECORD_DATA = st.one_of(
    STEP_DATA,
    st.builds(_mollified, STEP_DATA, RAMP_FRACTIONS),
    st.builds(lambda eta, p, a: SeparableAnsatz(eta, momentum_ball(p), AngularProfile.cutoff(a)),
              stepped_profiles(power_laws=True), POSITIVE, CUTOFFS),
    st.builds(_ramp_literal, st.lists(POSITIVE, min_size=3, max_size=3),
              st.floats(min_value=1e-3, max_value=2.0), POSITIVE,
              st.floats(min_value=-0.99, max_value=0.9), st.floats(min_value=0.1, max_value=0.9)),
)


class TestExactRecord:
    """The a-free record reads each moment where a formula needs it, bit for bit as a fresh read."""

    @RECORD_PROPERTY
    @given(RECORD_DATA)
    def test_radial_functionals_are_the_per_moment_formulas(self, ansatz):
        # The reference reads each moment of fresh profiles, one at a time.
        eta, phi = ansatz.spatial._replace(), ansatz.momentum._replace()
        m2q, m3q, m2p, m3p = eta.moment(2), eta.moment(3), phi.moment(2), phi.moment(3)
        num, den = functionals._exact_kinetic(phi)
        kinetic, potential = num / den, -functionals._exact_nested(eta) / m2q**2
        expected = (kinetic, potential, kinetic + potential, profiles.radial_scale(eta, phi),
                    (m3q / m2q) * (m3p / m2p),
                    eta.power_moment(1.5, 2) * phi.power_moment(1.5, 2), m2q, m2p,
                    2.0 * math.pi ** (2.0 / 3.0) * m2q * m2p)
        assert tuple(radial_functionals(ansatz.spatial, ansatz.momentum)) == expected

    def test_a_failing_entry_raises_where_a_formula_reads_it(self):
        # The halo's power moment overflows (alpha^{3/2} > 1e308), yet the
        # squared spatial mass fails first, as it did when every moment was
        # its own read; the virial factor does not read the power moment.
        overflow = r"^radial-position power moment \(1\.5, 2\) overflows the float range$"
        eta, phi = core_halo_eta(0.2, 1.0, 2.0, 1e300), momentum_ball(1.0)
        with pytest.raises(DegenerateFactorError, match=overflow):
            eta._replace().power_moment(1.5, 2)
        with pytest.raises(DegenerateFactorError, match="squared spatial factor integral is inf"):
            radial_functionals(eta, phi)
        assert spatial_momentum_factor(eta, phi) == (
            (eta.moment(3) / eta.moment(2)) * (phi.moment(3) / phi.moment(2)))
        # A halo thin enough for its mass to pass fails at the power moment,
        # with the same error on every read: a failed sum is not kept.
        thin = core_halo_eta(1e-50, 1e-50, 2e-50, 1e300)
        with pytest.raises(DegenerateFactorError, match=overflow) as alone:
            thin._replace().power_moment(1.5, 2)
        assert isinstance(alone.value.__cause__, OverflowError)
        for _ in range(2):
            with pytest.raises(DegenerateFactorError) as raised:
                radial_functionals(thin, phi)
            assert str(raised.value) == str(alone.value)

    def test_each_factor_reads_its_m2_twice(self, monkeypatch):
        # The record's read, which the virial factor reuses, and radial_scale's,
        # which gives C the exact m2 on both routes.
        eta, phi, reads = uniform_eta(1.0), momentum_ball(1.0), []
        moment = profiles._PieceSet.moment
        monkeypatch.setattr(profiles._PieceSet, "moment",
                            lambda profile, k: reads.append((profile, k)) or moment(profile, k))
        radial_functionals(eta, phi)
        assert [sum(p is factor for p, k in reads if k == 2) for factor in (eta, phi)] == [2, 2]

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_near_degenerate_angular_warns_once_per_report(self, method):
        ansatz = SeparableAnsatz(uniform_eta(1.0), momentum_ball(1.0),
                                 AngularProfile.cutoff(-1.0 + 1e-9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = evaluate(ansatz, method=method)
        assert len([w for w in caught if "nearly degenerate" in str(w.message)]) == 1
        with pytest.warns(RuntimeWarning, match="nearly degenerate"):
            assert rep.norm_constant == ansatz.norm_constant  # both routes: C from the exact m0

    def test_divergent_entries_keep_their_order(self):
        # Both m2 and m3 overflow to inf: the virial factor fails on m3, which
        # it reads first, and radial_functionals on m2, which the potential reads.
        eta, phi = uniform_eta(1e110), momentum_ball(1.0)
        with pytest.raises(DegenerateFactorError,
                           match="^radial-position moment of order 3 overflows the float range$"):
            spatial_momentum_factor(eta, phi)
        with pytest.raises(DegenerateFactorError,
                           match="^radial-position moment of order 2 overflows the float range$"):
            radial_functionals(eta, phi)


REFINE_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)
# Shells and gaps from 1e-12 of their radius, atmospheres at n = 3 +- 1e-6 and nearer.
THIN = relative_widths(-12.0, -1.0)
SHAPES = st.one_of(
    st.just(uniform_eta(1.0)),
    st.builds(lambda r1, w, alpha: core_halo_eta(r1, 1.0, 1.0 + w, alpha),
              st.one_of(relative_widths(-3.0, 0.0), THIN.map(lambda w: 1.0 - w)),
              st.one_of(THIN, relative_widths(-1.0, 1.0)), relative_widths(-6.0, 4.0)),
    st.builds(lambda r1, w, n: monotonic_eta(r1, 1.0, 1.0 + w, n),
              st.one_of(relative_widths(-3.0, 0.0), THIN.map(lambda w: 1.0 - w)),
              st.one_of(THIN, relative_widths(-1.0, 1.0)),
              st.one_of(st.sampled_from([3.0 - 1e-6, 3.0 + 1e-6]), EXPONENTS)),
)
# Where a piece is split, as a fraction of its width: next to either end, or inside.
SPLITS = st.one_of(THIN, THIN.map(lambda t: 1.0 - t), st.floats(min_value=0.01, max_value=0.99))


def _split(profile, i, t):
    """``profile`` with piece i cut at lo + t (hi - lo), kept strictly inside the piece.

    A power piece's second half restarts at ``value_at(s)`` with the same exponent.
    """
    p = profile.pieces[i]
    s = min(max(p.lo + t * (p.hi - p.lo), math.nextafter(p.lo, p.hi)),
            math.nextafter(p.hi, p.lo))
    if p.kind == "power":
        halves = (Piece.power(p.value, p.exponent, p.lo, s),
                  Piece.power(p.value_at(s), p.exponent, s, p.hi))
    else:
        halves = Piece.constant(p.value, p.lo, s), Piece.constant(p.value, s, p.hi)
    return profile._replace(pieces=profile.pieces[:i] + halves + profile.pieces[i + 1:])


class TestRefinement:
    """Splitting plateaus and power-law pieces in two changes no functional."""

    @REFINE_PROPERTY
    @given(SHAPES, relative_widths(-4.0, 6.0), CUTOFFS, st.data())
    def test_split_pieces_keep_every_functional(self, shape, p, a, data):
        # The shape is dilated to balance a momentum ball of radius p: a zero-energy
        # datum, so E is judged against KE.  Every nonzero piece of the spatial and
        # momentum factors is split; the ball's halves leave the closed-form kinetic term.
        scale = -potential_energy_profile(shape) / kinetic_energy_ball(p)
        ansatz = SeparableAnsatz(shape.dilate(scale), momentum_ball(p), AngularProfile.cutoff(a))
        split = {}
        for name in ("spatial", "momentum"):
            factor = getattr(ansatz, name)
            for i in reversed(range(len(factor.pieces))):  # a split shifts the later indices
                if not factor.pieces[i].is_zero:
                    factor = _split(factor, i, data.draw(SPLITS))
            split[name] = factor
        ref, got = evaluate(ansatz), evaluate(ansatz._replace(**split))
        for key in ("kinetic", "potential", "virial", "l32_norm"):
            assert_rel(getattr(got, key), getattr(ref, key), 1e-14)
        assert abs(got.total_energy - ref.total_energy) <= 1e-14 * ref.kinetic


EPS = sys.float_info.epsilon
# Atmospheres whose exponent is a multiple of 1/16, so that every power the
# moments raise a radius to (n, 3 - n, 5 - 2n, 1.5 n, ...) is exact.
DYADIC_SHAPES = st.builds(lambda r1, w, n: monotonic_eta(r1, 1.0, 1.0 + w, n),
                          st.one_of(relative_widths(-3.0, 0.0), THIN.map(lambda w: 1.0 - w)),
                          st.one_of(THIN, relative_widths(-1.0, 1.0)),
                          st.integers(8, 96).map(lambda m: m / 16.0))


class TestDilation:
    """Dilating the spatial factor by lam = 2^k scales every functional exactly."""

    @REFINE_PROPERTY
    @given(st.one_of(SHAPES, DYADIC_SHAPES), relative_widths(-4.0, 6.0), CUTOFFS,
           st.integers(-30, 30))
    def test_dilated_spatial_factor_scales_every_functional(self, shape, p, a, k):
        # g(r) -> g(r / lam) keeps KE and gives PE / lam, lam V and L^{3/2} / lam.
        # With lam = 2^k the dilated breakpoints are exact, so where every exponent
        # is exact each relation holds to the rounding of the powers of a dilated
        # radius, a few ulp (5.5 at most over 20,000 seeded dyadic data).  A rounded
        # exponent e of a power piece scales by lam^fl(e), not lam^e: |k| ln 2
        # |e - fl(e)|, up to ~|k| ulp.  L^{3/2} raises a product that scales by
        # lam^3 to the power fl(2/3), which adds ~0.35 |k| ulp.
        lam = 2.0**k
        ansatz = SeparableAnsatz(shape, momentum_ball(p), AngularProfile.cutoff(a))
        ref = evaluate(ansatz)
        got = evaluate(ansatz._replace(spatial=shape.dilate(lam)))
        rounded = any(piece.kind == "power" and (16.0 * piece.exponent) % 1.0
                      for piece in shape.pieces)
        ulps = 8.0 + (2.0 * abs(k) if rounded else 0.0)
        assert got.kinetic == ref.kinetic
        assert_rel(got.potential * lam, ref.potential, ulps * EPS)
        assert_rel(got.virial / lam, ref.virial, ulps * EPS)
        assert_rel(got.l32_norm * lam, ref.l32_norm, (ulps + 0.35 * abs(k)) * EPS)
