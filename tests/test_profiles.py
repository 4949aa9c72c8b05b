"""Profile construction, evaluation, and exact moment integrals."""

import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import assert_rel, mp_piece_integral, random_radial_profile
from virial_forge.errors import DegenerateFactorError, ProfileError
from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    check_radii,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    plateau_self_nested,
    power_integral,
    uniform_eta,
)
from virial_forge.quadrature import integrate, profile_moment_quad

ALPHA_REF = 7.816e-4  # representative halo level for evaluation tests
RULE_PROPERTY = settings(derandomize=True, deadline=None, max_examples=80, database=None)


class TestEval:
    def test_indicator_interior(self):
        assert uniform_eta(1.0)(0.5) == 1.0

    def test_indicator_outside(self):
        assert uniform_eta(1.0)(1.5) == 0.0

    def test_power_piece_continuous_at_anchor(self):
        eta = monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0)
        assert eta(0.01) == pytest.approx(1.0, rel=1e-15)

    def test_monotonic_continuous_at_skin(self):
        eta = monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0)
        left = (0.01 * 11.0) ** 3.0
        assert eta(1.0 / 11.0) == pytest.approx(left, rel=1e-14)

    def test_corehalo_halo_value(self):
        eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
        assert eta(1.5) == ALPHA_REF

    def test_right_continuity_at_breakpoints(self):
        eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
        assert eta(0.2) == 0.0
        assert eta(1.0) == ALPHA_REF
        assert eta(2.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            uniform_eta(1.0)(-0.1)

    def test_evaluated_profile_pickles(self):
        # The memoized evaluator is a closure; a pickled profile rebuilds it.
        for profile in (monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0), AngularProfile.cutoff(-0.5)):
            assert profile(0.05) >= 0.0 and profile.moment(2) > 0.0
            clone = pickle.loads(pickle.dumps(profile))
            assert clone == profile
            assert clone(0.05) == profile(0.05) and clone.moment(2) == profile.moment(2)

    def test_nan_argument_rejected(self):
        # NaN fails every comparison, so a bare r < 0 check would let it
        # through to the zero tail (value 0).
        eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
        for entry in (eta, AngularProfile.cutoff(-0.5)):
            with pytest.raises(ValueError):
                entry(math.nan)


class TestConstruction:
    def test_gap_rejected(self):
        with pytest.raises(ProfileError):
            PiecewiseProfile(
                (
                    Piece.constant(1.0, 0.0, 1.0),
                    Piece.constant(0.0, 1.5, math.inf),
                )
            )

    def test_must_start_at_zero(self):
        with pytest.raises(ProfileError):
            PiecewiseProfile(
                (
                    Piece.constant(1.0, 0.5, 1.0),
                    Piece.constant(0.0, 1.0, math.inf),
                )
            )

    def test_infinite_piece_must_be_zero(self):
        with pytest.raises(ProfileError):
            Piece.constant(0.5, 1.0, math.inf)

    def test_must_cover_to_infinity(self):
        with pytest.raises(ProfileError):
            PiecewiseProfile((Piece.constant(1.0, 0.0, 1.0),))

    def test_power_needs_positive_anchor(self):
        with pytest.raises(ProfileError):
            Piece.power(1.0, 2.0, 0.0, 1.0)

    def test_constant_piece_with_exponent_rejected(self):
        # A plateau is the power law of exponent 0; any other exponent is not one.
        with pytest.raises(ProfileError):
            Piece("constant", 0.0, 1.0, value=1.0, exponent=5.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ProfileError):
            Piece.constant(-0.5, 0.0, 1.0)
        with pytest.raises(ProfileError):
            Piece.ramp(-0.1, 1.0, 0.0, 1.0)

    def test_profiles_immutable(self):
        eta = uniform_eta(1.0)
        with pytest.raises(AttributeError):
            eta.domain_label = "other"


class TestMoments:
    def test_indicator_second_moment(self):
        r = 0.7
        assert uniform_eta(r).moment(2) == pytest.approx(r**3 / 3.0, rel=1e-15)

    def test_corehalo_second_moment(self):
        # Sum of the two elementary shell integrals.
        eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
        expected = 0.2**3 / 3.0 + ALPHA_REF * (2.0**3 - 1.0**3) / 3.0
        assert eta.moment(2) == pytest.approx(expected, rel=1e-14)
        assert eta.moment(2) == pytest.approx(4.4904e-3, rel=1e-4)

    def test_atmosphere_moment_hits_log_case(self):
        # Exponent 3 against weight r^2 integrates to a logarithm.
        r1, r2, r3, n = 0.01, 1.0 / 11.0, 0.1, 3.0
        eta = monotonic_eta(r1, r2, r3, n)
        expected = (
            r1**3 / 3.0
            + r1**3 * math.log(r2 / r1)
            + (r1 / r2) ** 3 * (r3**3 - r2**3) / 3.0
        )
        assert eta.moment(2) == pytest.approx(expected, rel=1e-14)
        oracle = profile_moment_quad(eta, 2)
        assert eta.moment(2) == pytest.approx(oracle.value, rel=1e-10)

    def test_log_case_only_on_exact_exponent(self):
        # A nearby non-integer exponent must use the generic antiderivative
        # and still agree with quadrature.
        eta = monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0 + 1e-9)
        oracle = profile_moment_quad(eta, 2)
        assert eta.moment(2) == pytest.approx(oracle.value, rel=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_moment_additivity_matches_quadrature(self, k, rng):
        for _ in range(10):
            profile = random_radial_profile(rng)
            oracle = profile_moment_quad(profile, k)
            assert profile.moment(k) == pytest.approx(oracle.value, rel=1e-10, abs=1e-14)

    def test_dilation_scaling_exact(self, rng):
        profile = random_radial_profile(rng)
        lam = 1.7
        scaled = profile.dilate(lam)
        for k in range(4):
            assert scaled.moment(k) == pytest.approx(
                lam ** (k + 1) * profile.moment(k), rel=1e-12
            )


def ramp_partial_moment_reference(piece, k, r):
    """int_lo^r ramp(s) s^k ds with every term c * u**deg / deg built afresh at r."""
    w, d = piece.hi - piece.lo, piece.right - piece.left
    coeffs = (piece.left, 0.0, 3.0 * d / w**2, -2.0 * d / w**3)
    u = r - piece.lo
    total = 0.0
    for j, aj in enumerate(coeffs):
        if aj == 0.0:
            continue
        for m in range(k + 1):
            deg = j + m + 1
            total += aj * math.comb(k, m) * piece.lo ** (k - m) * u**deg / deg
    return total


RAMP_VALUES = st.just(0.0) | st.floats(1e-8, 10.0)


@RULE_PROPERTY
@given(lo=st.floats(-1.0, 10.0), width=st.floats(1e-6, 10.0), left=RAMP_VALUES,
       right=RAMP_VALUES, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_ramp_partial_moment_is_the_per_term_formula(lo, width, left, right, fractions):
    # The terms are kept on the piece after the first call; every later
    # point and order must still round exactly as the per-term formula.
    piece = Piece.ramp(left, right, lo, lo + width)
    for k in range(4):
        for f in fractions:
            r = min(piece.hi, piece.lo + f * piece.width)
            assert piece.partial_moment(k, r) == ramp_partial_moment_reference(piece, k, r)
        if not piece.is_zero:
            assert piece.moment(k) == ramp_partial_moment_reference(piece, k, piece.hi)


def value_by_scan(profile, r):
    """Reference pointwise value: the piece with lo <= r < hi, found by a linear scan."""
    last = profile.pieces[-1]
    if r == last.hi:
        return last.right_value()
    for piece in profile.pieces:
        if piece.lo <= r < piece.hi:
            return piece.value_at(r)
    raise AssertionError(f"{r} outside the profile's domain")


PIECE_VALUES = st.just(0.0) | st.floats(1e-3, 10.0)


@st.composite
def radial_profiles(draw):
    """Constant, power-law and ramp pieces from 0, then the zero tail."""
    segments, lo = [], 0.0
    for _ in range(draw(st.integers(1, 5))):
        hi = lo + draw(st.floats(1e-3, 3.0))
        kind = draw(st.sampled_from(("constant", "power", "ramp") if lo > 0.0
                                    else ("constant", "ramp")))
        if kind == "constant":
            segments.append(Piece.constant(draw(PIECE_VALUES), lo, hi))
        elif kind == "power":
            segments.append(Piece.power(draw(PIECE_VALUES), draw(st.floats(-3.0, 5.0)), lo, hi))
        else:
            segments.append(Piece.ramp(draw(PIECE_VALUES), draw(PIECE_VALUES), lo, hi))
        lo = hi
    return PiecewiseProfile.from_segments(segments)


@st.composite
def angular_profiles(draw):
    """Constant and ramp pieces covering [-1, 1]."""
    cuts = sorted(set(draw(st.lists(st.floats(-0.99, 0.99), max_size=4))))
    edges = [-1.0, *cuts, 1.0]
    return AngularProfile(tuple(
        Piece.ramp(draw(PIECE_VALUES), draw(PIECE_VALUES), lo, hi) if draw(st.booleans())
        else Piece.constant(draw(PIECE_VALUES), lo, hi)
        for lo, hi in zip(edges, edges[1:])))


@RULE_PROPERTY
@given(profile=radial_profiles() | angular_profiles(),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_evaluator_is_the_linear_scan(profile, fractions):
    # Interior points of every finite piece, every breakpoint (right
    # continuity), the left end of the domain, the last piece's hi, and for
    # a radial profile a point inside its zero tail.
    value = profile._value
    last = profile.pieces[-1]
    points = [p.lo + f * p.width for p in profile.pieces if math.isfinite(p.hi)
              for f in fractions]
    points += [p.lo for p in profile.pieces] + [last.hi]
    if isinstance(profile, PiecewiseProfile):
        points.append(2.0 * last.lo + 1.0)
    for r in points:
        assert value(r) == value_by_scan(profile, r), r
        assert profile(r) == value(r)
    assert value is profile._value


class TestPowerMoments:
    def test_indicator_idempotent(self):
        r = 0.9
        eta = uniform_eta(r)
        for beta in (0.5, 1.5, 3.0):
            assert eta.power_moment(beta, 2) == eta.moment(2)

    def test_constant_piece_factor(self):
        r2, r3 = 1.0, 2.0
        eta = PiecewiseProfile.from_segments(
            [Piece.constant(0.0, 0.0, r2), Piece.constant(ALPHA_REF, r2, r3)]
        )
        expected = ALPHA_REF**1.5 * (r3**3 - r2**3) / 3.0
        assert eta.power_moment(1.5, 2) == pytest.approx(expected, rel=1e-14)

    def test_atmosphere_power_piece_vs_quadrature(self):
        # beta * exponent = 4.5 with weight r^2: non-trivial antiderivative.
        r1, r2 = 0.01, 1.0 / 11.0
        piece = Piece.power(1.0, 3.0, r1, r2)
        closed = piece.power_moment(1.5, 2)
        oracle = integrate(lambda r: (r1 / r) ** 4.5 * r**2, r1, r2,
                           abs_tol=1e-15, rel_tol=1e-13)
        assert closed == pytest.approx(oracle.value, rel=1e-12)

    def test_power_moment_log_case(self):
        # beta * exponent - k = -1 exactly: logarithmic antiderivative.
        piece = Piece.power(1.0, 2.0, 0.5, 1.5)
        closed = piece.power_moment(1.5, 2)
        assert closed == pytest.approx(0.5**3 * math.log(3.0), rel=1e-14)

    @RULE_PROPERTY
    @given(
        radius=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
        width=st.floats(-9.0, 0.0).map(lambda e: 10.0**e),
        alpha=st.one_of(st.just(0.0), st.floats(-9.0, 0.0).map(lambda e: 10.0**e)),
        big=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        down=st.booleans(),
        k=st.sampled_from((0, 2)),
    )
    def test_ramp_matches_mpmath(self, radius, width, alpha, big, down, k):
        # One-sided (alpha = 0) and two-sided ramps, small end alpha * big.
        small = alpha * big
        left, right = (big, small) if down else (small, big)
        ramp = Piece.ramp(left, right, radius, radius + width)
        with mpmath.workdps(40):
            ref = mp_piece_integral(ramp, lambda v, r: v ** mpmath.mpf(1.5) * r**k)
        assert_rel(ramp.power_moment(1.5, k), float(ref), 1e-14)

    @pytest.mark.parametrize("left, right", [(1.0, 0.0), (0.0, 1.0)])
    def test_one_sided_ramp_needs_half_integer_power(self, left, right):
        # v^(2 beta) branches at the ramp's zero end, where the rule cannot resolve it.
        ramp = Piece.ramp(left, right, 0.5, 1.5)
        with pytest.raises(ValueError):
            ramp.power_moment(1.25, 2)
        assert Piece.ramp(left + 0.5, right + 0.5, 0.5, 1.5).power_moment(1.25, 2) > 0.0

    def test_narrow_ramp_at_large_radius(self):
        # The ramp is ~5e-10 of its radius: r - lo would lose ~9 digits.
        lo, hi = 955.6225263478642, 955.622526863737
        ramp = Piece.ramp(1.0, 0.0, lo, hi)
        with mpmath.workdps(40):
            w = mpmath.mpf(hi) - mpmath.mpf(lo)
            ref = mpmath.quad(
                lambda u: ((1 - u / w) ** 2 * (1 + 2 * u / w)) ** 1.5 * (lo + u) ** 2,
                [0, w],
            )
        assert ramp.power_moment(1.5, 2) == pytest.approx(float(ref), rel=1e-12)


class TestPlateauSelfNested:
    @RULE_PROPERTY
    @given(lo=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
           thickness=st.floats(-12.0, 2.0).map(lambda e: 10.0**e))
    def test_matches_mpmath(self, lo, thickness):
        # Thin shells (w / lo down to 1e-12) are where a difference of
        # powers loses every digit of this O(w^2) term.  Worst seen over
        # 20,000 random draws: 7.5e-16.
        hi = lo + thickness * (lo or 1.0)
        with mpmath.workdps(60):
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            ref = ((b**5 - a**5) / 5 - a**3 * (b**2 - a**2) / 2) / 3
        assert_rel(plateau_self_nested(lo, hi), float(ref), 1e-15)

    @pytest.mark.parametrize("hi", [0.01, 0.2, 0.6931471805599453, 1.0, 3.7])
    def test_from_zero_rounds_as_the_fourth_moment(self, hi):
        assert plateau_self_nested(0.0, hi) == power_integral(4.0, 0.0, hi) / 3.0


POWER_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)
# A power law (lo/r)**n meets r^(k - n) in its moments (k = 1, 2, 3) and the
# nested integral, and r^(2 - 1.5 n) in the L^{3/2} norm: (k, m) for k - m n.
POWER_EXPONENTS = st.sampled_from([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (2.0, 1.5)])


class TestPowerIntegral:
    @POWER_PROPERTY
    @given(form=POWER_EXPONENTS,
           n=st.one_of(st.floats(0.5, 6.0), st.sampled_from([1.0, 2.0, 3.0, 4.0])),
           lo=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
           x=st.floats(-12.0, 4.0).map(lambda e: 10.0**e))
    @example(form=(3.0, 1.0), n=2.5, lo=10.0, x=1e-6)
    @example(form=(2.0, 1.0), n=3.0, lo=0.3, x=1e-6)
    def test_matches_mpmath(self, form, n, lo, x):
        # On a thin interval log(hi / lo) of the rounded ratio errs ~eps lo / w
        # (4.4e-11 at the first example); log1p of the relative width does not.
        exponent, hi = form[0] - form[1] * n, lo * (1.0 + x)
        assume(hi > lo)
        with mpmath.workdps(60):
            e1, a, b = mpmath.mpf(exponent) + 1, mpmath.mpf(lo), mpmath.mpf(hi)
            ref = mpmath.log(b / a) if e1 == 0 else (b**e1 - a**e1) / e1
        assert_rel(power_integral(exponent, lo, hi), float(ref), 1e-14)


class TestRadii:
    @pytest.mark.parametrize("radii", [(0.2, 1.0, 2.0), (1.0, 1.0, 1.0)])
    def test_ordered_finite_accepted(self, radii):
        check_radii(*radii)

    @pytest.mark.parametrize("radii", [
        (0.0, 1.0, 2.0), (-0.1, 1.0, 2.0), (2.0, 1.0, 3.0), (0.2, 3.0, 2.0),
        (0.2, 1.0, math.inf), (math.inf, math.inf, math.inf), (math.nan, 1.0, 2.0),
        (0.2, math.nan, 2.0), (0.2, 1.0, math.nan),
    ])
    def test_rejected(self, radii):
        with pytest.raises(ProfileError):
            check_radii(*radii)

    def test_builders_share_the_check(self):
        with pytest.raises(ProfileError):
            core_halo_eta(0.2, 1.0, math.inf, 1e-3)
        with pytest.raises(ProfileError):
            monotonic_eta(0.01, math.nan, 0.1, 3.0)


class TestAngular:
    def test_full_sphere(self):
        assert AngularProfile.cutoff(1.0).moments() == (2.0, 0.0, 2.0)

    def test_reference_cutoff(self):
        m0, m1, m32 = AngularProfile.cutoff(-0.8).moments()
        assert m0 == pytest.approx(0.2, rel=1e-14)
        assert m1 == pytest.approx(-9.0 / 50.0, rel=1e-14)
        assert m32 == pytest.approx(0.2, rel=1e-14)

    def test_near_degenerate_flagged(self):
        ang = AngularProfile.cutoff(-1.0 + 1e-9)
        with pytest.warns(RuntimeWarning):
            m0, _, _ = ang.moments()
        assert m0 == pytest.approx(1e-9, rel=1e-6)

    def test_degenerate_rejected(self):
        with pytest.raises(ProfileError):
            AngularProfile.cutoff(-1.0)
        zero = AngularProfile((Piece.constant(0.0, -1.0, 1.0),))
        with pytest.raises(DegenerateFactorError):
            zero.moments()

    def test_power_pieces_rejected(self):
        with pytest.raises(ProfileError):
            AngularProfile(
                (Piece.power(1.0, 1.0, 0.5, 1.0),)  # wrong domain anyway
            )

    @given(st.floats(min_value=-1.0 + 1e-6, max_value=1.0, exclude_min=True))
    def test_factorization(self, a):
        m0, m1, _ = AngularProfile.cutoff(a).moments()
        assert m1 / m0 == pytest.approx((a - 1.0) / 2.0, rel=1e-12, abs=1e-15)


@given(
    r=st.floats(min_value=0.05, max_value=5.0),
    beta=st.floats(min_value=0.3, max_value=3.0),
    k=st.integers(min_value=0, max_value=3),
)
def test_indicator_power_moment_idempotent(r, beta, k):
    eta = uniform_eta(r)
    assert eta.power_moment(beta, k) == eta.moment(k)


def test_momentum_ball_labels():
    assert momentum_ball(2.0).domain_label == "radial-momentum"
    assert uniform_eta(2.0).domain_label == "radial-position"


def test_smallest_width():
    eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
    assert eta.smallest_width == pytest.approx(0.2)
