"""Zero-energy solves, the Brent port and the virial threshold angle."""

import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from conftest import mp_total_energy
from virial_forge import solvers
from virial_forge.cli import main
from virial_forge.errors import (
    BracketError,
    NoPositiveRootError,
    NoRootError,
    ProfileError,
    ThresholdUnreachableError,
    VirialForgeError,
)
from virial_forge.functionals import (
    check_criteria,
    kinetic_energy_ball,
    momentum_energy_moment,
    potential_energy_profile,
    spatial_momentum_factor,
    total_energy,
    virial,
)
from virial_forge.profiles import (
    AngularProfile,
    SeparableAnsatz,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    uniform_eta,
)
from virial_forge.quadrature import nested_mass_quad
from virial_forge.scans import ScanGrid
from virial_forge.solvers import (
    BRACKET_START,
    FAMILIES,
    PARAM_TOL,
    CoreHaloParams,
    MonotonicParams,
    RootBracket,
    UniformParams,
    brentq,
    core_halo_ansatz,
    corehalo_energy_quadratic,
    family_of,
    monotonic_ansatz,
    solve_corehalo_alpha,
    solve_monotonic_P,
    solve_quadratic,
    solve_threshold_a,
    solve_uniform_R,
    uniform_ansatz,
)


def paper_alpha_reference():
    """Direct numeric evaluation of the displayed closed-form halo level."""
    s2 = math.sqrt(2.0)
    lg = math.log(1.0 + s2)
    numerator = 35.0 * lg + 30.0 - 105.0 * s2 + 2.0 * math.sqrt(
        6480.0 * s2 - 1655.0 - 2160.0 * lg
    )
    denominator = 125.0 * (735.0 * s2 - 188.0 - 245.0 * lg)
    return numerator / denominator


class TestUniform:
    def test_reference_momentum(self):
        assert solve_uniform_R(1.0) == pytest.approx(
            3.0 / (5.0 * kinetic_energy_ball(1.0)), rel=1e-15
        )

    def test_rest_mass_limit(self):
        assert solve_uniform_R(1e-5) == pytest.approx(0.6, abs=1e-8)

    @pytest.mark.parametrize("p", [1e-104, 1e-106, 1e-110, 1e-300])
    def test_tiny_p_takes_the_series_limit(self, p):
        # p**3 underflows below ~2.8e-103; KE keeps its exact limit 1.
        assert kinetic_energy_ball(p) == 1.0
        assert solve_uniform_R(p) == 0.6

    def test_ultrarelativistic_asymptote(self):
        p = 1e5
        assert solve_uniform_R(p) == pytest.approx(4.0 / (5.0 * p), rel=1e-6)

    def test_round_trip_energy(self):
        # Residual bounded by 1e-12 at O(1) energies; at large P the energy
        # scale itself (KE ~ 3P/4) sets the double-precision floor.
        for p in (0.01, 0.5, 3.0, 1e4):
            ans = uniform_ansatz(UniformParams(r=solve_uniform_R(p), p=p, a=0.0))
            bound = 1e-12 * max(1.0, kinetic_energy_ball(p))
            assert abs(total_energy(ans)) <= bound

    def test_virial_identity_and_floor(self):
        # V = 27 P (a-1) / (160 KE(P)); |V| stays below 9/20 everywhere.
        worst = 0.0
        for p in np.geomspace(1e-2, 1e4, 25):
            r = solve_uniform_R(p)
            for a in (-0.999999, -0.5, 0.5):
                ans = uniform_ansatz(UniformParams(r=r, p=p, a=a))
                got = virial(ans)
                expected = 27.0 * p * (a - 1.0) / (160.0 * kinetic_energy_ball(p))
                assert got == pytest.approx(expected, rel=1e-12)
                worst = max(worst, abs(got))
        assert worst < 9.0 / 20.0


class TestCoreHalo:
    def test_matches_displayed_formula(self):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        assert alpha > 0.0
        assert alpha == pytest.approx(paper_alpha_reference(), rel=1e-10)

    def test_round_trip_energy(self):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        ans = core_halo_ansatz(
            CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.8)
        )
        assert abs(total_energy(ans)) <= 1e-10

    def test_full_output_reports_roots(self):
        alpha, roots = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0, full_output=True)
        assert alpha in roots
        assert len(roots) == 2
        assert alpha == min(x for x in roots if x > 0.0)

    def test_quadratic_matches_quadrature_interpolation(self):
        # Recover the polynomial g(alpha) = KE m2^2 - N from five samples of
        # the quadrature-evaluated energy balance; coefficients must agree.
        r1, r2, r3, p = 0.2, 1.0, 2.0, 1.0
        ke = kinetic_energy_ball(p)
        samples = np.linspace(0.0, 2e-3, 5)
        values = []
        for alpha in samples:
            eta = core_halo_eta(r1, r2, r3, float(alpha))
            values.append(ke * eta.moment(2) ** 2 - nested_mass_quad(eta).value)
        fitted = np.polyfit(samples, values, 2)
        a_coef, b_coef, c_coef = corehalo_energy_quadratic(r1, r2, r3, p)
        assert fitted[0] == pytest.approx(a_coef, rel=1e-10)
        assert fitted[1] == pytest.approx(b_coef, rel=1e-10)
        assert fitted[2] == pytest.approx(c_coef, rel=1e-10, abs=1e-16)

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(r1=st.floats(0.005, 0.05), r2=st.floats(1.0, 2.0), p=st.floats(0.5, 5.0),
           log_thickness=st.floats(-10.0, -1.0))
    def test_thin_halo_level_is_zero_energy(self, r1, r2, p, log_thickness):
        # The halo's self term is O(w^2), w = r3 - r2; summed from O(w)
        # differences it lost every digit as w shrank, in the solver and in
        # the exact evaluator alike, so only mpmath can judge the level.
        r3 = r2 * (1.0 + 10.0**log_thickness)
        alpha = solve_corehalo_alpha(r1, r2, r3, p)
        with mpmath.workdps(40):
            energy = mp_total_energy(core_halo_eta(r1, r2, r3, alpha), momentum_ball(p))
        assert abs(energy) <= 1e-10 * kinetic_energy_ball(p)

    def test_degenerate_halo_rejected(self):
        with pytest.raises(NoPositiveRootError):
            solve_corehalo_alpha(0.2, 1.0, 1.0, 1.0)

    def test_degenerate_halo_with_balanced_core(self):
        # Core radius chosen so the core alone is a zero-energy ball.
        r = solve_uniform_R(1.0)
        assert solve_corehalo_alpha(r, 2.0, 2.0, 1.0) == 0.0

    def test_unbalanceable_configuration(self):
        # A fat core already has positive energy; a halo only raises it.
        roots = solve_quadratic(*corehalo_energy_quadratic(2.0, 2.0, 2.5, 1.0))
        with pytest.raises(NoPositiveRootError) as err:
            solve_corehalo_alpha(2.0, 2.0, 2.5, 1.0)
        assert f"(roots {roots})" in str(err.value)

    def test_large_p_scaling_regime(self):
        # Halo level proportional to P^{-23/2} for radii (P^-2, P, P^2).
        a100 = solve_corehalo_alpha(100.0**-2, 100.0, 100.0**2, 100.0)
        a200 = solve_corehalo_alpha(200.0**-2, 200.0, 200.0**2, 200.0)
        assert a100 > 0.0 and a200 > 0.0
        assert 0.6 < a100 * 100.0**11.5 < 1.0
        assert a200 / a100 == pytest.approx(2.0**-11.5, rel=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(ProfileError):
            solve_corehalo_alpha(1.0, 0.5, 2.0, 1.0)
        with pytest.raises(ProfileError):
            solve_corehalo_alpha(0.2, 1.0, 2.0, -1.0)


class TestMonotonic:
    def test_reference_momentum_cutoff(self):
        p = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        assert p == pytest.approx(19.69, abs=0.05)

    def test_round_trip_energy(self):
        p = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        ans = monotonic_ansatz(
            MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p, a=-0.95)
        )
        assert abs(total_energy(ans)) <= 1e-10

    def test_shallow_potential_has_no_root(self):
        with pytest.raises(NoRootError):
            solve_monotonic_P(1.0, 100.0 / 11.0, 10.0, 3.0)

    def test_dilation_shifts_root_down(self):
        # Doubling all radii halves the binding; the kinetic term is strictly
        # increasing in the cutoff, so the balancing cutoff must shrink.
        from virial_forge.profiles import monotonic_eta

        pot1 = potential_energy_profile(monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0))
        pot2 = potential_energy_profile(monotonic_eta(0.02, 2.0 / 11.0, 0.2, 3.0))
        assert pot2 == pytest.approx(pot1 / 2.0, rel=1e-12)
        p1 = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        p2 = solve_monotonic_P(0.02, 2.0 / 11.0, 0.2, 3.0)
        assert p2 < p1
        assert kinetic_energy_ball(p2) == pytest.approx(-pot2, abs=1e-10)

    def test_energy_monotone_in_cutoff(self):
        from virial_forge.profiles import monotonic_eta

        pot = potential_energy_profile(monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0))
        ps = np.geomspace(0.5, 50.0, 20)
        vals = [kinetic_energy_ball(p) + pot for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestThreshold:
    def test_corehalo_threshold(self):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        ans = core_halo_ansatz(
            CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.8)
        )
        a_star = solve_threshold_a(ans)
        assert -0.81 <= a_star <= -0.79
        at_threshold = core_halo_ansatz(
            CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=a_star)
        )
        assert virial(at_threshold) == pytest.approx(-0.5, abs=1e-10)
        below = core_halo_ansatz(
            CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=a_star - 0.05)
        )
        assert virial(below) < -0.5

    def test_monotonic_threshold(self):
        p = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        ans = monotonic_ansatz(
            MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p, a=-0.95)
        )
        assert solve_threshold_a(ans) == pytest.approx(-0.9, abs=0.02)

    def test_uniform_unreachable(self):
        ans = uniform_ansatz(UniformParams(r=solve_uniform_R(1.0), p=1.0, a=-0.5))
        factor = spatial_momentum_factor(ans.spatial, ans.momentum)
        with pytest.raises(ThresholdUnreachableError) as err:
            solve_threshold_a(ans)
        assert factor <= 0.5
        assert f"factor {factor:.6g} <= 1/2" in str(err.value)

    def test_unit_factor_gives_zero(self):
        # S = (3R/4)(3P/4) = 1 at R = 16/9, P = 1 (no energy constraint here).
        a_star = solve_threshold_a(SeparableAnsatz(
            uniform_eta(16.0 / 9.0), momentum_ball(1.0), AngularProfile.cutoff(1.0)))
        assert a_star == pytest.approx(0.0, abs=1e-14)


class TestQuadraticAndBracket:
    def test_solve_quadratic_stable(self):
        roots = solve_quadratic(1.0, -3.0, 2.0)
        assert roots == pytest.approx((1.0, 2.0))
        assert solve_quadratic(1.0, 0.0, 1.0) == ()
        assert solve_quadratic(0.0, 2.0, -4.0) == pytest.approx((2.0,))
        big = solve_quadratic(1.0, -1e8, 1.0)
        assert min(big) == pytest.approx(1e-8, rel=1e-12)

    def test_bracket_expansion(self):
        f = lambda x: x - 12.0  # noqa: E731
        br = RootBracket.expand(f, 1.0, 2.0)
        assert f(br.lo) * f(br.hi) < 0.0
        with pytest.raises(BracketError):
            RootBracket.expand(lambda x: x + 1.0, 1.0, 2.0)

    def test_bracket_tries_sixteen_doublings_of_hi(self):
        # From BRACKET_START: 10 * 2^k for k = 0..16, the points an absolute
        # cap of 1e6 allowed, and the error names the last one.
        tried = []

        def positive(x):
            tried.append(x)
            return 1.0

        with pytest.raises(BracketError, match="no sign change up to 655360.0"):
            RootBracket.expand(positive, *BRACKET_START)
        assert tried == [BRACKET_START[0], *(10.0 * 2.0**k for k in range(17))]

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.0), (-1.0, 0.0), (-2.0, -1.0), (1.0, 1.0),
                                        (2.0, 1.0), (0.0, -0.0)])
    def test_bracket_that_doubling_cannot_move_is_rejected(self, lo, hi):
        # Doubling leaves a hi <= max(lo, 0) where it is; the loop never ends.
        def f(x):
            raise AssertionError("the residual must not be evaluated")

        with pytest.raises(BracketError, match="need hi > max"):
            RootBracket.expand(f, lo, hi)


class TestBracketAround:
    @staticmethod
    def probes(x0, steps):
        """x0, then x0 (1 + eps) and x0 / (1 + eps) for eps = 2^-9 times 4^k, k < steps."""
        grows = [1.0 + 2.0 ** (2 * k - 9) for k in range(steps)]
        return [x0, *(x for g in grows for x in (x0 * g, x0 / g))]

    @staticmethod
    def recording(f):
        tried = []

        def g(x):
            tried.append(x)
            return f(x)

        return g, tried

    @pytest.mark.parametrize("x0", [1.0, 3.7e-6, 2.5e4])
    def test_sign_change_above_x0(self, x0):
        # Root at 1.3 x0: a miss at eps = 2^-9 .. 2^-3 on both sides, then a
        # sign change at x0 (1 + 2^-1); the bracket is the last two probes above x0.
        f, tried = self.recording(lambda x: x - 1.3 * x0)
        br = RootBracket.around(f, x0)
        assert tried == self.probes(x0, 5)[:-1]
        assert (br.lo, br.hi) == (x0 * (1.0 + 2.0**-3), x0 * (1.0 + 2.0**-1))
        assert f(br.lo) < 0.0 < f(br.hi)

    @pytest.mark.parametrize("x0", [1.0, 3.7e-6, 2.5e4])
    def test_sign_change_below_x0(self, x0):
        # Root at x0 / 1.005: the down probe at eps = 2^-9 has the smaller |f|,
        # so at eps = 2^-7 the down probe goes first, and it hits.
        f, tried = self.recording(lambda x: math.atan(x / x0 - 1.0 / 1.005))
        br = RootBracket.around(f, x0)
        assert tried == [*self.probes(x0, 1), x0 / (1.0 + 2.0**-7)]
        assert (br.lo, br.hi) == (x0 / (1.0 + 2.0**-7), x0 / (1.0 + 2.0**-9))
        assert f(br.lo) < 0.0 < f(br.hi)

    @pytest.mark.parametrize("x0", [1.0, 3.7e-6, 2.5e4])
    def test_root_side_goes_first_after_the_first_eps(self, x0):
        # Root at 0.9 x0, found at eps = 2^-3: the bracket of the above-first
        # order, (x0 / (1 + 2^-3), x0 / (1 + 2^-5)), whose last up probe is saved.
        f, tried = self.recording(lambda x: x - 0.9 * x0)
        br = RootBracket.around(f, x0)
        assert (br.lo, br.hi) == (x0 / (1.0 + 2.0**-3), x0 / (1.0 + 2.0**-5))
        _, up1, down1, up2, down2, up3, down3, _, down4 = self.probes(x0, 4)
        assert tried == [x0, up1, down1, down2, up2, down3, up3, down4]

    def test_first_probe_past_x0_brackets_against_x0(self):
        br = RootBracket.around(lambda x: x - 1.001, 1.0)
        assert (br.lo, br.hi) == (1.0, 1.0 + 2.0**-9)

    def test_root_at_x0_returns_at_once(self):
        f, tried = self.recording(lambda x: x - 2.0)
        br = RootBracket.around(f, 2.0)
        assert (br.lo, br.hi) == (2.0, 2.0) and tried == [2.0]
        assert brentq(f, br.lo, br.hi, xtol=1e-15) == 2.0

    def test_zero_probe_ends_the_search_and_is_the_root(self):
        x0 = 1.0
        root = x0 / (1.0 + 2.0**-7)
        f = lambda x: 0.0 if x == root else x - 0.5 * (root + x0 / (1.0 + 2.0**-5))  # noqa: E731
        br = RootBracket.around(f, x0)
        assert (br.lo, br.hi) == (root, x0 / (1.0 + 2.0**-9))
        assert brentq(f, br.lo, br.hi, xtol=1e-15) == root

    @pytest.mark.parametrize("x0", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_non_positive_x0_is_rejected_before_any_evaluation(self, x0):
        def f(x):
            raise AssertionError("the residual must not be evaluated")

        with pytest.raises(BracketError, match="need x0 > 0"):
            RootBracket.around(f, x0)

    def test_no_sign_change_names_the_last_interval(self):
        f, tried = self.recording(lambda x: 1.0)
        grow = 1.0 + 2.0**17
        with pytest.raises(BracketError) as err:
            RootBracket.around(f, 3.0)
        assert str(err.value) == f"no sign change on [{3.0 / grow!r}, {3.0 * grow!r}]"
        assert tried == self.probes(3.0, 14)

    @pytest.mark.parametrize("x0", [1.0, 1e-3, 7.0e5])
    def test_reach_upward_covers_sixteen_doublings(self, x0):
        # RootBracket.expand reaches 2^16 times its starting hi; so does this.
        root = x0 * 2.0**16
        br = RootBracket.around(lambda x: x - root, x0)
        assert br.lo < root <= br.hi
        assert brentq(lambda x: x - root, br.lo, br.hi, xtol=1e-15 * x0) == pytest.approx(
            root, rel=1e-14)


def _brent_trace(solver, f, lo, hi, **kwargs):
    """Root and evaluation points of one solve, as float.hex strings."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return solver(g, lo, hi, **kwargs).hex(), [x.hex() for x in xs]


def _seeded_residuals(seed, count, scale_exp):
    """(f, lo, hi, scale) cycling polynomial, atan and exp residuals.

    Each has one root inside [lo, hi]; ``scale`` (log-uniform over
    10**scale_exp) sets the size of the root, as the halo level does for
    the core-halo rebalance.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        scale = 10.0 ** float(rng.uniform(*scale_exp))
        root = scale * float(rng.uniform(0.6, 1.8))
        lo, hi = 0.5 * scale, 2.0 * scale
        c1, c2, s = (float(v) for v in rng.uniform(0.1, 3.0, size=3))
        if i % 3 == 0:
            f = lambda x, r=root, c1=c1, c2=c2, k=scale: (  # noqa: E731
                (x / k - r / k) * (1.0 + c1 * x / k + c2 * (x / k) ** 2))
        elif i % 3 == 1:
            f = lambda x, r=root, s=s, k=scale: math.atan(s * (x - r) / k)  # noqa: E731
        else:
            f = lambda x, r=root, s=s, k=scale: math.exp(s * (x - r) / k) - 1.0  # noqa: E731
        yield f, lo, hi, scale


class TestBrent:
    """``solvers.brentq`` is bit-identical to ``scipy.optimize.brentq``."""

    # The xtol/maxiter of every call site: solve_monotonic_P, then the
    # uniform, monotonic and core-halo rebalances of the mollifier.
    CALL_SITES = {
        "param-tol": (lambda scale: {"xtol": PARAM_TOL}, (-1.0, 1.0)),
        "rebalance-uniform": (lambda scale: {"xtol": 1e-14}, (-3.0, 0.0)),
        "rebalance-monotonic": (lambda scale: {"xtol": 1e-12}, (-1.0, 1.0)),
        "rebalance-corehalo": (lambda scale: {"xtol": max(1e-18, 1e-12 * scale),
                                              "maxiter": 200}, (-14.0, 0.0)),
    }

    @pytest.mark.parametrize("site", sorted(CALL_SITES))
    def test_matches_scipy_bit_for_bit(self, site):
        kwargs_of, scale_exp = self.CALL_SITES[site]
        for f, lo, hi, scale in _seeded_residuals(20261018, 240, scale_exp):
            kwargs = kwargs_of(scale)
            ours = _brent_trace(brentq, f, lo, hi, **kwargs)
            assert ours == _brent_trace(scipy.optimize.brentq, f, lo, hi, **kwargs)

    def test_monotonic_solves_match_scipy(self):
        # The ranges of the monotonic data in the certify benchmark pool.
        rng = np.random.default_rng(20261018)
        solved = 0
        for _ in range(40):
            r1 = math.exp(float(rng.uniform(math.log(0.005), math.log(0.05))))
            r2 = r1 * float(rng.uniform(3.0, 15.0))
            r3 = r2 * float(rng.uniform(1.05, 1.5))
            n = float(rng.uniform(2.0, 4.0))
            pot = potential_energy_profile(monotonic_eta(r1, r2, r3, n))
            if pot >= -1.0:
                continue
            residual = lambda p, pot=pot: kinetic_energy_ball(p) + pot  # noqa: E731
            bracket = RootBracket.expand(residual, *BRACKET_START)
            ours = _brent_trace(brentq, residual, bracket.lo, bracket.hi, xtol=PARAM_TOL)
            theirs = _brent_trace(scipy.optimize.brentq, residual, bracket.lo, bracket.hi,
                                  xtol=PARAM_TOL)
            assert ours == theirs
            assert solve_monotonic_P(r1, r2, r3, n).hex() == theirs[0]
            solved += 1
        assert solved >= 30

    def test_zero_denominator_bisects_as_scipy(self):
        # The extrapolation denominator underflows to 0; C divides to +-inf
        # or NaN there and bisects.
        f = lambda x: 1e-170 * (x - 0.3) if x < 0.9 else 1e-170  # noqa: E731
        ours = _brent_trace(brentq, f, 0.0, 1.0, xtol=2e-12)
        assert ours == _brent_trace(scipy.optimize.brentq, f, 0.0, 1.0, xtol=2e-12)

    @pytest.mark.parametrize(
        "f, xtol, match",
        [
            (lambda x: x + 1.0, 2e-12, "f\\(a\\) and f\\(b\\) must have different signs"),
            (lambda x: x - 0.7 if x in (0.0, 1.0) else math.nan, 2e-12, "NaN"),
            (lambda x: math.nan, 2e-12, "NaN"),
            (lambda x: x - 0.7, 0.0, "xtol too small"),
            (lambda x: x - 0.7, -1e-12, "xtol too small"),
        ],
        ids=["same-sign", "nan-iterate", "nan-endpoint", "xtol-zero", "xtol-negative"],
    )
    def test_invalid_calls_raise_value_error(self, f, xtol, match):
        with pytest.raises(ValueError, match=match):
            brentq(f, 0.0, 1.0, xtol)
        with pytest.raises(ValueError, match=match):
            scipy.optimize.brentq(f, 0.0, 1.0, xtol=xtol)

    def test_endpoint_root_is_exact(self):
        f = lambda x: x - 0.1  # noqa: E731
        assert brentq(f, 0.1, 1.0, 2e-12) == 0.1
        assert brentq(f, -1.0, 0.1, 2e-12) == 0.1
        # A one-point bracket (RootBracket.expand at a root of f) returns it.
        assert brentq(f, 0.1, 0.1, 2e-12) == 0.1

    def test_numpy_scalars_give_float(self):
        # As scipy's C wrapper does, endpoints and values are taken as floats.
        f = lambda x: np.float64(x) ** 3 - np.float64(0.1)  # noqa: E731
        lo, hi = np.geomspace(0.01, 10.0, 2)
        root = brentq(f, lo, hi, 2e-12)
        assert type(root) is float
        assert root.hex() == scipy.optimize.brentq(f, lo, hi, xtol=2e-12).hex()

    def test_iteration_cap_raises_no_root(self):
        with pytest.raises(NoRootError, match="did not converge in 3 iterations"):
            brentq(lambda x: x**3 - 0.1, 0.0, 10.0, 2e-12, maxiter=3)
        # scipy stops at the same cap, with a bare RuntimeError.
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            scipy.optimize.brentq(lambda x: x**3 - 0.1, 0.0, 10.0, xtol=2e-12, maxiter=3)

    def test_iteration_cap_exits_2(self, monkeypatch, capsys):
        # scipy's RuntimeError escaped the CLI as a traceback (exit 1).
        monkeypatch.setattr(solvers, "brentq", functools.partial(brentq, maxiter=2))
        code = main(["certify", "--family", "monotonic", "--r1", "0.01",
                     "--r2", "0.0909090909", "--r3", "0.1", "--n", "3", "--a", "-0.95"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: Brent iteration did not converge in 2 iterations")
        assert err.count("\n") == 1


class TestFamilies:
    KNOWN = {
        "uniform": {"p": 1.0, "a": -0.99},
        "core-halo": {"r1": 0.2, "r2": 1.0, "r3": 2.0, "p": 1.0, "a": -0.8},
        "monotonic": {"r1": 0.01, "r2": 1.0 / 11.0, "r3": 0.1, "n": 3.0, "a": -0.95},
    }

    def test_inputs_are_the_non_free_fields(self):
        assert FAMILIES["uniform"].inputs == ("p", "a")
        assert FAMILIES["core-halo"].inputs == ("r1", "r2", "r3", "p", "a")
        assert FAMILIES["monotonic"].inputs == ("r1", "r2", "r3", "n", "a")

    @pytest.mark.parametrize("name", sorted(KNOWN))
    def test_solve_gives_zero_energy(self, name):
        family = FAMILIES[name]
        known = self.KNOWN[name]
        params = family.params(**known, **{family.free: family.solve(**known)})
        assert family_of(params) is family
        assert abs(total_energy(family.ansatz(params))) < 1e-9

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError):
            family_of(object())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, error",
    [
        # The params classes are plain records: building the ansatz checks their fields.
        (lambda: uniform_ansatz(UniformParams(r=NAN, p=1.0, a=0.0)), ProfileError),
        (lambda: uniform_ansatz(UniformParams(r=1.0, p=INF, a=0.0)), ProfileError),
        (lambda: core_halo_ansatz(CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=NAN, alpha=0.1,
                                                 a=0.0)), ProfileError),
        (lambda: core_halo_ansatz(CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=NAN,
                                                 a=0.0)), ProfileError),
        (lambda: monotonic_ansatz(MonotonicParams(r1=0.01, r2=0.09, r3=0.1, n=INF, p=1.0,
                                                  a=0.0)), ProfileError),
        (lambda: solve_uniform_R(NAN), ProfileError),
        (lambda: solve_uniform_R(INF), ProfileError),
        (lambda: solve_corehalo_alpha(0.2, 1.0, 2.0, NAN), ProfileError),
        (lambda: kinetic_energy_ball(NAN), ValueError),
        (lambda: momentum_energy_moment(INF), ValueError),
        (lambda: check_criteria(uniform_ansatz(UniformParams(r=0.5, p=1.0, a=0.0)),
                                energy_tol=NAN), ValueError),
        (lambda: ScanGrid(P_values=(NAN,), a_values=(0.0,)), VirialForgeError),
    ],
    ids=["uniform-r-nan", "uniform-p-inf", "corehalo-p-nan", "corehalo-alpha-nan",
         "monotonic-n-inf", "solve-R-nan", "solve-R-inf", "solve-alpha-p-nan",
         "ke-ball-nan", "energy-moment-inf", "energy-tol-nan", "scan-grid-P-nan"],
)
def test_non_finite_input_rejected(build, error):
    with pytest.raises(error, match="finite"):
        build()
