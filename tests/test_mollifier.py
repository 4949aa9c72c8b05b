"""Smoothing of step profiles and zero-energy rebalancing."""

import math
import sys
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rel, mp_nested, mp_piece_integral, tight_integral, tight_nested
from virial_forge import functionals, mollifier, solvers
from virial_forge.cli import main
from virial_forge.errors import (
    BracketError,
    NoPositiveRootError,
    NoRootError,
    ProfileError,
    RampOverlapError,
    VirialForgeError,
)
from virial_forge.functionals import (
    DEFAULT_ENERGY_TOL,
    check_criteria,
    evaluate,
    potential_energy_profile,
    total_energy,
)
from virial_forge.mollifier import (
    MollifySpec,
    default_delta,
    functional_drift,
    mollify,
    mollify_profile,
    rebalance,
    seam_smoothness,
)
from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    uniform_eta,
)
from virial_forge.solvers import (
    CoreHaloParams,
    MonotonicParams,
    RootBracket,
    UniformParams,
    brentq,
    core_halo_ansatz,
    monotonic_ansatz,
    solve_corehalo_alpha,
    solve_monotonic_P,
    solve_uniform_R,
)

EPS = sys.float_info.epsilon


def reference_params(a=-0.85):
    alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
    return CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=a)


def step_of(params):
    """The step ansatz of a family datum, which ``rebalance`` smooths."""
    return solvers.family_of(params).ansatz(params)


def two_level_profile():
    """A custom profile with an interior positive-positive jump."""
    return PiecewiseProfile.from_segments(
        [Piece.constant(1.0, 0.0, 1.0), Piece.constant(0.5, 1.0, 2.0)]
    )


class TestMollifyProfile:
    def test_interior_jump_midpoint(self):
        smooth = mollify_profile(two_level_profile(), 0.1)
        assert smooth(1.0) == pytest.approx(0.75, rel=1e-14)

    def test_zero_edges_one_sided(self):
        eta = core_halo_eta(0.2, 1.0, 2.0, 7.8e-4)
        smooth = mollify_profile(eta, 0.01)
        # Support edges stay exactly where they were.
        assert smooth.support_radius == 2.0
        assert smooth(2.0) == 0.0
        assert smooth(0.2) == 0.0
        assert smooth(1.0) == 0.0
        # Ramps live inside the formerly-positive side.
        assert 0.0 < smooth(0.195) < 1.0
        assert 0.0 < smooth(1.005) < 7.8e-4
        assert 0.0 < smooth(1.995) < 7.8e-4

    def test_plateaus_unchanged(self):
        eta = core_halo_eta(0.2, 1.0, 2.0, 7.8e-4)
        smooth = mollify_profile(eta, 0.01)
        for r in (0.1, 0.15, 1.5, 1.8):
            assert smooth(r) == eta(r)

    def test_non_negative_everywhere(self):
        smooth = mollify_profile(core_halo_eta(0.2, 1.0, 2.0, 7.8e-4), 0.05)
        for r in np.linspace(0.0, 2.2, 500):
            assert smooth(float(r)) >= 0.0

    def test_delta_zero_is_identity(self):
        eta = core_halo_eta(0.2, 1.0, 2.0, 7.8e-4)
        assert mollify_profile(eta, 0.0).pieces == eta.pieces

    def test_monotone_profile_stays_monotone(self):
        eta = monotonic_eta(0.01, 1.0 / 11.0, 0.1, 3.0)
        smooth = mollify_profile(eta, 1e-3)
        grid = np.linspace(0.0, 0.12, 800)
        vals = [smooth(float(r)) for r in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_overlapping_ramps_rejected(self):
        eta = core_halo_eta(0.2, 1.0, 1.05, 7.8e-4)
        with pytest.raises(RampOverlapError) as err:
            mollify_profile(eta, 0.04)
        assert "would leave [" in str(err.value)

    def test_ramp_crossing_piece_edge_rejected(self):
        with pytest.raises(RampOverlapError):
            mollify_profile(uniform_eta(0.5), 0.6)

    def test_double_mollification_rejected(self):
        smooth = mollify_profile(uniform_eta(1.0), 0.01)
        with pytest.raises(ProfileError):
            mollify_profile(smooth, 0.01)

    def test_power_piece_reanchored_exactly(self):
        # A jump to the left of a power piece shifts its start; the function
        # must not change on the remaining interval.
        rough = PiecewiseProfile.from_segments(
            [Piece.constant(0.4, 0.0, 1.0), Piece.power(1.0, 2.0, 1.0, 2.0)]
        )
        smooth = mollify_profile(rough, 0.05)
        for r in (1.1, 1.5, 1.9):
            assert smooth(r) == pytest.approx(rough(r), rel=1e-14)


# Levels from 1e-20 up, and zero: jumps far below 1e-12 in absolute size.
LEVELS = st.one_of(st.just(0.0), st.floats(-20.0, 1.0).map(lambda e: 10.0**e))
ONE_PASS = settings(derandomize=True, deadline=None, max_examples=400, database=None)


@st.composite
def step_profiles(draw):
    """A step profile of 1-5 constant, zero or power pieces, and a half-width."""
    widths = draw(st.lists(st.floats(-3.0, 0.5).map(lambda e: 10.0**e), min_size=1, max_size=5))
    edges = list(accumulate(widths, initial=0.0))
    segments, level = [], None
    for lo, hi in zip(edges, edges[1:]):
        value = draw(LEVELS)
        if level is not None and draw(st.integers(0, 4)) == 0:
            value = level  # no jump at this breakpoint
        if lo > 0.0 and draw(st.booleans()):
            exponent = draw(st.floats(0.5, 4.0))
            segments.append(Piece.power(value, exponent, lo, hi))
            level = value * (lo / hi) ** exponent
        else:
            segments.append(Piece.constant(value, lo, hi))
            level = value
    delta = min(widths) * 10.0 ** draw(st.floats(-3.0, 0.5))
    return PiecewiseProfile.from_segments(segments), delta


def expected_ramps(step, delta):
    """(lo, hi) of the ramp at every jump, or the (start, end) a misfit had to fit in."""
    ramps, start = [], 0.0
    for a, b in zip(step.pieces, step.pieces[1:]):
        left = a.value * (a.lo / a.hi) ** a.exponent if a.kind == "power" else a.value
        right = b.value
        start = max(start, a.lo)
        if abs(left - right) <= 1e-12 * max(left, right):
            continue
        lo = a.hi - delta if left > 0.0 else a.hi
        hi = a.hi + delta if right > 0.0 else a.hi
        if lo < start or hi > b.hi:
            return ramps, (start, b.hi)
        ramps.append((lo, hi))
        start = hi
    return ramps, None


class TestOnePass:
    @ONE_PASS
    @given(step_profiles())
    def test_matches_independent_ramps(self, case):
        step, delta = case
        ramps, misfit = expected_ramps(step, delta)
        if misfit is not None:
            with pytest.raises(RampOverlapError) as err:
                mollify_profile(step, delta)
            assert f"would leave [{misfit[0]}, {misfit[1]}]" in str(err.value)
            return
        smooth = mollify_profile(step, delta)
        pieces = smooth.pieces
        assert pieces[0].lo == 0.0 and pieces[-1].hi == math.inf
        assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))
        assert [(p.lo, p.hi) for p in pieces if p.kind == "ramp"] == ramps
        for i, p in enumerate(pieces):
            if p.kind == "ramp":
                # Continuous at both ends: each neighbour's value there is the ramp's.
                if i > 0:
                    assert pieces[i - 1].right_value() == p.left
                assert pieces[i + 1].left_value() == p.right
                continue
            hi = min(p.hi, p.lo + 10.0)
            for r in (p.lo, 0.5 * (p.lo + hi), p.lo + 0.999 * (hi - p.lo)):
                source = next(q for q in step.pieces if q.lo <= r < q.hi)
                if p.kind == "constant" or p.lo == source.lo:
                    assert smooth(r) == step(r)
                else:
                    # Re-anchored at its new left end: v (lo/start)^n rounds once more.
                    assert smooth(r) == pytest.approx(step(r), rel=1e-14)

    def test_power_neighbours_meet_the_ramp(self):
        # A ramp beside a power law takes the power law's value at the ramp's
        # end, not at the old breakpoint, so the profile stays continuous.
        rough = PiecewiseProfile.from_segments(
            [Piece.constant(1.0, 0.0, 1.0), Piece.power(0.5, 3.0, 1.0, 2.0)])
        pieces = mollify_profile(rough, 0.05).pieces
        assert [p.kind for p in pieces] == ["constant", "ramp", "power", "ramp", "constant"]
        assert pieces[1].right == pieces[2].value == rough(1.05)
        assert pieces[3].left == pieces[2].right_value() == pytest.approx(rough(1.95), rel=1e-15)

    def test_tiny_halo_gets_ramps(self):
        # The scaling family at P = 20, radii (P^-2, P, P^2): the halo level
        # is ~7e-16, far below an absolute jump threshold of 1e-12.
        alpha = solve_corehalo_alpha(0.0025, 20.0, 400.0, 20.0)
        params = CoreHaloParams(r1=0.0025, r2=20.0, r3=400.0, p=20.0, alpha=alpha, a=-0.9)
        spec = MollifySpec(delta=default_delta(core_halo_ansatz(params)))
        new_params, moll = rebalance(params, step_of(params), spec)
        eta = moll.spatial
        assert 0.0 < new_params.alpha < 1e-15
        for a, b in zip(eta.pieces, eta.pieces[1:]):
            assert a.right_value() == b.left_value(), f"jump at r = {a.hi}"
        ramps = [(p.lo, p.hi) for p in eta.pieces if p.kind == "ramp"]
        assert any(lo == 20.0 for lo, _ in ramps)
        assert any(hi == 400.0 for _, hi in ramps)


class TestAngularMollify:
    def test_cutoff_one_sided(self):
        ang = mollify_profile(AngularProfile.cutoff(-0.8), 0.05)
        assert ang(-0.8) == 0.0
        assert ang(-0.9) == 1.0
        assert 0.0 < ang(-0.82) < 1.0
        m0, m1, m32 = ang.moments()
        assert 0.0 < m0 < 0.2
        assert m1 < 0.0

    def test_moments_match_quadrature(self):
        from virial_forge.quadrature import angular_moment_quad

        ang = mollify_profile(AngularProfile.cutoff(-0.8), 0.05)
        for k in (0, 1):
            oracle = angular_moment_quad(ang, k)
            assert ang.moment(k) == pytest.approx(oracle.value, rel=1e-12, abs=1e-15)
        oracle32 = angular_moment_quad(ang, 0, beta=1.5)
        assert ang.power_moment(1.5, 0) == pytest.approx(oracle32.value, rel=1e-9)


# Mollified data built afresh in each test, so no memo outlives a monkeypatch
# (tests/test_probes.py): ramps wide enough to weigh in every moment, a
# two-sided ramp between touching shells, and ramps 1e-6 of their radius.
MOLLIFIED_RADIAL = {
    "ball": lambda: mollify_profile(uniform_eta(1.0), 0.25),
    "core-halo": lambda: mollify_profile(core_halo_eta(0.2, 1.0, 2.0, 0.3), 0.05),
    "touching-shells": lambda: mollify_profile(core_halo_eta(0.5, 0.5, 1.0, 0.3), 0.1),
    "thin-ramps": lambda: mollify_profile(core_halo_eta(1e3, 2e3, 3e3, 0.01), 1e-3),
}
MOLLIFIED_CUTOFFS = {"across-zero": (0.05, 0.1), "inward": (-0.8, 0.05)}


def mp_moment(profile, k, f=lambda x, k: x**k):
    """Sum over the nonzero finite pieces of int value f(x, k) dx, in mpmath."""
    return mpmath.fsum(mp_piece_integral(p, lambda v, x: v * f(x, k)) for p in profile.pieces
                       if not p.is_zero and math.isfinite(p.hi))


class TestMollifiedAgainstMpmath:
    """The exact route's ramp moments and nested term on mollified data, at 40 digits."""

    @pytest.mark.parametrize("name", MOLLIFIED_RADIAL)
    def test_radial_moments_and_nested(self, name):
        eta = MOLLIFIED_RADIAL[name]()
        with mpmath.workdps(40):
            for k in (2, 3):
                assert_rel(eta.moment(k), mp_moment(eta, k), 1e-15)
            assert_rel(functionals._exact_nested(eta), mp_nested(eta)[0], 1e-15)

    @pytest.mark.parametrize("name", MOLLIFIED_CUTOFFS)
    def test_angular_moments(self, name):
        ang = mollify_profile(AngularProfile.cutoff(MOLLIFIED_CUTOFFS[name][0]),
                              MOLLIFIED_CUTOFFS[name][1])
        with mpmath.workdps(40):
            for k in (0, 1):
                # x^k changes sign across 0: judged against eps int |v| |x|^k.
                scale = mp_moment(ang, k, lambda x, k: abs(x) ** k)
                assert abs(ang.moment(k) - mp_moment(ang, k)) <= 2.0 * EPS * scale


class TestSeams:
    def test_smoothstep_seams_are_c1(self):
        for delta in (0.05, 0.01, 1.5e-3):
            smooth = mollify_profile(core_halo_eta(0.2, 1.0, 2.0, 7.8e-4), delta)
            assert seam_smoothness(smooth) < 1e-4

    def test_two_sided_seams(self):
        smooth = mollify_profile(two_level_profile(), 0.07)
        assert seam_smoothness(smooth) < 1e-4

    def test_step_profile_has_no_seams(self):
        assert seam_smoothness(uniform_eta(1.0)) == 0.0
        assert seam_smoothness(AngularProfile((Piece.ramp(0.0, 0.0, -1.0, 1.0),))) == 0.0

    def test_ramp_holds_its_end_value_past_the_domain(self):
        # The right quotient at x = 1 reads past [-1, 1]; the ramp holds its
        # end value there, so only the left quotient's 1.5 h remains (the
        # extrapolated cubic would double it).
        profile = AngularProfile((Piece.constant(1.0, -1.0, 0.5), Piece.ramp(1.0, 0.5, 0.5, 1.0)))
        assert seam_smoothness(profile) == pytest.approx(1.5e-6, rel=1e-4)


class TestConvergence:
    def test_drift_shrinks_with_delta(self):
        params = reference_params()
        step = core_halo_ansatz(params)
        feature = default_delta(step, fraction=1.0)
        keys = ("mass", "kinetic", "potential", "virial", "l32_norm")
        ladders = {k: [] for k in keys}
        for frac in (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
            moll = mollify(step, MollifySpec(delta=frac * feature))
            drift = functional_drift(evaluate(step), evaluate(moll))
            for k in keys:
                ladders[k].append(drift[k]["drift"])
        for k in keys:
            seq = ladders[k]
            for coarse, fine in zip(seq, seq[1:]):
                assert fine <= coarse + 1e-13, (k, seq)
        # The geometric ladder must actually shrink for the nontrivial ones.
        for k in ("kinetic", "potential", "virial", "l32_norm"):
            assert ladders[k][-1] < 0.3 * ladders[k][0]


class TestRebalance:
    def test_corehalo_levels_stay_close(self):
        params = reference_params()
        spec = MollifySpec(delta=1e-3)
        new_params, moll = rebalance(params, step_of(params), spec)
        assert new_params.alpha > 0.0
        assert abs(new_params.alpha - params.alpha) <= 0.05 * params.alpha
        assert abs(total_energy(moll)) <= 1e-9

    def test_corehalo_certificate_passes(self):
        params = reference_params(a=-0.85)
        _, moll = rebalance(params, step_of(params), MollifySpec(delta=1e-3))
        cert = check_criteria(moll)
        assert cert.passed
        assert cert.energy_residual <= 1e-9
        assert cert.report.method == "fixed-rule"

    def test_delta_zero_reproduces_step_solve(self):
        params = reference_params()
        step = step_of(params)
        new_params, ansatz = rebalance(params, step, MollifySpec(delta=0.0))
        assert new_params.alpha == solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        assert ansatz is step
        assert not any(f.has_ramp for f in (ansatz.spatial, ansatz.momentum, ansatz.angular))

    def test_brackets_from_the_given_step_solve(self, monkeypatch):
        # The caller's params already hold the step solve; rebalance starts
        # its bracket there and solves nothing itself.
        params = reference_params()
        calls = []
        real = solvers.solve_corehalo_alpha
        monkeypatch.setattr(solvers, "solve_corehalo_alpha",
                            lambda *args: calls.append(args) or real(*args))
        for delta in (0.0, 1e-3):
            rebalance(params, step_of(params), MollifySpec(delta=delta))
        assert calls == []

    def test_uniform_rebalance(self):
        params = UniformParams(r=solve_uniform_R(1.0), p=1.0, a=-0.5)
        new_params, moll = rebalance(params, step_of(params), MollifySpec(delta=1e-3))
        assert abs(total_energy(moll)) <= 1e-9
        assert abs(new_params.r - params.r) <= 0.05 * params.r

    def test_monotonic_rebalance(self):
        p_step = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        params = MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p_step, a=-0.95)
        new_params, moll = rebalance(params, step_of(params), MollifySpec(delta=2e-4))
        assert abs(total_energy(moll)) <= 1e-9
        assert abs(new_params.p - p_step) <= 0.05 * p_step
        cert = check_criteria(moll)
        assert cert.passed

    def test_small_radius_certificate_holds_on_exact_energy(self):
        # The nested integral here is ~1e-11, below quad's default abs tol
        # 1e-12, so a quadrature-valued potential certified an energy of
        # -6.7e-8.  Recompute both energy terms at tight tolerances.
        r1, r2, r3, n, a = 0.00588, 0.0779, 0.1016, 2.714, -0.809
        p_step = solve_monotonic_P(r1, r2, r3, n)
        params = MonotonicParams(r1=r1, r2=r2, r3=r3, n=n, p=p_step, a=a)
        spec = MollifySpec(delta=default_delta(monotonic_ansatz(params)))
        _, moll = rebalance(params, step_of(params), spec)
        assert check_criteria(moll).passed

        eta, phi = moll.spatial, moll.momentum
        m2 = eta.moment(2)
        nested = tight_nested(eta)
        assert nested < 1e-10
        assert potential_energy_profile(eta) == pytest.approx(-nested / m2**2, rel=1e-12)
        kinetic = tight_integral(lambda p: math.sqrt(1.0 + p * p) * phi(p) * p * p,
                                 phi) / phi.moment(2)
        assert abs(kinetic - nested / m2**2) <= DEFAULT_ENERGY_TOL

    def test_touching_core_and_halo(self):
        # r1 == r2: the core-to-halo jump gets a symmetric 1 -> alpha ramp,
        # which turns one-sided at alpha = 0, so the mollified energy is not
        # one quadratic in alpha on [0, alpha].
        alpha_step = solve_corehalo_alpha(0.2, 0.2, 2.0, 1.0)
        params = CoreHaloParams(r1=0.2, r2=0.2, r3=2.0, p=1.0, alpha=alpha_step, a=-0.85)
        drifts = []
        for delta in (1e-3, 1e-4, 1e-5):
            new_params, moll = rebalance(params, step_of(params), MollifySpec(delta=delta))
            assert abs(total_energy(moll)) <= 1e-10
            drifts.append(abs(new_params.alpha - alpha_step))
        assert drifts[0] > drifts[1] > drifts[2]
        assert drifts[2] <= 2e-5 * alpha_step


class TestSpec:
    def test_negative_delta_rejected(self):
        with pytest.raises(ProfileError):
            MollifySpec(delta=-0.1)

    def test_default_delta(self):
        step = core_halo_ansatz(reference_params(a=-0.85))
        # Smallest feature: the angular slab [-1, -0.85] of width 0.15.
        assert default_delta(step) == pytest.approx(1.5e-4, rel=1e-12)


def rebalance_reference(params, spec, bracket=RootBracket.expand):
    """Rebalance by full rebuild: the whole step ansatz smoothed anew at every point.

    ``bracket(residual, x0)`` brackets the root.  Returns the free parameter,
    its mollified ansatz and its energy.
    """
    family = solvers.family_of(params)
    x0 = getattr(params, family.free)

    def mollified(x):
        return mollify(family.ansatz(params._replace(**{family.free: x})), spec)

    def residual(x):
        return total_energy(mollified(x))

    found = bracket(residual, x0)
    x = brentq(residual, found.lo, found.hi, xtol=1e-15 * x0)
    return x, mollified(x), residual(x)


def doubling_bracket(f, lo, hi):
    """The former walk for a rising f: double hi, or halve lo where f(lo) > 0.

    Returns [lo, hi * 2^k] for the first k with a sign change, or
    [lo / 2^k, lo] for the first k with f(lo / 2^k) <= 0.
    """
    flo = f(lo)
    if flo == 0.0:
        return RootBracket(lo, lo)
    if flo > 0.0:
        down = 0.5 * lo
        while down > 0.0:
            if not f(down) > 0.0:
                return RootBracket(down, lo)
            down *= 0.5
        raise BracketError(f"no sign change down from {lo!r}")
    while not flo * f(hi) < 0.0:
        if not math.isfinite(2.0 * hi):
            raise BracketError(f"no sign change up to {hi!r}")
        hi *= 2.0
    return RootBracket(lo, hi)


def half_x0_bracket(f, x0):
    """The former search: ``doubling_bracket`` from [x0/2, x0]."""
    return doubling_bracket(f, 0.5 * x0, x0)


def outcome(solve, *args):
    """What solve(*args) returns, or the type of the error it raised."""
    try:
        return solve(*args)
    except VirialForgeError as exc:
        return type(exc)


def seeded_data(seed, per_family):
    """Solved step data of every family, drawn as the benchmark draws them, with deltas."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    data = []
    for _ in range(per_family):
        p = log_uniform(1e-2, 1e4)
        data.append(UniformParams(r=solve_uniform_R(p), p=p, a=rng.uniform(-0.999, 0.9)))
        r1 = log_uniform(0.05, 0.5)
        r2 = r1 * rng.uniform(2.0, 10.0)
        r3, p = r2 * rng.uniform(1.2, 3.0), log_uniform(0.3, 10.0)
        a = rng.uniform(-0.99, -0.3)
        try:
            alpha = solve_corehalo_alpha(r1, r2, r3, p)
            data.append(CoreHaloParams(r1=r1, r2=r2, r3=r3, p=p, alpha=alpha, a=a))
        except NoPositiveRootError:
            pass
        r1 = log_uniform(0.005, 0.05)
        r2 = r1 * rng.uniform(3.0, 15.0)
        r3, n = r2 * rng.uniform(1.05, 1.5), rng.uniform(2.0, 4.0)
        a = rng.uniform(-0.99, -0.5)
        try:
            p = solve_monotonic_P(r1, r2, r3, n)
            data.append(MonotonicParams(r1=r1, r2=r2, r3=r3, n=n, p=p, a=a))
        except NoRootError:
            pass
    specs = [MollifySpec(delta=default_delta(solvers.family_of(params).ansatz(params))
                         * 10.0 ** rng.uniform(-0.6, 0.6)) for params in data]
    return list(zip(data, specs))


def one_per_family():
    p_step = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
    return [
        (UniformParams(r=solve_uniform_R(1.0), p=1.0, a=-0.5), MollifySpec(delta=1e-3)),
        (reference_params(), MollifySpec(delta=1e-3)),
        (MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p_step, a=-0.95),
         MollifySpec(delta=2e-4)),
    ]


class TestRebalanceWork:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_bit_identical_to_full_rebuild(self, seed):
        # The Brent families; core-halo data take the quadratic's root (TestCoreHaloQuadratic).
        data = [(params, spec) for params, spec in seeded_data(seed, per_family=4)
                if not isinstance(params, CoreHaloParams)]
        assert {solvers.family_of(params).name for params, _ in data} == {"uniform", "monotonic"}
        for params, spec in data:
            family = solvers.family_of(params)
            new_params, moll = rebalance(params, step_of(params), spec)
            x, ref_moll, ref_energy = rebalance_reference(params, spec)
            assert getattr(new_params, family.free) == x
            assert total_energy(moll) == ref_energy
            assert moll == ref_moll
            assert evaluate(moll) == evaluate(ref_moll)

    def test_ramp_misfit_reports_the_first_point(self):
        # delta above the ball radius: no ramp fits at x0, the given datum and
        # the first point visited, and the error names its radius as a full
        # rebuild does.
        params, _ = one_per_family()[0]
        spec = MollifySpec(delta=2.0 * params.r)
        with pytest.raises(RampOverlapError) as ours:
            rebalance(params, step_of(params), spec)
        with pytest.raises(RampOverlapError) as reference:
            rebalance_reference(params, spec)
        assert str(ours.value) == str(reference.value)
        assert f"at breakpoint {params.r!r} " in str(ours.value)

    @pytest.mark.parametrize("params, spec", one_per_family()[::2], ids=["uniform", "monotonic"])
    def test_each_point_evaluated_once(self, monkeypatch, params, spec):
        step = step_of(params)
        visited, energies, cutoffs = set(), [], []

        def visiting(f):
            return lambda x: visited.add(x) or f(x)

        real_energy = functionals.total_energy
        monkeypatch.setattr(functionals, "total_energy",
                            lambda ansatz: energies.append(ansatz) or real_energy(ansatz))
        real_cutoff = AngularProfile.cutoff.__func__
        monkeypatch.setattr(AngularProfile, "cutoff", classmethod(
            lambda cls, a: cutoffs.append(a) or real_cutoff(cls, a)))
        real_expand = RootBracket.expand.__func__
        monkeypatch.setattr(RootBracket, "expand", classmethod(
            lambda cls, f, x0: real_expand(cls, visiting(f), x0)))
        monkeypatch.setattr(mollifier, "brentq",
                            lambda f, *args, **kwargs: brentq(visiting(f), *args, **kwargs))

        new_params, _ = rebalance(params, step, spec)
        assert getattr(new_params, solvers.family_of(params).free) in visited
        assert len(energies) == len(visited)
        assert cutoffs == []

    def test_agrees_with_the_half_x0_bracket(self):
        # The former search bracketed on [x0/2, x0].  Both find the same root
        # to 1e-12 x0 (their bits differ only where E is flat, and there both
        # energies are ~1e-15), or raise the same error.
        data = seeded_data(5, per_family=4) + seeded_data(17, per_family=4) + one_per_family()
        for params, spec in data:
            family = solvers.family_of(params)
            x0 = getattr(params, family.free)
            ours = outcome(rebalance, params, step_of(params), spec)
            former = outcome(rebalance_reference, params, spec, half_x0_bracket)
            if isinstance(ours, type) or isinstance(former, type):
                assert ours is former, params
                continue
            (new_params, moll), (x_old, moll_old, energy_old) = ours, former
            assert abs(getattr(new_params, family.free) - x_old) <= 1e-12 * x0, params
            assert abs(total_energy(moll)) <= 1e-10
            assert abs(energy_old) <= 1e-10
            assert check_criteria(moll).passed == check_criteria(moll_old).passed, params

    def test_energy_evaluations_per_rebalance(self, monkeypatch):
        # The root lies close to the step solve x0, so probing outward from x0
        # on the root's side brackets it tightly: ~5.2 evaluations with
        # Brent's for uniform and monotonic data, against ~8.2 from a bracket
        # on [x0/2, x0]; core-halo data take the quadratic's root and none.
        energies, counts = [], []
        real_energy = functionals.total_energy
        monkeypatch.setattr(functionals, "total_energy",
                            lambda ansatz: energies.append(ansatz) or real_energy(ansatz))
        data = seeded_data(5, per_family=4) + seeded_data(17, per_family=4) + one_per_family()
        for params, spec in data:
            before = len(energies)
            rebalance(params, step_of(params), spec)
            counts.append(len(energies) - before)
        assert sum(counts) / len(counts) <= 5.4, counts
        assert max(counts) <= 7, counts


def corehalo_data():
    """The solvable core-halo data of ``seeded_data`` (seeds 5 and 17) and the README datum."""
    seeded = seeded_data(5, per_family=8) + seeded_data(17, per_family=8)
    return [(params, spec) for params, spec in seeded + one_per_family()
            if isinstance(params, CoreHaloParams)]


class TestCoreHaloQuadratic:
    """Disjoint shells: the mollified energy is the step solve's quadratic in the halo level."""

    def test_root_matches_the_brent_root(self):
        data = corehalo_data()
        assert len(data) >= 10
        for params, spec in data:
            new_params, moll = rebalance(params, step_of(params), spec)
            x, ref_moll, ref_energy = rebalance_reference(params, spec)
            assert abs(new_params.alpha - x) <= 1e-13 * x, params
            ke = evaluate(moll).kinetic
            assert abs(total_energy(moll)) <= abs(ref_energy) + 4.0 * EPS * ke, params
            assert check_criteria(moll).passed == check_criteria(ref_moll).passed, params

    def test_takes_no_bracket_no_brent_and_no_energy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(functionals, "total_energy", lambda ansatz: calls.append("energy"))
        monkeypatch.setattr(RootBracket, "expand", classmethod(
            lambda cls, f, x0: calls.append("expand")))
        monkeypatch.setattr(mollifier, "brentq", lambda *args, **kwargs: calls.append("brentq"))
        for params, spec in corehalo_data():
            new_params, moll = rebalance(params, step_of(params), spec)
            assert new_params.alpha > 0.0
            assert moll.spatial.has_ramp
        assert calls == []

    def test_the_smaller_positive_root_is_taken(self, monkeypatch):
        # No family datum has two positive roots, which need C/A > 0 > B/A: the
        # nested halo term is at most m1 m2 / 2, so A < 0 forces B < 0, and with
        # A > 0, B < 0 needs KE < 1/(2 r2), below the 3/(5 r1) that C > 0 needs.
        # So the solve is handed a second, larger root, first or last.
        params, spec = one_per_family()[1]
        expected, _ = rebalance(params, step_of(params), spec)
        real, larger = solvers.solve_quadratic, 2.0 * expected.alpha
        for order in (lambda roots: (*roots, larger), lambda roots: (larger, *roots)):
            monkeypatch.setattr(solvers, "solve_quadratic",
                                lambda *coefs, order=order: order(real(*coefs)))
            assert rebalance(params, step_of(params), spec)[0] == expected

    def test_no_positive_root_names_the_datum(self, monkeypatch, capsys):
        # The step solve keeps its root; the mollified quadratic is handed none.
        params, spec = one_per_family()[1]
        real = solvers.solve_quadratic
        step = solvers.corehalo_energy_quadratic(
            functionals.kinetic_energy_ball(1.0), [Piece.constant(1.0, 0.0, 0.2)],
            [Piece.constant(1.0, 1.0, 2.0)])
        monkeypatch.setattr(solvers, "solve_quadratic",
                            lambda *coefs: real(*coefs) if coefs == step else (-2.0, -1.0))
        with pytest.raises(NoPositiveRootError) as err:
            rebalance(params, step_of(params), spec)
        assert str(err.value) == (
            "zero-energy condition has no positive halo level (roots (-2.0, -1.0)) for "
            "r1=0.2, r2=1.0, r3=2.0, p=1.0, delta=0.001")
        argv = ["mollify", "--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2",
                "--p", "1", "--a", "-0.85", "--delta", "0.001"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"
