"""The adaptive integrator against known antiderivatives."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_rel, enclosed_mass
from virial_forge import quadrature
from virial_forge.errors import QuadratureBudgetError
from virial_forge.functionals import evaluate, momentum_energy_moment
from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    SeparableAnsatz,
    core_halo_eta,
    momentum_ball,
    uniform_eta,
)
from virial_forge.quadrature import (
    QuadResult,
    integrate,
    nested_mass_quad,
    profile_moment_quad,
)

ALPHA_REF = 7.816e-4


def test_polynomial_exact():
    res = integrate(lambda r: r * r, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert res.abs_error_estimate >= 0.0


def test_relativistic_weight_antiderivative():
    # (1/8)(P(1 + 2P^2) sqrt(1+P^2) - ln(P + sqrt(1+P^2))) at P = 1
    res = integrate(lambda p: math.sqrt(1.0 + p * p) * p * p, 0.0, 1.0)
    expected = (3.0 * math.sqrt(2.0) - math.log(1.0 + math.sqrt(2.0))) / 8.0
    assert res.value == pytest.approx(expected, rel=1e-13)
    assert res.value == pytest.approx(momentum_energy_moment(1.0), rel=1e-13)


def test_profile_with_breakpoints_matches_moment():
    eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
    res = integrate(lambda r: eta(r) * r * r, 0.0, 2.0, breakpoints=eta.breakpoints)
    assert res.value == pytest.approx(eta.moment(2), rel=1e-12)


def test_redundant_breakpoints_harmless():
    eta = core_halo_eta(0.2, 1.0, 2.0, ALPHA_REF)
    f = lambda r: eta(r) * r * r  # noqa: E731
    base = integrate(f, 0.0, 2.0, breakpoints=eta.breakpoints).value
    extra = integrate(
        f, 0.0, 2.0, breakpoints=eta.breakpoints + (0.31, 0.77, 1.5, 1.9)
    ).value
    assert abs(base - extra) <= 1e-13


def test_tightening_tolerances_never_hurts():
    f = lambda r: math.sin(3.0 * r) ** 2 * math.exp(-r)  # noqa: E731
    exact = integrate(f, 0.0, 3.0, abs_tol=1e-14, rel_tol=1e-13).value
    errors = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        approx = integrate(f, 0.0, 3.0, abs_tol=tol, rel_tol=tol).value
        errors.append(abs(approx - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-14


def test_budget_exhaustion_raises():
    spike = lambda x: 1.0 / (1e-14 + (x - 0.3141) ** 2)  # noqa: E731
    with pytest.raises(QuadratureBudgetError):
        integrate(spike, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-12, budget=2)


def test_failure_short_of_the_limit_is_not_retried(monkeypatch):
    from virial_forge import quadrature

    limits = []

    def roundoff(f, lo, hi, **kwargs):
        limits.append(kwargs["limit"])
        return 1.0, 1e-9, 7, 2  # QUADPACK's ier 2: roundoff

    monkeypatch.setattr(quadrature, "_quad", roundoff)
    with pytest.raises(QuadratureBudgetError, match="roundoff"):
        integrate(lambda x: x, 0.0, 1.0)
    assert limits == [200]


def test_validation():
    with pytest.raises(ValueError):
        integrate(lambda r: r, 0.0, 1.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        integrate(lambda r: r, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(lambda r: r, 1.0, 0.0)


def test_scipy_without_quadpack_is_an_import_error(monkeypatch, tmp_path):
    import scipy

    monkeypatch.delitem(sys.modules, quadrature._QUADPACK, raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"no scipy\.integrate\._quadpack extension in "):
        integrate(lambda r: r, 0.0, 1.0)


def test_empty_interval():
    assert integrate(lambda r: r, 1.0, 1.0) == QuadResult(0.0, 0.0, 0)


class TestNestedMass:
    def test_uniform_ball(self):
        # Inner mass q^3/3 against weight q gives R^5/15.
        r = 1.3
        got = nested_mass_quad(uniform_eta(r)).value
        assert got == pytest.approx(r**5 / 15.0, rel=1e-12)

    def test_zero_profile(self):
        zero = PiecewiseProfile((Piece.constant(0.0, 0.0, math.inf),))
        assert nested_mass_quad(zero).value == 0.0

    def test_corehalo_consistent_with_zero_energy(self):
        # With the solved halo level, KE * m2^2 equals the nested integral.
        from virial_forge.functionals import kinetic_energy_ball
        from virial_forge.solvers import solve_corehalo_alpha

        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        eta = core_halo_eta(0.2, 1.0, 2.0, alpha)
        lhs = kinetic_energy_ball(1.0) * eta.moment(2) ** 2
        assert nested_mass_quad(eta).value == pytest.approx(lhs, rel=1e-10)

    def test_error_estimate_present(self):
        res = nested_mass_quad(uniform_eta(1.0))
        assert res.abs_error_estimate >= 0.0
        assert res.subdivisions >= 1


def test_kinetic_quad_is_the_ball_moment():
    phi = momentum_ball(1.0)
    res = quadrature._kinetic_quad(phi)
    assert res.value == pytest.approx(momentum_energy_moment(1.0), rel=1e-12)


# The oracle's integrals with integrands that call the profile itself,
# range check included, each expression in the same operation order.
def profile_moment_by_call(profile, k, beta=1.0):
    upper = profile.support_radius
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)
    f = lambda r: profile(r) ** beta * r**k  # noqa: E731
    return integrate(f, 0.0, upper, breakpoints=profile.breakpoints)


def kinetic_by_call(phi):
    upper = phi.support_radius
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)
    f = lambda p: math.sqrt(1.0 + p * p) * phi(p) * p**2  # noqa: E731
    return integrate(f, 0.0, upper, breakpoints=phi.breakpoints)


def angular_moment_by_call(angular, k=0, beta=1.0):
    f = lambda x: angular(x) ** beta * x**k  # noqa: E731
    return integrate(f, -1.0, 1.0, breakpoints=angular.breakpoints)


def nested_mass_by_call(eta):
    upper = eta.support_radius
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)
    mass = enclosed_mass(eta)
    return integrate(lambda q: eta(q) * q * mass(q), 0.0, upper, breakpoints=eta.breakpoints)


def template_ansatz(rng, template):
    """A seeded ansatz of one of three shapes: a power-law atmosphere (0), ramps in
    the spatial and momentum factors (1), or a gap, a power-law tail and an
    angular ramp (2)."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    x = [float(v) for v in np.sort(rng.uniform(0.05, 3.0, size=4)) + [0.0, 0.05, 0.1, 0.15]]
    v0, v2 = u(0.2, 1.5), u(0.2, 1.5)
    if template == 0:
        spatial = [Piece.constant(v0, 0.0, x[0]), Piece.power(u(0.2, 1.5), u(0.5, 4.0), x[0], x[1]),
                   Piece.constant(v2, x[1], x[2])]
    elif template == 1:
        spatial = [Piece.constant(v0, 0.0, x[0]), Piece.ramp(v0, v2, x[0], x[1]),
                   Piece.constant(v2, x[1], x[2]), Piece.ramp(v2, 0.0, x[2], x[3])]
    else:
        spatial = [Piece.constant(v0, 0.0, x[0]), Piece.constant(0.0, x[0], x[1]),
                   Piece.power(v2, u(0.5, 4.0), x[1], x[3])]
    p = [float(v) for v in np.cumsum(rng.uniform(0.2, 1.5, size=3))]
    h = [u(0.3, 1.5) for _ in range(3)]
    momentum = [Piece.constant(val, lo, hi) for lo, hi, val in zip((0.0, p[0], p[1]), p, h)]
    if template == 1:
        momentum[1] = Piece.ramp(h[0], h[2], p[0], p[1])
    cut = u(-0.8, 0.8)
    inner, outer = u(0.2, 1.5), u(0.0, 1.0)
    angular = [Piece.constant(inner, -1.0, cut), Piece.constant(outer, cut, 1.0)]
    if template == 2:
        mid = cut + 0.5 * (1.0 - cut)
        angular = [angular[0], Piece.ramp(inner, outer, cut, mid), Piece.constant(outer, mid, 1.0)]
    return SeparableAnsatz(
        PiecewiseProfile.from_segments(spatial),
        PiecewiseProfile.from_segments(momentum, domain_label="radial-momentum"),
        AngularProfile(tuple(angular)))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("template", [0, 1, 2])
def test_oracle_report_is_that_of_the_profile_calls(monkeypatch, seed, template):
    # The integrands call each profile's memoized evaluator; the report,
    # residuals included, must be bit-identical to one whose integrands call
    # the profile (range check and all).  The nested mass by call takes its
    # enclosed mass from the test judge, so the potential, and the total
    # energy and the potential residual with it, agree within that residual.
    rng = np.random.default_rng(seed)
    for _ in range(2):
        ansatz = template_ansatz(rng, template)
        fast = evaluate(ansatz, method="quadrature")
        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "profile_moment_quad", profile_moment_by_call)
            patched.setattr(quadrature, "_kinetic_quad", kinetic_by_call)
            patched.setattr(quadrature, "angular_moment_quad", angular_moment_by_call)
            patched.setattr(quadrature, "nested_mass_quad", nested_mass_by_call)
            by_call = evaluate(ansatz, method="quadrature")
        band = fast.residuals["potential"] + by_call.residuals["potential"]
        assert_rel(fast.potential, by_call.potential, band)
        assert abs(fast.total_energy - by_call.total_energy) <= band * abs(fast.potential)
        assert repr(without_potential(fast)) == repr(without_potential(by_call))
        assert fast.residuals and fast.method == "quadrature"


def without_potential(report):
    residuals = {key: value for key, value in report.residuals.items() if key != "potential"}
    return report._replace(potential=None, total_energy=None, residuals=residuals)


BINDING_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
PIECE_VALUES = st.just(0.0) | st.floats(1e-3, 10.0)


@st.composite
def radial_profiles(draw):
    """Constant, power-law and ramp pieces from 0, then the zero tail; never all zero."""
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
    if all(p.is_zero for p in segments):
        segments.append(Piece.constant(1.0, lo, lo + 1.0))
    return PiecewiseProfile.from_segments(segments)


@BINDING_PROPERTY
@given(profile=radial_profiles(), k=st.integers(0, 3), with_breakpoints=st.booleans(),
       tol=st.sampled_from((1e-6, 1e-10, 1e-13)), limit=st.sampled_from((10, 50, 200)))
def test_binding_is_scipy_quad_bit_for_bit(profile, k, with_breakpoints, tol, limit):
    # QAGP/QAGS through the binding against scipy.integrate.quad, including
    # the runs that stop at the subdivision limit.
    from scipy.integrate import quad

    g, upper = profile._value, profile.support_radius
    f = lambda r: g(r) * r**k  # noqa: E731
    pts = sorted({b for b in profile.breakpoints if 0.0 < b < upper}) if with_breakpoints else []
    ours = quadrature._quad(f, 0.0, upper, points=pts, epsabs=tol, epsrel=tol, limit=limit)
    theirs = quad(f, 0.0, upper, points=pts or None, epsabs=tol, epsrel=tol, limit=limit,
                  full_output=1)
    value, err, last, ier = ours
    assert (value, err) == theirs[:2]
    assert last == theirs[2]["last"]
    assert (ier != 0) == (len(theirs) == 4)


@pytest.mark.parametrize("points", [(), (0.5,)])
def test_subdivision_limit_names_the_quadpack_reason(points):
    spike = lambda x: 1.0 / (1e-14 + (x - 0.3141) ** 2)  # noqa: E731
    with pytest.raises(QuadratureBudgetError,
                       match="maximum number of subdivisions allowed has been achieved"):
        integrate(spike, 0.0, 1.0, breakpoints=points, abs_tol=1e-13, rel_tol=1e-12, budget=2)


@pytest.mark.parametrize("points", [(), (0.5,)])
def test_integrand_exception_propagates_unchanged(points):
    class Boom(Exception):
        pass

    boom = Boom("integrand failed")

    def f(x):
        if x > 0.7:
            raise boom
        return x

    with pytest.raises(Boom) as caught:
        integrate(f, 0.0, 1.0, breakpoints=points)
    assert caught.value is boom


def test_oracle_runs_no_scipy_quad_and_no_unique(monkeypatch):
    # One oracle evaluation on a breakpointed ansatz goes straight to QUADPACK,
    # and builds the nested-mass integrand of its spatial profile once.
    import scipy.integrate

    counts = {"quad": 0, "unique": 0}
    built = []
    real_quad, real_unique = scipy.integrate.quad, np.unique
    real_build = quadrature._nested_integrand

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.integrate, "quad", counting("quad", real_quad))
    monkeypatch.setattr(np, "unique", counting("unique", real_unique))
    monkeypatch.setattr(quadrature, "_nested_integrand",
                        lambda profile: built.append(profile) or real_build(profile))
    ansatz = template_ansatz(np.random.default_rng(5), 1)
    assert ansatz.spatial.breakpoints
    report = evaluate(ansatz, method="quadrature")
    assert report.method == "quadrature"
    assert counts == {"quad": 0, "unique": 0}
    assert built == [ansatz.spatial]


@BINDING_PROPERTY
@given(eta=radial_profiles(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_nested_integrand_is_value_times_cumulative_mass(eta, fractions):
    # Interior points of every finite piece, every piece's lo (each breakpoint
    # included) and a point inside the zero tail.  The enclosed mass is the
    # test judge's own, so the two agree to rounding, and the integrals within
    # their error estimates.
    integrand, mass = quadrature._nested_integrand(eta), enclosed_mass(eta)
    points = [p.lo + f * p.width for p in eta.pieces if math.isfinite(p.hi) for f in fractions]
    points += [p.lo for p in eta.pieces] + [2.0 * eta.pieces[-1].lo + 1.0]
    for q in points:
        assert_rel(integrand(q), eta._value(q) * q * mass(q), 1e-13)
    fast, by_call = nested_mass_quad(eta), nested_mass_by_call(eta)
    assert abs(fast.value - by_call.value) <= fast.abs_error_estimate + by_call.abs_error_estimate
