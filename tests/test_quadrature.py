"""The adaptive integrator against known antiderivatives."""

import math

import pytest

from virial_forge.errors import QuadratureBudgetError
from virial_forge.functionals import momentum_energy_moment
from virial_forge.profiles import core_halo_eta, uniform_eta, PiecewiseProfile, Piece
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
        return 1.0, 1e-9, {"last": 7}, "roundoff error is detected"

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


def test_profile_moment_quad_weight():
    phi = uniform_eta(1.0)
    res = profile_moment_quad(phi, 2, weight=lambda p: math.sqrt(1.0 + p * p))
    assert res.value == pytest.approx(momentum_energy_moment(1.0), rel=1e-12)
