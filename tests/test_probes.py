"""Semantic mutants of the exact route's ramp formulas, applied by monkeypatch.

Each mutant scales one closed-form weight by 1 + 1e-9 and must fail a named
mpmath test on mollified data, not only a byte pin.  The oracle's per-term
ramp formula (``Piece._ramp_terms``) is the other way round: perturbing it
must leave every exact-route value of a mollified datum bit-identical, so
the oracle shares no ramp formula with the route it judges.
"""

import pytest

import test_mollifier
from virial_forge import functionals, profiles
from virial_forge.mollifier import MollifySpec, rebalance
from virial_forge.profiles import Piece
from virial_forge.solvers import CoreHaloParams, core_halo_ansatz, solve_corehalo_alpha

SCALE = 1.0 + 1e-9


def scale_first(row):
    return (row[0] * SCALE, *row[1:])


def alpha_mutant(monkeypatch):
    """alpha_20 = 4/15, the weight of left lo^2 in a ramp's second moment."""
    order2 = profiles._BERNSTEIN[2]
    monkeypatch.setitem(profiles._BERNSTEIN, 2, (scale_first(order2[0]), *order2[1:]))


def self_term_mutant(monkeypatch):
    """29/550, the weight of left^2 lo^3 in a ramp's nested self term."""
    weights = profiles._RAMP_SELF
    monkeypatch.setattr(profiles, "_RAMP_SELF", (scale_first(weights[0]), *weights[1:]))


KILLER = "test_mollifier.py::TestMollifiedAgainstMpmath::test_radial_moments_and_nested"


def killed_cases():
    """The mollified data on which KILLER fails."""
    killed = []
    for case in test_mollifier.MOLLIFIED_RADIAL:
        try:
            test_mollifier.TestMollifiedAgainstMpmath().test_radial_moments_and_nested(case)
        except AssertionError:
            killed.append(case)
    return killed


@pytest.mark.parametrize("mutant", [alpha_mutant, self_term_mutant])
def test_mutant_is_killed_by_a_semantic_test(monkeypatch, mutant):
    assert killed_cases() == []
    mutant(monkeypatch)
    assert killed_cases(), f"{mutant.__doc__} survives {KILLER}"


def mollified_datum():
    """The rebalanced mollified core-halo datum and its exact report, built afresh."""
    step = CoreHaloParams(0.2, 1.0, 2.0, 1.0, solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0), -0.8)
    params, ansatz = rebalance(step, core_halo_ansatz(step), MollifySpec(0.05))
    return params, functionals.evaluate(ansatz), ansatz


def test_oracle_ramp_formula_leaves_the_exact_route_bit_identical(monkeypatch):
    params, report, ansatz = mollified_datum()
    oracle = functionals.evaluate(ansatz, method="quadrature")
    real = Piece._ramp_terms

    def perturbed(self, k):
        return [(c * SCALE, deg) for c, deg in real(self, k)]

    monkeypatch.setattr(Piece, "_ramp_terms", perturbed)
    mutated_params, mutated_report, mutated_ansatz = mollified_datum()
    assert (mutated_params, mutated_report) == (params, report)
    # The mutant is live: the oracle's nested potential reads it.
    assert functionals.evaluate(mutated_ansatz, method="quadrature").potential != oracle.potential
