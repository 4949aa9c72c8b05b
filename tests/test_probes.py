"""Semantic mutants of the exact route's piece formulas, applied by monkeypatch.

Each mutant changes one formula where ``profiles`` keeps it and must fail a
named mpmath test, not only a byte pin: the ramp weights on mollified data,
and on step data the plateau and power-law self terms and the kinetic weight.
The oracle's per-term ramp formula (``Piece._ramp_terms``) is the other way
round: perturbing it must leave every exact-route value of a mollified datum
bit-identical, so the oracle shares no ramp formula with the route it judges.
"""

import warnings

import pytest
from hypothesis.errors import HypothesisDeprecationWarning

import test_functionals
import test_mollifier
import test_solvers
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


def plateau_self_nested_mutant(monkeypatch):
    """``plateau_self_nested`` scaled by 1 + 1e-9, in the core-halo solve and the evaluator alike."""
    real = profiles.plateau_self_nested
    monkeypatch.setattr(profiles, "plateau_self_nested", lambda lo, hi: real(lo, hi) * SCALE)


def power_panel_mutant(monkeypatch):
    """The power self term's first panel 32/rate wide, not 8/rate.

    Its only ``panel_edges`` call has unit 8.  Narrower panels (8 -> 2) only
    add accuracy, so no semantic test could tell them from the rule.
    """
    real = profiles.panel_edges
    monkeypatch.setattr(profiles, "panel_edges",
                        lambda lo, hi, unit=1.0: real(lo, hi, 32.0 if unit == 8.0 else unit))


def kinetic_edge_mutant(monkeypatch):
    """The kinetic weight's last panel edge 1e-9 of the piece short of hi.

    Unit 1 is the kinetic weight's panels on a plateau or a ramp alone.
    """
    real = profiles.panel_edges

    def edges(lo, hi, unit=1.0):
        found = real(lo, hi, unit)
        if unit == 1.0:
            found[-1] = hi - 1e-9 * (hi - lo)
        return found

    monkeypatch.setattr(profiles, "panel_edges", edges)


def mollified_radial():
    """test_mollifier.py::TestMollifiedAgainstMpmath::test_radial_moments_and_nested, every case."""
    for case in test_mollifier.MOLLIFIED_RADIAL:
        test_mollifier.TestMollifiedAgainstMpmath().test_radial_moments_and_nested(case)


def thin_plateau_shell():
    """test_functionals.py::TestPotentialEnergy::test_thin_plateau_shell_nested_keeps_its_digits."""
    for thickness in (1e-4, 1e-8, 1e-10):
        test_functionals.TestPotentialEnergy().test_thin_plateau_shell_nested_keeps_its_digits(
            thickness)


def inner(test_class, name, cases):
    """Run the hypothesis test ``name`` of ``test_class`` on the given keyword ``cases``.

    Outside a property-based run an ``assume`` warns; each case satisfies it.
    """
    test = getattr(test_class, name).hypothesis.inner_test
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Using `assume` outside", HypothesisDeprecationWarning)
        for case in cases:
            test(test_class(), **case)


def thin_halo_level():
    """test_solvers.py::TestCoreHalo::test_thin_halo_level_is_zero_energy."""
    inner(test_solvers.TestCoreHalo, "test_thin_halo_level_is_zero_energy",
          [{"r1": 0.01, "r2": 1.5, "p": 1.0, "log_thickness": t} for t in (-1.0, -5.0)])


def steep_power_self_term():
    """test_functionals.py::TestPowerSelfTerm::test_steep_exponents_keep_their_digits."""
    inner(test_functionals.TestPowerSelfTerm, "test_steep_exponents_keep_their_digits",
          [{"n": 20.0, "lo": 0.01, "x": 1e4}, {"n": -5.0, "lo": 1.0, "x": 1e4}])


def plateau_kinetic_weight():
    """test_functionals.py::TestKineticWeight::test_plateau_away_from_zero."""
    inner(test_functionals.TestKineticWeight, "test_plateau_away_from_zero",
          [{"lo": lo, "width": width} for lo in (1e-3, 1.0, 1e4) for width in (1e-9, 1.0)])


def fails(killer):
    try:
        killer()
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("mutant, killer", [
    (alpha_mutant, mollified_radial),
    (self_term_mutant, mollified_radial),
    (plateau_self_nested_mutant, thin_plateau_shell),
    (plateau_self_nested_mutant, thin_halo_level),
    (power_panel_mutant, steep_power_self_term),
    (kinetic_edge_mutant, plateau_kinetic_weight),
], ids=["alpha_mutant", "self_term_mutant", "plateau_self_nested_mutant-evaluator",
        "plateau_self_nested_mutant-solver", "power_panel_mutant", "kinetic_edge_mutant"])
def test_mutant_is_killed_by_a_semantic_test(monkeypatch, mutant, killer):
    assert not fails(killer)
    mutant(monkeypatch)
    assert fails(killer), f"{mutant.__doc__} survives {killer.__doc__}"


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
