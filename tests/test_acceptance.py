"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline; without ``-s`` they still appear for any failing criterion.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_ansatz
from virial_forge import mollifier, scans, solvers
from virial_forge.cli import main as cli_main
from virial_forge.functionals import (
    CRITICAL_L32_NORM,
    check_criteria,
    evaluate,
    kinetic_energy_ball,
    potential_energy_profile,
    spatial_momentum_factor,
    virial,
)
from virial_forge.profiles import AngularProfile, uniform_eta
from virial_forge.solvers import (
    CoreHaloParams,
    MonotonicParams,
    UniformParams,
    core_halo_ansatz,
    monotonic_ansatz,
    solve_corehalo_alpha,
    solve_monotonic_P,
    solve_threshold_a,
    solve_uniform_R,
    uniform_ansatz,
)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def displayed_alpha():
    """The closed-form zero-energy halo level, evaluated directly."""
    s2 = math.sqrt(2.0)
    lg = math.log(1.0 + s2)
    num = 35.0 * lg + 30.0 - 105.0 * s2 + 2.0 * math.sqrt(
        6480.0 * s2 - 1655.0 - 2160.0 * lg
    )
    return num / (125.0 * (735.0 * s2 - 188.0 - 245.0 * lg))


def test_criterion_1_corehalo_alpha_reproduction():
    with criterion("criterion 1: core-halo halo-level reproduction"):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        assert alpha > 0.0
        assert alpha == pytest.approx(displayed_alpha(), rel=1e-10)
        assert alpha == pytest.approx(7.82e-4, abs=5e-6)


def test_criterion_2_corehalo_certification():
    with criterion("criterion 2: core-halo certification at a = -4/5"):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        ansatz = core_halo_ansatz(
            CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.8)
        )
        cert = check_criteria(ansatz, energy_tol=1e-9)
        assert cert.passed
        assert cert.energy_residual <= 1e-9
        assert cert.report.virial <= -0.5
        assert cert.report.virial == pytest.approx(-0.5007, abs=2e-4)
        assert cert.report.l32_norm > CRITICAL_L32_NORM
        a_star = solve_threshold_a(ansatz)
        assert -0.81 <= a_star <= -0.79


def test_criterion_3_uniform_ball_floor():
    with criterion("criterion 3: uniform-ball virial floor -9/20"):
        grid = scans.ScanGrid(
            P_values=tuple(np.geomspace(1e-2, 1e4, 200)),
            a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, 40)),
        )
        result = scans.uniform_ball_floor(grid)
        assert result.min_virial > -9.0 / 20.0
        corner = uniform_ansatz(
            UniformParams(r=solve_uniform_R(1e4), p=1e4, a=-1.0 + 1e-6)
        )
        v_corner = virial(corner)
        assert v_corner > -9.0 / 20.0
        assert abs(v_corner - (-9.0 / 20.0)) / (9.0 / 20.0) < 0.005


def test_criterion_4_monotonic_family():
    with criterion("criterion 4: monotonic family solve and certification"):
        p = solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0)
        assert p == pytest.approx(19.69, abs=0.05)
        ansatz = monotonic_ansatz(
            MonotonicParams(r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0, p=p, a=-0.95)
        )
        cert = check_criteria(ansatz, energy_tol=1e-9)
        assert cert.passed
        a_star = solve_threshold_a(ansatz)
        assert a_star == pytest.approx(-0.90, abs=0.02)


def test_criterion_5_asymptotic_exponents():
    with criterion("criterion 5: large-P scaling exponents -23/2 and +3"):
        p_values = tuple(np.geomspace(1e2, 1e4, 9))
        result = scans.asymptotic_scaling(p_values, a=-0.9)
        assert result.alpha_fit.slope == pytest.approx(-11.5, abs=0.1)
        assert result.virial_fit.slope == pytest.approx(3.0, abs=0.05)
        other = scans.asymptotic_scaling(p_values, a=-0.5)
        for row_a, row_b in zip(result.rows, other.rows):
            lhs = -row_a["V"] / (1.0 - row_a["a"])
            rhs = -row_b["V"] / (1.0 - row_b["a"])
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_criterion_6_oracle_equivalence():
    with criterion("criterion 6: closed-form vs quadrature on 20 random profiles"):
        rng = np.random.default_rng(60)
        for _ in range(20):
            ansatz = random_ansatz(rng)
            closed = evaluate(ansatz)
            oracle = evaluate(ansatz, method="quadrature")
            assert closed.mass == pytest.approx(1.0, abs=1e-12)
            assert oracle.mass == pytest.approx(1.0, rel=1e-10)  # checks C too
            assert closed.kinetic == pytest.approx(oracle.kinetic, rel=1e-10)
            assert closed.virial == pytest.approx(oracle.virial, rel=1e-10, abs=1e-14)
            assert closed.l32_norm == pytest.approx(oracle.l32_norm, rel=1e-10)
            assert closed.potential == pytest.approx(oracle.potential, rel=1e-8)


def test_criterion_7_closed_form_spot_values():
    with criterion("criterion 7: closed-form spot values"):
        expected_ke = (3.0 / 8.0) * (
            3.0 * math.sqrt(2.0) - math.log(1.0 + math.sqrt(2.0))
        )
        assert kinetic_energy_ball(1.0) == pytest.approx(expected_ke, rel=1e-12)
        assert potential_energy_profile(uniform_eta(1.0)) == pytest.approx(
            -3.0 / 5.0, rel=1e-12
        )
        for r, p, a in ((1.0, 1.0, -0.5), (0.3, 2.0, 0.2), (2.0, 0.4, -0.9)):
            ansatz = uniform_ansatz(UniformParams(r=r, p=p, a=a))
            assert virial(ansatz) == pytest.approx(
                9.0 * r * p * (a - 1.0) / 32.0, rel=1e-12
            )


def test_criterion_8_mollification():
    with criterion("criterion 8: mollification drift, seams, certification"):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        params = CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.85)
        step = core_halo_ansatz(params)
        feature = mollifier.default_delta(step, fraction=1.0)
        keys = ("mass", "kinetic", "potential", "virial", "l32_norm")
        ladder = []
        certified = None
        for frac in (1e-2, 1e-3, 1e-4):
            spec = mollifier.MollifySpec(delta=frac * feature)
            new_params, moll = mollifier.rebalance(params, step, spec)
            assert new_params.alpha > 0.0
            drift = mollifier.functional_drift(evaluate(step), evaluate(moll))
            ladder.append({k: drift[k]["drift"] for k in keys})
            for profile in (moll.spatial, moll.momentum):
                assert mollifier.seam_smoothness(profile) < 1e-4
            assert mollifier.seam_smoothness(moll.angular) < 1e-4
            if frac == 1e-3:
                certified = check_criteria(moll, energy_tol=1e-9)
        for coarse, fine in zip(ladder, ladder[1:]):
            for k in keys:
                assert fine[k] <= coarse[k] + 1e-13, (k, coarse[k], fine[k])
        assert certified is not None and certified.passed


def test_criterion_9_invariant_suite():
    with criterion("criterion 9: invariant suite"):
        rng = np.random.default_rng(90)
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        references = [
            uniform_ansatz(UniformParams(r=solve_uniform_R(1.0), p=1.0, a=-0.5)),
            core_halo_ansatz(
                CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.8)
            ),
            monotonic_ansatz(
                MonotonicParams(
                    r1=0.01, r2=1.0 / 11.0, r3=0.1, n=3.0,
                    p=solve_monotonic_P(0.01, 1.0 / 11.0, 0.1, 3.0), a=-0.95,
                )
            ),
        ]
        for ansatz in references + [random_ansatz(rng) for _ in range(10)]:
            report = evaluate(ansatz)
            assert report.mass == pytest.approx(1.0, abs=1e-12)
            assert report.kinetic >= 1.0
            assert report.potential <= 0.0
        # Symmetric momenta: the virial vanishes identically.
        from virial_forge.profiles import SeparableAnsatz, momentum_ball

        sym = SeparableAnsatz(
            uniform_eta(1.3), momentum_ball(0.8), AngularProfile.cutoff(1.0)
        )
        assert virial(sym) == 0.0
        # Spatial dilation: potential scales as 1/lam, the spatial virial
        # factor as lam, both to 1e-12 relative.
        lam = 3.7
        for ansatz in references:
            scaled = SeparableAnsatz(
                ansatz.spatial.dilate(lam), ansatz.momentum, ansatz.angular
            )
            assert evaluate(scaled).potential == pytest.approx(
                evaluate(ansatz).potential / lam, rel=1e-12
            )
            base = spatial_momentum_factor(ansatz.spatial, ansatz.momentum)
            assert spatial_momentum_factor(
                scaled.spatial, scaled.momentum
            ) == pytest.approx(lam * base, rel=1e-12)


def test_criterion_10_cli_determinism(capsys):
    with criterion("criterion 10: byte-identical CLI output"):
        certify_argv = [
            "certify", "--family", "core-halo", "--r1", "0.2", "--r2", "1",
            "--r3", "2", "--p", "1", "--a", "-0.8", "--format", "kv",
        ]
        runs = []
        for _ in range(2):
            code = cli_main(certify_argv)
            runs.append(capsys.readouterr().out)
            assert code == 0
        assert runs[0] == runs[1]

        scan_argv = ["scan", "--p-points", "40", "--a-points", "8", "--format", "csv"]
        runs = []
        for _ in range(2):
            code = cli_main(scan_argv)
            runs.append(capsys.readouterr().out)
            assert code == 0
        assert runs[0] == runs[1]
