"""CLI contract: exit codes, determinism, config echo, custom profiles."""

import argparse
import contextlib
import io
import json
import math
import runpy
import sys
import types
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mp_total_energy
from virial_forge import cli, functionals, mollifier, scans, solvers
from virial_forge.cli import main
from virial_forge.errors import ConfigError, ProfileError, VirialForgeError
from virial_forge.mollifier import mollify_profile
from virial_forge.profiles import core_halo_eta, momentum_ball, monotonic_eta, uniform_eta
from virial_forge.solvers import solve_corehalo_alpha

COREHALO = ["--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2",
            "--p", "1", "--a", "-0.8"]
MONOTONIC = ["--family", "monotonic", "--r1", "0.01", "--r2", "0.0909090909090909",
             "--r3", "0.1", "--n", "3", "--a", "-0.95"]

# Well-formed sections of a --profiles document, as JSON text.
GOOD_SPATIAL = '"spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]}'
GOOD_MOMENTUM = '"momentum": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]}'

# A momentum factor that is one ramp from 1e10 down to the least subnormal.
RAMP_TO_SUBNORMAL = ('{"spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]}, '
                     '"momentum": {"pieces": [{"kind": "ramp", "lo": 0, "hi": 1, "left": 1e10, '
                     '"right": 5e-324}]}, "angular": {"cutoff": 0}}')


# Flags whose float arithmetic overflows: a moment sum that a product takes to
# inf, a power law's nested self term (lo**(5 - 2n)), and the core-halo
# quadratic's halo self term (lo**3) and squared halo mass.
OVERFLOW_ARGVS = [
    ["report", "--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "1e103",
     "--p", "1", "--alpha", "1", "--a", "-0.5"],
    ["report", "--family", "monotonic", "--r1", "2.64083634246679e-51",
     "--r2", "6.917494651316799e-51", "--r3", "6.917494651344859e-51",
     "--n", "5.646928096593282", "--a", "0.5179900537566141"],
    ["certify", "--family", "core-halo", "--r1", "1.1468373963150448e+299",
     "--r2", "8.164608079842758e+299", "--r3", "8.185657354085542e+299",
     "--p", "0.3517185077609665", "--a", "-0.8875788944287191"],
    ["certify", "--family", "core-halo", "--r1", "1.4808740894131274e+52",
     "--r2", "2.9242691935685735e+53", "--r3", "2.9352014375671993e+53",
     "--p", "2.0", "--a", "-0.19850770251006156"],
]

# A momentum plateau to 6.9e76 and two ramps to 9.7e76: each kinetic weight is
# finite, their sum is not (argv 3713 of the differential corpus at seed 20261020).
KINETIC_OVERFLOW_DOCUMENT = {
    "spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]},
    "momentum": {"pieces": [
        {"kind": "constant", "lo": 0, "hi": 6.911538513498401e+76, "value": 10.236774355252221},
        {"kind": "ramp", "lo": 6.911538513498401e+76, "hi": 7.622346182668107e+76,
         "left": 131.23502613987145, "right": 0.0},
        {"kind": "ramp", "lo": 7.622346182668107e+76, "hi": 9.7e+76,
         "left": 3703.1910017176615, "right": 0.0}]},
    "angular": {"cutoff": 0},
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_parse(text):
    out = {}
    for line in text.splitlines():
        if line and "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestCertify:
    def test_corehalo_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        assert code == 0
        doc = kv_parse(out)
        assert doc["verdict"] == "pass"
        assert float(doc["virial"]) == pytest.approx(-0.5007, abs=2e-4)
        assert float(doc["alpha"]) == pytest.approx(
            solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0), rel=1e-15
        )
        assert -0.81 <= float(doc["a_star"]) <= -0.79

    @pytest.mark.parametrize("r3", ["1.00001", "1.000001", "1.000000001", "1.0000000001"])
    def test_thin_halo_passes(self, capsys, r3):
        # Halos 1e-5 to 1e-10 thick.  The halo's O(w^2) self term once
        # cancelled away: first the energy residual read 2e-8 and 9e-6; then
        # the solver and the exact evaluator shared the cancellation, and data
        # whose true energy was -5e-9 and -2.5e-7 passed with 4e-16.
        code, out, err = run_cli(capsys, ["certify", "--family", "core-halo", "--r1", "0.01",
                                          "--r2", "1", "--r3", r3, "--p", "5", "--a", "-0.9",
                                          "--format", "kv"])
        doc = kv_parse(out)
        with mpmath.workdps(40):
            energy = mp_total_energy(
                core_halo_eta(0.01, 1.0, float(r3), float(doc["alpha"])), momentum_ball(5.0))
        assert code == 0, err
        assert doc["verdict"] == "pass"
        assert abs(energy) <= float(doc["energy_tol"])

    @pytest.mark.parametrize("n", ["3.000000000001", "2.999999999999"])
    def test_near_cubic_atmosphere_passes_with_its_true_energy(self, capsys, n):
        # The atmosphere's self term divides by 3 - n.  It once cancelled, and
        # the solver and the evaluator shared the error: the datum passed with
        # energy residual 2.3e-14 while its true energy was 6.7e-4.
        code, out, err = run_cli(capsys, ["certify", "--family", "monotonic", "--r1", "0.01",
                                          "--r2", "0.0909090909", "--r3", "0.1", "--n", n,
                                          "--a", "-0.95", "--format", "kv"])
        doc = kv_parse(out)
        with mpmath.workdps(40):
            energy = mp_total_energy(monotonic_eta(0.01, 0.0909090909, 0.1, float(n)),
                                     momentum_ball(float(doc["P"])))
        assert code == 0, err
        assert doc["verdict"] == "pass"
        assert abs(energy) <= float(doc["energy_tol"])

    def test_uniform_fails_on_virial(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", "--family", "uniform", "--p", "1", "--a", "-0.99",
                     "--format", "kv"]
        )
        assert code == 1
        doc = kv_parse(out)
        assert doc["verdict"] == "fail"
        assert float(doc["virial_margin"]) < 0.0

    def test_monotonic_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", *MONOTONIC, "--format", "kv"])
        assert code == 0
        doc = kv_parse(out)
        assert doc["verdict"] == "pass"
        assert float(doc["P"]) == pytest.approx(19.69, abs=0.05)

    def test_fixed_keys_present(self, capsys):
        _, out, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        doc = kv_parse(out)
        for key in ("family", "alpha", "energy_residual", "virial", "virial_margin",
                    "l32_norm", "norm_margin", "verdict"):
            assert key in doc

    def test_config_echo(self, capsys):
        # The flags certify was given or defaulted, in parser order; the
        # unset --n, --alpha and --profiles are left out.
        _, out, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        doc = kv_parse(out)
        assert doc["config.family"] == "core-halo"
        assert doc["config.command"] == "certify"
        assert float(doc["config.tol_energy"]) == 1e-9
        assert [key for key in doc if key.startswith("config.")] == [
            f"config.{name}" for name in ("command", "family", "r1", "r2", "r3", "p", "a",
                                          "format", "out", "tol_energy")]

    def test_alpha_override(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", *COREHALO, "--alpha", "0.1", "--format", "kv"]
        )
        doc = kv_parse(out)
        assert code == 1  # wrong halo level breaks zero energy
        assert float(doc["energy_residual"]) > 1e-9


# A valid datum of each family, and a value for every datum flag.
DATUM_ARGV = {
    "uniform": ["--p", "1", "--a", "-0.8"],
    "core-halo": COREHALO[2:],
    "monotonic": MONOTONIC[2:],
    "custom": ["--profiles", "profiles.json"],
}
FLAG_VALUE = {"r1": "0.05", "r2": "1.5", "r3": "2.5", "p": "2", "n": "4", "a": "-0.6",
              "alpha": "0.1", "profiles": "profiles.json"}
# certify and report read a family's free parameter as an override; mollify
# re-solves it, and has no custom family.
OVERRIDE = {"core-halo": "alpha", "monotonic": "p"}
UNREAD = [
    (command, family, flag)
    for command in ("certify", "report", "mollify")
    for family, argv in DATUM_ARGV.items() if not (command == "mollify" and family == "custom")
    for flag in FLAG_VALUE
    if f"--{flag}" not in argv and not (command != "mollify" and OVERRIDE.get(family) == flag)
]


class TestExitCodes:
    def test_missing_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["certify", "--family", "uniform", "--a", "-0.5"])
        assert code == 3
        assert "--p" in err

    def test_bad_ordering_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["certify", "--family", "core-halo", "--r1", "2", "--r2", "1",
                     "--r3", "3", "--p", "1", "--a", "-0.8"]
        )
        assert code == 3
        assert "r1" in err

    def test_unknown_flag_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, ["certify", "--nonsense", "1"])
        assert code == 3

    @pytest.mark.parametrize("command", ["scan", "asymptotics"])
    def test_tol_energy_is_unknown_to_the_grid_commands(self, capsys, command):
        # scan and asymptotics certify nothing, so they take no energy tolerance.
        code, _, err = run_cli(capsys, [command, "--tol-energy", "1e-9"])
        assert code == 3
        assert "unrecognized arguments: --tol-energy 1e-9" in err

    @pytest.mark.parametrize("command, family, flag", UNREAD)
    def test_unread_datum_flag_is_config_error(self, capsys, command, family, flag):
        argv = [command, "--family", family, *DATUM_ARGV[family], f"--{flag}", FLAG_VALUE[flag]]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1
        assert f"--{flag}" in err

    def test_report_takes_no_energy_tolerance(self, capsys):
        # report gates nothing, so it reads no --tol-energy.
        code, out, err = run_cli(capsys, ["report", *COREHALO, "--tol-energy", "1e-3"])
        assert code == 3
        assert out == ""
        assert err == ("error: invalid configuration: "
                       "unrecognized arguments: --tol-energy 1e-3\n")

    @pytest.mark.parametrize("argv", [
        [*COREHALO[:-2], "--a", "-0.9", "--delta", "0.5"],
        [*COREHALO[:6], "--r3", "1.05", "--p", "1", "--a", "-0.85", "--delta", "0.04"],
    ], ids=["delta-0.5", "r3-1.05"])
    def test_colliding_ramps_exit_3(self, capsys, argv):
        # The user's --delta makes the ramps collide: invalid parameters.
        code, out, err = run_cli(capsys, ["mollify", *argv])
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid parameters: ramp ") and err.count("\n") == 1

    def test_csv_not_valid_for_certify(self, capsys):
        code, _, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "csv"])
        assert code == 3

    def test_solver_failure_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["certify", "--family", "core-halo", "--r1", "2", "--r2", "2",
                     "--r3", "2.5", "--p", "1", "--a", "-0.8"]
        )
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("argv, message", [
        (["mollify", "--family", "monotonic", "--r1", "0.00018828575195959296",
          "--r2", "0.0003446754996415485", "--r3", "0.00034467549964156577", "--n", "1e+30",
          "--a", "0.5587531742610901", "--delta", "0.0"],
         "error: radial-position moment of order 2 overflows the float range\n"),
        (["certify", "--family", "monotonic", "--r1=1e-320", "--r2=0.0909090909", "--r3=0.1",
          "--n=1e-320", "--a=0"],
         "error: potential energy nan cannot balance the rest-mass floor "
         "(needs potential < -1)\n"),
        (OVERFLOW_ARGVS[0],
         "error: radial-position moment of order 2 overflows the float range\n"),
        (OVERFLOW_ARGVS[1],
         "error: radial-position nested potential integral overflows the float range\n"),
        (OVERFLOW_ARGVS[2],
         "error: core-halo energy quadratic overflows the float range for "
         "r1=1.1468373963150448e+299, r2=8.164608079842758e+299, r3=8.185657354085542e+299, "
         "p=0.3517185077609665\n"),
        (OVERFLOW_ARGVS[3],
         "error: core-halo energy quadratic overflows the float range for "
         "r1=1.4808740894131274e+52, r2=2.9242691935685735e+53, r3=2.9352014375671993e+53, "
         "p=2.0\n"),
    ], ids=["moment-overflow", "nan-potential", "moment-inf", "power-self-nested",
            "plateau-self-nested", "halo-mass-squared"])
    def test_numerical_failure_names_its_quantity(self, capsys, argv, message):
        # A moment sum that overflows names its factor and moment, not the
        # bare (34, 'Numerical result out of range'); a NaN potential is
        # refused before any solve, not reported as an overflow at P ~ 1e77.
        assert run_cli(capsys, argv) == (2, "", message)

    @pytest.mark.parametrize("argv, code, key, above", [
        (["certify", "--family", "monotonic", "--r1", "1.9556981730206298e-07",
          "--r2", "1.7777296392757524e-06", "--r3", "1.9556981730206297e-06", "--n", "3",
          "--a", "-0.95"], 0, "energy_residual", 1e-10),
        (["certify", "--family", "monotonic", "--r1", "1e-7", "--r2", "9.09e-7", "--r3", "1e-6",
          "--n", "3", "--a", "-0.95"], 0, "P", 655360.0),
        (["mollify", *COREHALO[:-2], "--a", "-0.85", "--tol-energy", "1e-300"], 1,
         "energy_residual", 1e-300),
    ], ids=["residual-above-1e-10", "root-above-655360", "tol-energy-1e-300"])
    def test_the_certificate_alone_judges_the_energy(self, capsys, argv, code, key, above):
        # The solve returns its root, here past a bound a solve once judged
        # (exit 2); the verdict alone says whether the energy is in tolerance.
        got, out, err = run_cli(capsys, [*argv, "--format", "kv"])
        doc = kv_parse(out)
        assert (got, err, doc["verdict"]) == (code, "", "pass" if code == 0 else "fail")
        assert float(doc[key]) > above
        assert (abs(float(doc["energy_residual"])) <= float(doc["energy_tol"])) == (code == 0)

    def test_monotonic_root_below_the_bracket_start_fails_on_virial(self, capsys):
        # The potential is -1.00000001, so the cutoff root lies near 1.8e-4,
        # below 1e-3, inside the closed-form bracket [sqrt(K^2 - 1), 3K/2].
        code, out, err = run_cli(capsys, [
            "certify", "--family", "monotonic", "--r1", "0.1480619672900462",
            "--r2", "1.3460178843203636", "--r3", "1.480619672900462", "--n", "3",
            "--a", "-0.95", "--format", "kv"])
        doc = kv_parse(out)
        assert (code, err, doc["verdict"]) == (1, "", "fail")
        assert 1e-4 < float(doc["P"]) < 1e-3
        assert float(doc["energy_residual"]) <= float(doc["energy_tol"])
        assert float(doc["virial_margin"]) < 0.0

    @pytest.mark.parametrize("command", ["scan", "asymptotics"])
    def test_p_min_above_p_max_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, [command, "--p-min", "200", "--p-max", "100"])
        assert (code, out) == (3, "")
        assert err == "error: invalid configuration: need p-min <= p-max\n"

    def test_oracle_disagreement_is_exit_2(self, capsys, monkeypatch):
        # The scan cross-checks one point against the quadrature oracle.
        evaluate = functionals.evaluate

        def off_oracle(ansatz, method="auto"):
            report = evaluate(ansatz, method=method)
            if method == "quadrature":
                report = report._replace(kinetic=report.kinetic * (1.0 + 1e-6))
            return report

        monkeypatch.setattr(functionals, "evaluate", off_oracle)
        code, out, err = run_cli(capsys, ["scan", "--p-points", "2", "--a-points", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: closed-form/quadrature mismatch in KE: ")

    def test_report_always_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, ["report", "--family", "uniform", "--p", "1", "--a", "-0.99",
                     "--format", "kv"]
        )
        assert code == 0
        assert "virial" in kv_parse(out)

    @pytest.mark.parametrize("command", ["certify", "mollify"])
    def test_small_core_without_halo_does_not_balance(self, capsys, command):
        # Both terms of the core's energy are below 1e-16: judged against
        # them, not against 1e-12, the core alone is far from balance.
        code, out, err = run_cli(
            capsys,
            [command, "--family", "core-halo", "--r1", "1e-3", "--r2", "1", "--r3", "1",
             "--p", "1", "--a", "-0.8"],
        )
        assert (code, out) == (2, "")
        assert err == ("error: degenerate halo (r2 == r3) and the core alone does not "
                       "balance\n")


class TestDeterminism:
    def test_certify_bytes_identical(self, capsys):
        _, first, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        _, second, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        assert first == second

    def test_scan_bytes_identical(self, capsys):
        argv = ["scan", "--p-points", "30", "--a-points", "6", "--format", "csv"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert first.splitlines()[-2] == "# min_virial > -0.45: OK"

    def test_scan_kv_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, ["scan", "--p-points", "20", "--a-points", "5", "--format", "kv"]
        )
        assert code == 0
        doc = kv_parse(out)
        assert float(doc["min_virial"]) > -0.45
        assert doc["floor_ok"] == "true"


class TestAsymptotics:
    def test_kv_summary_slopes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["asymptotics", "--p-points", "8", "--format", "kv"]
        )
        assert code == 0
        doc = kv_parse(out)
        assert float(doc["alpha_slope"]) == pytest.approx(-11.5, abs=0.1)
        assert float(doc["virial_slope"]) == pytest.approx(3.0, abs=0.05)

    def test_csv_has_summary_comments(self, capsys):
        code, out, _ = run_cli(
            capsys, ["asymptotics", "--p-points", "6", "--format", "csv"]
        )
        assert code == 0
        assert any(line.startswith("# alpha_slope=") for line in out.splitlines())

    def test_failures_print_as_plain_floats(self, capsys):
        code, _, err = run_cli(capsys, ["asymptotics", "--p-points", "5", "--p-min", "1",
                                        "--p-max", "1", "--a", "-0.5"])
        assert code == 2
        assert "(failures: [1.0, 1.0, 1.0, 1.0, 1.0])" in err
        assert "np.float64" not in err

    def test_small_p_names_the_scaling_family(self, capsys):
        code, _, err = run_cli(capsys, ["asymptotics", "--p-min", "1e-3", "--p-max", "1e-2"])
        assert code == 3
        assert err == ("error: invalid parameters: scaling family needs P >= 1 "
                       "(radii P^-2, P, P^2), got P=0.001\n")

    @pytest.mark.parametrize("a", ["-1", "1"])
    def test_a_outside_the_open_interval_is_config_error(self, capsys, a):
        # asymptotic_scaling owns the open interval and rejects it before any solve.
        code, out, err = run_cli(capsys, ["asymptotics", "--a", a])
        assert (code, out) == (3, "")
        assert err == f"error: invalid parameters: scaling scan needs a in (-1, 1), got {float(a)}\n"


class TestMollify:
    def test_corehalo_mollified_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["mollify", "--family", "core-halo", "--r1", "0.2", "--r2", "1",
             "--r3", "2", "--p", "1", "--a", "-0.85", "--delta", "0.001",
             "--format", "kv"],
        )
        assert code == 0
        doc = kv_parse(out)
        assert doc["verdict"] == "pass"
        assert float(doc["alpha"]) > 0.0
        assert float(doc["seam_smoothness"]) < 1e-4
        assert float(doc["drift.kinetic"]) < 1e-3

    @pytest.mark.parametrize("r3", ["1.000000002", "1.000000001"])
    def test_halo_level_above_a_million_is_bracketed(self, capsys, r3):
        # The step halo level is ~1e6 and ~2e6: the bracket doubles from it,
        # not up to a fixed absolute cap.  Virial fails; energy is zero.
        code, out, err = run_cli(capsys, ["mollify", "--family", "core-halo", "--r1", "0.2",
                                          "--r2", "1", "--r3", r3, "--p", "1", "--a", "-0.8",
                                          "--format", "kv"])
        assert code == 1, err
        doc = kv_parse(out)
        assert float(doc["alpha"]) > 1e6
        assert float(doc["energy_residual"]) <= float(doc["energy_tol"])

    def test_one_step_solve_per_op(self, capsys, monkeypatch):
        # The drift table's step datum is the one rebalance starts from: the
        # zero-energy step solve, made once.
        calls = []
        real = solvers.solve_corehalo_alpha
        monkeypatch.setattr(solvers, "solve_corehalo_alpha",
                            lambda *args: calls.append(args) or real(*args))
        code, out, _ = run_cli(capsys, ["mollify", *COREHALO, "--format", "kv"])
        assert code == 0
        assert calls == [(0.2, 1.0, 2.0, 1.0)]
        assert abs(float(kv_parse(out)["step.total_energy"])) <= 1e-9

    def test_one_step_ansatz_and_one_report_per_ansatz(self, capsys, monkeypatch):
        # rebalance smooths the step ansatz the command built, and the drift
        # table reads the step report and the certificate's own report.
        real_ansatz, real_evaluate = solvers.Family.ansatz, functionals.evaluate
        monkeypatch.setattr(solvers.Family, "ansatz",
                            lambda self, params: built.append(params) or real_ansatz(self, params))
        monkeypatch.setattr(functionals, "evaluate",
                            lambda ansatz, *args: evaluated.append(ansatz)
                            or real_evaluate(ansatz, *args))
        for argv in (COREHALO, MONOTONIC):
            built, evaluated = [], []
            code, _, err = run_cli(capsys, ["mollify", *argv, "--format", "kv"])
            assert code in (0, 1), err
            assert len(built) == 1 and len(evaluated) == 2
            (step,) = [ansatz for ansatz in evaluated if not ansatz.spatial.has_ramp]
            assert step == solvers.family_of(built[0]).ansatz(built[0])

    def test_drift_table_shrinks_with_delta(self, capsys):
        values = {}
        for delta in ("0.01", "0.0001"):
            _, out, _ = run_cli(
                capsys,
                ["mollify", "--family", "core-halo", "--r1", "0.2", "--r2", "1",
                 "--r3", "2", "--p", "1", "--a", "-0.85", "--delta", delta,
                 "--format", "kv"],
            )
            doc = kv_parse(out)
            values[delta] = {k: float(v) for k, v in doc.items() if k.startswith("drift.")}
        for key in ("drift.kinetic", "drift.potential", "drift.virial", "drift.l32_norm"):
            assert values["0.0001"][key] < values["0.01"][key]

    def test_custom_family_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, ["mollify", "--family", "custom", "--profiles", "x.json"]
        )
        assert code == 3

    def test_zero_step_halo_exits_2(self, capsys):
        # r2 == r3 and r1 = 3 / (5 KE(1)): the core alone balances, so the step
        # halo level is 0 and there is no bracket to expand from.
        code, out, err = run_cli(
            capsys,
            ["mollify", "--family", "core-halo", "--r1", "0.4760109662075118", "--r2", "0.8",
             "--r3", "0.8", "--p", "1", "--a", "-0.9"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # The ramp does not fit in a ball of radius R/4, but does at R/2.
        ["--family", "uniform", "--p", "1287.2546222345445", "--a", "-0.9",
         "--delta", "0.00022970155178984967"],
        # The ramp is wider than a momentum ball of radius 1e-3.
        ["--family", "monotonic", "--r1", "0.08404399306939374", "--r2", "2.4744658544970974",
         "--r3", "4.6748628834501735", "--n", "4.129748844169259", "--a", "-0.9",
         "--delta", "0.007596679686750897"],
        # KE ~ 2000: the potential must be exact to ~1e-13 relative to meet 1e-9.
        ["--family", "uniform", "--p", "2730.5078166847998", "--a", "-0.9",
         "--delta", "3.5584807221008097e-06"],
    ], ids=["uniform-narrow-ball", "monotonic-wide-ramp", "uniform-large-p"])
    def test_rebalance_reaches_zero_energy(self, capsys, argv):
        code, out, err = run_cli(capsys, ["mollify", *argv, "--format", "kv"])
        assert code in (0, 1), err
        doc = kv_parse(out)
        assert float(doc["energy_residual"]) <= float(doc["energy_tol"])

    def test_ramps_that_fit_the_given_ball_rebalance(self, capsys):
        # R = 0.476...: the 0.3 ramp fits the given ball, though not one of
        # radius R/2, so the rebalance may not smooth the ball at R/2.
        code, out, err = run_cli(capsys, ["mollify", "--family", "uniform", "--p", "1",
                                          "--a", "-0.5", "--delta", "0.3", "--format", "kv"])
        assert code == 1, err
        doc = kv_parse(out)
        assert float(doc["energy_residual"]) <= float(doc["energy_tol"])
        assert float(doc["R"]) > 0.6

    def test_ramp_misfit_names_the_given_breakpoint(self, capsys):
        code, out, err = run_cli(capsys, ["mollify", "--family", "uniform", "--p", "1",
                                          "--a", "-0.5", "--delta", "0.6"])
        assert code == 3 and out == ""
        assert err == (
            "error: invalid parameters: ramp [-0.12398903379248816, 0.4760109662075118] at "
            "breakpoint 0.4760109662075118 would leave [0.0, inf], crossing a piece edge or "
            "the ramp before it\n")

    @pytest.mark.parametrize("argv, delta, breakpoint", [
        (["--family", "uniform", "--p", "1e-300", "--a", "-0.5"], "1.0000000000000001e-303",
         "0.6"),
        (["--family", "monotonic", "--r1", "0.01", "--r2", "0.0909090909", "--r3", "0.1",
          "--n", "3", "--a", "-0.95", "--delta", "1e-320"], "1e-320", "0.1"),
    ], ids=["default-delta", "given-delta"])
    def test_ramp_rounding_to_zero_width_names_delta_and_breakpoint(self, capsys, argv, delta,
                                                                    breakpoint):
        # b - delta rounds to b: the ramp would be an empty interval.
        code, out, err = run_cli(capsys, ["mollify", *argv])
        assert code == 3 and out == ""
        assert err == (f"error: invalid parameters: ramp half-width {delta} rounds to zero "
                       f"width at breakpoint {breakpoint}\n")

    def test_large_p_datum_is_zero_energy_exactly(self, capsys):
        # At P ~ 333 a kinetic weight off by ~1e-11 relative left the printed
        # datum's exact energy at 2e-9, above energy_tol.  Rebuild the printed
        # datum and recompute its energy in mpmath at 40 digits.
        code, out, err = run_cli(capsys, [
            "mollify", "--family", "uniform", "--p", "332.55168376012125",
            "--a", "-0.19806772332346256", "--format", "kv"])
        assert code in (0, 1), err
        doc = kv_parse(out)
        delta = float(doc["delta"])
        spatial = mollify_profile(uniform_eta(float(doc["R"])), delta)
        momentum = mollify_profile(momentum_ball(float(doc["P"])), delta)
        with mpmath.workdps(40):
            energy = mp_total_energy(spatial, momentum)
        assert abs(energy) <= float(doc["energy_tol"])


class TestCustomFamily:
    def make_profiles_file(self, tmp_path):
        alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
        doc = {
            "spatial": {"pieces": [
                {"kind": "constant", "lo": 0.0, "hi": 0.2, "value": 1.0},
                {"kind": "constant", "lo": 0.2, "hi": 1.0, "value": 0.0},
                {"kind": "constant", "lo": 1.0, "hi": 2.0, "value": alpha},
            ]},
            "momentum": {"pieces": [
                {"kind": "constant", "lo": 0.0, "hi": 1.0, "value": 1.0},
            ]},
            "angular": {"cutoff": -0.8},
        }
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc))
        return path

    def test_certify_custom(self, capsys, tmp_path):
        path = self.make_profiles_file(tmp_path)
        code, out, _ = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path),
                     "--format", "kv"]
        )
        assert code == 0
        assert kv_parse(out)["verdict"] == "pass"

    def test_missing_file_is_config_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", "/no/such.json"]
        )
        assert code == 3

    def test_bad_piece_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "spatial": {"pieces": [{"kind": "warp", "lo": 0, "hi": 1}]},
            "momentum": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]},
            "angular": {"cutoff": 0.0},
        }))
        code, _, _ = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert code == 3

    @pytest.mark.parametrize("text", [
        '{"spatial": [], "momentum": 1}',
        "[1, 2]",
        '{"spatial": {"pieces": [{"kind": "constant", "lo": "x", "hi": 1, "value": 1}]}, '
        + GOOD_MOMENTUM + ', "angular": {"cutoff": 0}}',
        '{"spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": null}]}, '
        + GOOD_MOMENTUM + ', "angular": {"cutoff": 0}}',
        "{" + GOOD_SPATIAL + ", " + GOOD_MOMENTUM + ', "angular": {"cutoff": "abc"}}',
        b"\xff\xfe",
        "{" + GOOD_SPATIAL.replace('"hi": 1', '"hi": ' + "1" * 401) + ", " + GOOD_MOMENTUM
        + ', "angular": {"cutoff": 0}}',
    ], ids=["section-types", "top-level-list", "lo-string", "value-null", "cutoff-string",
            "not-utf8", "int-overflow"])
    def test_malformed_document_is_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1

    @pytest.mark.parametrize("piece, message", [
        ({"kind": "constant", "lo": -math.inf, "hi": 1, "value": 1},
         "piece lower endpoint must be finite"),
        ({"kind": "power", "lo": 0.5, "hi": 1, "value": math.inf, "exponent": 2},
         "power-law prefactor must be finite and >= 0"),
        ({"kind": "power", "lo": 0.5, "hi": 1, "value": 1, "exponent": math.nan},
         "power-law exponent must be finite"),
        ({"kind": "ramp", "lo": 0, "hi": 1, "left": 0, "right": math.inf},
         "ramp endpoint values must be finite"),
    ], ids=["lo-minus-inf", "power-value-inf", "power-exponent-nan", "ramp-end-inf"])
    def test_non_finite_piece_is_config_error(self, capsys, tmp_path, piece, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spatial": {"pieces": [piece]}, "momentum": {"pieces": [
            {"kind": "constant", "lo": 0, "hi": 1, "value": 1}]}, "angular": {"cutoff": 0}}))
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert (code, out) == (3, "")
        assert err == f"error: invalid configuration: invalid profile literal: {message}\n"

    ZERO_PIECE = '{"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 0}]}'

    @pytest.mark.parametrize("name, text", [
        ("spatial", '{"spatial": {"pieces": []}, ' + GOOD_MOMENTUM + ', "angular": {"cutoff": 0}}'),
        ("spatial", '{"spatial": ' + ZERO_PIECE + ", " + GOOD_MOMENTUM
         + ', "angular": {"cutoff": 0}}'),
        ("momentum", "{" + GOOD_SPATIAL + ', "momentum": {"pieces": []}, "angular": {"cutoff": 0}}'),
        ("momentum", "{" + GOOD_SPATIAL + ', "momentum": {"pieces": [{"kind": "constant", '
         '"lo": 0, "hi": 0.5, "value": 0}, {"kind": "power", "lo": 0.5, "hi": 1, "value": 0, '
         '"exponent": 2}]}, "angular": {"cutoff": 0}}'),
        ("angular", "{" + GOOD_SPATIAL + ", " + GOOD_MOMENTUM + ', "angular": {"pieces": '
         '[{"kind": "ramp", "lo": -1, "hi": 1, "left": 0, "right": 0}]}}'),
    ], ids=["spatial-empty", "spatial-zero", "momentum-empty", "momentum-zero-power",
            "angular-zero-ramp"])
    def test_zero_section_is_config_error(self, capsys, tmp_path, name, text):
        path = tmp_path / "zero.json"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert code == 3
        assert out == ""
        assert err == f"error: invalid configuration: {name} profile is zero everywhere\n"

    @pytest.mark.parametrize("radius, squared", [("1e-103", "0.0"), ("1e60", "inf")],
                             ids=["underflow", "overflow"])
    def test_extreme_radius_names_spatial_factor(self, capsys, tmp_path, radius, squared):
        ball = '{"pieces": [{"kind": "constant", "lo": 0, "hi": %s, "value": 1}]}' % radius
        path = tmp_path / "extreme.json"
        path.write_text('{"spatial": %s, "momentum": %s, "angular": {"cutoff": 0}}'
                        % (ball, ball))
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: squared spatial factor integral is {squared}\n"

    def test_ramp_down_to_the_least_subnormal_gets_a_verdict(self, capsys, tmp_path):
        # small / (big - small) underflows to 0 on this momentum ramp: the
        # dyadic panels of its L^{3/2} rule once took log2(0) and ended in a
        # ValueError traceback.
        path = tmp_path / "ramp.json"
        path.write_text(RAMP_TO_SUBNORMAL)
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path), "--format", "kv"]
        )
        assert (code, err) == (1, "")
        assert kv_parse(out)["verdict"] == "fail"

    def test_overflowing_norm_is_numerical_failure(self, capsys, tmp_path):
        # Both factor integrals are finite, but their product 1/C is not.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1e50, "value": 1}]},
            "momentum": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1e60, "value": 1}]},
            "angular": {"cutoff": 0},
        }))
        code, out, err = run_cli(
            capsys, ["certify", "--family", "custom", "--profiles", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: normalization constant is 0.0\n"


# Sections of a --profiles document: arbitrary JSON, a "pieces" or "cutoff" key
# holding arbitrary JSON, or a well-formed section with good or arbitrary numbers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
PIECES = st.lists(
    st.fixed_dictionaries({
        "kind": st.sampled_from(("constant", "power", "ramp", "warp")),
        "lo": JSON_VALUES, "hi": JSON_VALUES, "value": JSON_VALUES,
        "exponent": JSON_VALUES, "left": JSON_VALUES, "right": JSON_VALUES,
    }) | JSON_VALUES,
    max_size=3,
)
MALFORMED = st.one_of(JSON_VALUES, st.fixed_dictionaries({"pieces": PIECES | JSON_VALUES}),
                      st.fixed_dictionaries({"cutoff": JSON_VALUES}))
# Numbers that often build a valid section, and any float.
NUMBERS = st.sampled_from((-1, 0, 0.5, 1, 2)) | st.floats()
RADIAL = st.one_of(
    st.just({"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]}),
    st.builds(lambda hi, value: {"pieces": [
        {"kind": "constant", "lo": 0, "hi": hi, "value": value}]}, NUMBERS, NUMBERS),
    MALFORMED)
ANGULAR = st.one_of(st.just({"cutoff": -0.5}), st.fixed_dictionaries({"cutoff": NUMBERS}),
                    MALFORMED)


def _well_formed(section):
    """An object holding a ``pieces`` list or a ``cutoff``."""
    return isinstance(section, dict) and (
        isinstance(section.get("pieces"), list) or "cutoff" in section)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.fixed_dictionaries({"spatial": RADIAL, "momentum": RADIAL, "angular": ANGULAR}))
def test_any_profile_document_exits_with_a_documented_code(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "profiles-fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", "--family", "custom", "--profiles", str(path)])
    # An uncaught exception fails the test with its traceback.
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if not all(_well_formed(section) for section in doc.values()):
        assert code == 3
        assert err.getvalue().startswith("error: invalid configuration: ")


class TestNearDegenerateAngular:
    """The near-degenerate-angular warning comes once per angular factor evaluated."""

    ARGV = ["--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2", "--p", "1",
            "--a", "-0.999999999"]

    def warnings_of(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main(argv)
        capsys.readouterr()
        return [str(w.message) for w in caught if "nearly degenerate" in str(w.message)]

    def test_certify_warns_once(self, capsys):
        assert len(self.warnings_of(capsys, ["certify", *self.ARGV])) == 1

    def test_custom_slab_warns_once(self, capsys, tmp_path):
        path = tmp_path / "slab.json"
        path.write_text(f'{{{GOOD_SPATIAL}, {GOOD_MOMENTUM}, "angular": {{"pieces": ['
                        '{"kind": "constant", "lo": -1, "hi": -0.999999999, "value": 1}, '
                        '{"kind": "constant", "lo": -0.999999999, "hi": 1, "value": 0}]}}')
        argv = ["certify", "--family", "custom", "--profiles", str(path)]
        assert len(self.warnings_of(capsys, argv)) == 1

    def test_mollify_warns_for_the_step_and_the_mollified_cutoff(self, capsys):
        messages = self.warnings_of(capsys, ["mollify", *self.ARGV])
        assert len(messages) == 2 and messages[0] != messages[1]


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, ["certify", *COREHALO, "--format", "kv"])
        target = tmp_path / "cert.kv"
        code = main(["certify", *COREHALO, "--format", "kv", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        written = target.read_text()
        # Only the config.out echo differs between the two runs.
        diff = [
            (a, b)
            for a, b in zip(stdout_text.splitlines(), written.splitlines())
            if a != b
        ]
        assert all(a.startswith("config.out") for a, _ in diff)

    @pytest.mark.parametrize("argv", [["certify", *COREHALO, "--format", "kv"],
                                      ["scan", "--p-points", "2", "--a-points", "2"]],
                             ids=["certify", "scan"])
    @pytest.mark.parametrize("target", ["missing-dir/out.txt", "."], ids=["no-parent", "dir"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, argv, target):
        code, out, err = run_cli(capsys, [*argv, "--out", str(tmp_path / target)])
        assert code == 3
        assert out == ""
        assert err.startswith("error: invalid configuration: cannot write --out: ")
        assert err.count("\n") == 1


# Valid argv of each command, and out-of-range values of each flag whose own
# range is checked (its argparse type, or asymptotic_scaling for the last two).
RANGE_ARGV = {
    "certify": ["certify", *COREHALO],
    "report": ["report", *COREHALO],
    "mollify": ["mollify", *COREHALO],
    "scan": ["scan", "--p-points", "3", "--a-points", "2"],
    "asymptotics": ["asymptotics"],
}
POSITIVE_BAD = ("0", "-1", "-8.2e-05", "nan", "inf")
RANGE_BAD = {
    **{(command, flag): POSITIVE_BAD for command in ("certify", "report", "mollify")
       for flag in ("r1", "r2", "r3", "p", "n", "alpha")},
    **{(command, "a"): ("-1", "1.5", "nan", "-inf") for command in ("certify", "report", "mollify")},
    **{(command, "tol-energy"): ("0", "-1e-9", "nan") for command in ("certify", "mollify")},
    ("mollify", "delta"): ("-1e-3", "nan", "inf"),
    **{(command, flag): ("0", "-5e1", "inf") for command in ("scan", "asymptotics")
       for flag in ("p-min", "p-max")},
    **{("scan", flag): ("0", "-2") for flag in ("p-points", "a-points")},
    ("asymptotics", "p-points"): ("0", "-2"),
}
LIBRARY_BAD = {("asymptotics", "a"): ("-1", "1", "2", "nan"), ("asymptotics", "p-points"): ("1", "4")}


@pytest.fixture
def no_computation(monkeypatch):
    """Every solve, scan and evaluation the commands reach raises."""
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before the range check")

    for module, name in [(solvers, "solve_uniform_R"), (solvers, "solve_corehalo_alpha"),
                         (solvers, "solve_monotonic_P"), (scans, "solve_corehalo_alpha"),
                         (scans, "uniform_ball_floor"), (functionals, "evaluate"),
                         (functionals, "check_criteria"), (mollifier, "rebalance")]:
        monkeypatch.setattr(module, name, forbidden)


class TestRangeChecks:
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for (command, flag), values in RANGE_BAD.items() for value in values])
    def test_flag_range_exits_3_at_parse(self, capsys, no_computation, command, flag, value):
        code, out, err = run_cli(capsys, [*RANGE_ARGV[command], f"--{flag}={value}"])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: invalid configuration: argument --{flag}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for (command, flag), values in LIBRARY_BAD.items() for value in values])
    def test_library_range_exits_3_before_any_solve(self, capsys, no_computation,
                                                    command, flag, value):
        code, out, err = run_cli(capsys, [*RANGE_ARGV[command], f"--{flag}={value}"])
        assert (code, out) == (3, "")
        assert err.startswith("error: invalid parameters: scaling ")
        assert err.count("\n") == 1


NON_FINITE = ("nan", "inf", "-inf")
COREHALO_NO_P = ["--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2",
                 "--a", "-0.8"]


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["certify", *COREHALO, "--tol-energy", "nan"], "--tol-energy"),
        (["certify", *COREHALO, "--tol-energy", "inf"], "--tol-energy"),
        (["certify", *COREHALO_NO_P, "--p", "nan"], "--p"),
        (["certify", *COREHALO_NO_P, "--p", "inf"], "--p"),
        (["certify", "--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "inf",
          "--p", "1", "--a", "-0.8"], "--r3"),
        (["certify", "--family", "core-halo", "--r1", "inf", "--r2", "inf",
          "--r3", "inf", "--p", "1", "--a", "-0.8"], "--r1"),
        (["certify", "--family", "uniform", "--p", "nan", "--a", "-0.5"], "--p"),
        (["certify", "--family", "uniform", "--p", "inf", "--a", "-0.5"], "--p"),
        (["mollify", *COREHALO, "--delta", "nan"], "--delta"),
        (["scan", "--p-max", "inf"], "--p-max"),
        (["asymptotics", "--p-max", "inf"], "--p-max"),
    ])
    def test_exit_3_naming_the_flag(self, capsys, argv, flag):
        code, _, err = run_cli(capsys, argv)
        assert code == 3
        assert f"argument {flag}:" in err


class TestExtremeFlags:
    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "uniform", "--p", "1e308", "--a", "-0.5"],
        ["certify", "--family", "uniform", "--p", "1e-320", "--a", "-0.5"],
        ["certify", "--family", "core-halo", "--r1", "1e-300", "--r2", "1",
         "--r3", "1e300", "--p", "1", "--a", "-0.8"],
        ["certify", *MONOTONIC[:-4], "--n", "1e300", "--a", "-0.95"],
        ["mollify", "--family", "uniform", "--p", "1e200", "--a", "-0.5"],
        ["scan", "--p-min", "1e-300", "--p-max", "1e300"],
    ])
    def test_exit_2_with_one_line(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "uniform", "--p", "1e77", "--a", "-0.5"],
        ["certify", "--family", "uniform", "--p", "1e102", "--a", "-0.5"],
        ["certify", *COREHALO_NO_P, "--p", "1e77"],
        ["scan", "--p-min", "1e100", "--p-max", "1e101", "--p-points", "2", "--a-points", "2"],
    ])
    def test_kinetic_overflow_is_a_numerical_failure(self, capsys, argv):
        # Valid flags whose kinetic energy overflows: a numerical failure, not
        # an invalid parameter.
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error: numerical failure (OverflowError)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--p-min", "1e-102", "--p-max", "1e-102", "--p-points", "1",
          "--a-points", "40"], "normalization constant is inf"),
        (["certify", *COREHALO_NO_P, "--p", "1", "--alpha", "1e300"],
         "squared spatial factor integral is inf"),
    ], ids=["scan-tiny-P", "alpha-1e300"])
    def test_degenerate_factor_message(self, capsys, argv, message):
        # The scan's C leaves the float range at its smallest cutoff mass; the
        # halo's mass squared overflows before its overflowing power moment
        # is read.
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("p", ["1e-104", "1e-106", "1e-110", "1e-300"])
    def test_tiny_p_is_a_degenerate_factor(self, capsys, p):
        code, _, err = run_cli(capsys, ["certify", "--family", "uniform", "--p", p,
                                        "--a", "-0.5"])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ZeroDivisionError" not in err


def test_differential_corpus_exits_with_one_named_error(capsys, tmp_path):
    # The seeded corpus of tests/differential.py, the overflow argvs and a
    # momentum factor whose kinetic weights sum past the float range: every
    # argv exits 0-3 without a traceback, no error is a bare float overflow or
    # a "diverges" (a valid piece's true moment is finite), and a failure
    # prints one error line.
    import differential

    kinetic = tmp_path / "kinetic-overflow.json"
    kinetic.write_text(json.dumps(KINETIC_OVERFLOW_DOCUMENT), encoding="utf-8")
    broken = []
    for argv in [*differential.corpus(20261020, 3000, str(tmp_path)), *OVERFLOW_ARGVS,
                 ["certify", "--family", "custom", "--profiles", str(kinetic)]]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        err = capsys.readouterr().err
        if (code not in (0, 1, 2, 3) or "(34, 'Numerical result out of range')" in err
                or "intermediate overflow" in err or "diverges" in err
                or code >= 2 and [line[:6] for line in err.splitlines()] != ["error:"]):
            broken.append((argv, code, err))
    assert broken == []


VALID_FLAGS = {
    "uniform": {"p": "1", "a": "-0.99"},
    "core-halo": {"r1": "0.2", "r2": "1", "r3": "2", "p": "1", "a": "-0.8"},
    "monotonic": {"r1": "0.01", "r2": "0.0909090909", "r3": "0.1", "n": "3", "a": "-0.95"},
}
FLAG_VALUES = ("0", "-1", "1e-320", "1e308", *NON_FINITE)


@st.composite
def certify_or_report_argv(draw):
    """certify/report argv: up to three float flags drawn from FLAG_VALUES, the rest valid.

    Only certify takes --tol-energy; report gates nothing.
    """
    command = draw(st.sampled_from(("certify", "report")))
    family = draw(st.sampled_from(sorted(VALID_FLAGS)))
    flags = dict(VALID_FLAGS[family])
    if command == "certify":
        flags["tol-energy"] = "1e-9"
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        flags[flag] = draw(st.sampled_from(FLAG_VALUES))
    argv = [command, "--family", family,
            "--format", "kv", *(f"--{flag}={value}" for flag, value in flags.items())]
    return argv, any(value in NON_FINITE for value in flags.values())


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(certify_or_report_argv())
def test_every_flag_combination_exits_with_a_documented_code(case):
    argv, non_finite = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an uncaught exception fails the test with its traceback
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "verdict=fail" in out.getvalue()
    if non_finite:
        assert code == 3


# One argv of each outcome; main runs a random sequence of them on one parser.
PARSER_ARGVS = (
    ("certify", *COREHALO, "--format", "kv"),
    ("certify", *COREHALO, "--tol-energy", "1e-6", "--format", "kv"),
    ("certify", "--family", "uniform", "--p", "1", "--a", "-0.99"),
    ("report", *MONOTONIC, "--format", "kv"),
    ("mollify", "--family", "uniform", "--p", "1", "--a", "-0.5", "--format", "kv"),
    ("scan", "--p-points", "3", "--a-points", "2", "--format", "kv"),
    ("certify", *COREHALO, "--nonsense", "1"),
    ("scan", "--tol-energy", "1e-9"),
    ("certify", *COREHALO_NO_P, "--p", "nan"),
    ("mollify", *COREHALO, "--delta", "inf"),
    ("certify", "--family", "spherical", "--p", "1", "--a", "-0.5"),
    (),
    ("--format", "kv"),
    ("certify", "--help"),
)


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv); --help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.lists(st.sampled_from(PARSER_ARGVS), min_size=1, max_size=8))
    def test_reused_parser_matches_a_fresh_one(self, argvs):
        reused = [outcome(argv) for argv in argvs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_parser", cli.build_parser)
            fresh = [outcome(argv) for argv in argvs]
        assert reused == fresh

    def test_main_builds_one_parser_per_process(self, monkeypatch):
        inits = []
        original = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        argv = ["certify", *COREHALO, "--format", "kv"]
        assert main(argv) == 0
        assert len(inits) == 6  # the root parser and its five subcommands
        inits.clear()
        for _ in range(20):
            assert main(argv) == 0
        assert inits == []

    def test_build_parser_returns_an_unshared_parser(self):
        # A plain function, so tracers that wrap module functions still see it.
        assert isinstance(cli.build_parser, types.FunctionType)
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second and cli._parser() not in (first, second)
        first.add_argument("--only-first")
        assert first.parse_args(["--only-first=x", "scan"]).only_first == "x"
        for parser in (second, cli._parser()):
            with pytest.raises(ConfigError, match="--only-first"):
                parser.parse_args(["--only-first=x", "scan"])


def captured(call):
    """(exit code, stdout, stderr) of call(); --help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def reference_main(argv):
    """main as it ran when the root parser parsed every argv (none here gives --out)."""
    try:
        args = cli.build_parser().parse_args(argv)
        code, text = cli._COMMANDS[args.command](args)
        assert not args.out
        sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except ProfileError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 3
    except VirialForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    return code


# A quick valid argv tail of each command, and tokens drawn around it.
CHEAP_ARGV = {
    "certify": COREHALO,
    "report": MONOTONIC,
    "scan": ["--p-points", "3", "--a-points", "2"],
    "asymptotics": ["--p-points", "5"],
    "mollify": ["--family", "uniform", "--p", "1", "--a", "-0.5"],
}
ARGV_TOKENS = ("--format", "kv", "csv", "human", "--tol-energy", "1e-9", "--delta", "1e-3",
               "--family", "uniform", "--p", "nan", "-8.2e-05", "--a", "-0.9", "--p-min",
               "1e3", "--nonsense", "1", "--", "-h", "--he", "certify", "nonsense", "")
ROOT_ARGVS = (
    (),
    ("-h",),
    ("--help",),
    ("nonsense",),
    ("--format", "kv"),
    ("--format", "kv", "certify", *COREHALO),
    ("--nonsense", "certify", *COREHALO),
    ("--", "certify", *COREHALO),
    ("Certify", *COREHALO),
)


@st.composite
def any_argv(draw):
    """An argv of any command or of none, with tokens before and after its flags."""
    command = draw(st.sampled_from((*CHEAP_ARGV, "nonsense", "")))
    before = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=2))
    after = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=4))
    return [*before, command, *CHEAP_ARGV.get(command, ()), *after]


class TestCommandRouting:
    """main hands argv to the named command's parser; the outcome is the root parser's."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS + ROOT_ARGVS)
    def test_listed_argv_matches_the_root_parser(self, argv):
        assert outcome(argv) == captured(lambda: reference_main(list(argv)))

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(any_argv())
    def test_any_argv_matches_the_root_parser(self, argv):
        assert outcome(argv) == captured(lambda: reference_main(list(argv)))

    @pytest.mark.parametrize("command", sorted(CHEAP_ARGV))
    def test_each_flag_is_parsed_once(self, monkeypatch, command):
        calls = []
        original = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        code, _, err = outcome([command, *CHEAP_ARGV[command]])
        assert (code, err) in ((0, ""), (1, ""))
        assert calls == [f"virial-forge {command}"]

    @pytest.mark.parametrize("argv", ROOT_ARGVS)
    def test_argv_naming_no_command_runs_none(self, monkeypatch, argv):
        ran = []
        monkeypatch.setattr(cli, "_COMMANDS", {name: ran.append for name in cli._COMMANDS})
        code, _, err = outcome(argv)
        assert ran == []
        assert (code, err == "") in ((0, True), (3, False))

    @pytest.mark.parametrize("argv", [("certify", *COREHALO, "--format", "kv"),
                                      ("scan", "--p-points", "2", "--a-points", "2"),
                                      ("certify", "--help"), *ROOT_ARGVS])
    def test_console_script_reads_sys_argv(self, monkeypatch, argv):
        expected = outcome(argv)
        monkeypatch.setattr(sys, "argv", ["virial-forge", *argv])
        assert captured(main) == expected
        assert captured(cli.entrypoint) == expected
        # python -m virial_forge.cli: a fresh module namespace run as __main__.
        monkeypatch.delitem(sys.modules, "virial_forge.cli")
        assert captured(lambda: runpy.run_module("virial_forge.cli", run_name="__main__")) \
            == expected


class TestNegativeExponentValues:
    # A negative float in exponent notation is a value, as in the --flag=value form.
    @pytest.mark.parametrize("command", ["certify", "mollify"])
    @pytest.mark.parametrize("value", ["-8.266346073670938e-05", "-1e-3", "-8.2E-05", "-.5e2"])
    def test_space_form_is_the_equals_form(self, capsys, command, value):
        argv = [command, "--family", "uniform", "--p", "66.39211776263065", "--format", "kv"]
        spaced = run_cli(capsys, [*argv, "--a", value])
        joined = run_cli(capsys, [*argv, f"--a={value}"])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_negative_p_max_reaches_the_range_check(self, capsys):
        code, out, err = run_cli(capsys, ["scan", "--p-max", "-5e1"])
        assert (code, out) == (3, "")
        assert err == ("error: invalid configuration: argument --p-max: "
                       "value must be finite and positive, got -50.0\n")
