"""Byte-for-byte CLI output and oracle reports pinned to stored documents.

The files under tests/golden/ hold the stdout of each command below, and
oracle.txt the repr of ``evaluate(..., method="quadrature")`` for each
ansatz of ORACLE_CASES.  A change that alters a single byte of kv/CSV
output or of an oracle report fails here; if the change is deliberate,
regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and record
the reason in CHANGES.md.  The same command rewrites the benchmark output
manifest of test_bench_outputs.py.
"""

import argparse
from pathlib import Path

import numpy as np
import pytest

from virial_forge.cli import build_parser, main
from virial_forge.functionals import evaluate
from virial_forge.profiles import AngularProfile, Piece, PiecewiseProfile, SeparableAnsatz
from virial_forge.solvers import FAMILIES

GOLDEN = Path(__file__).parent / "golden"

UNIFORM = ["--family", "uniform", "--p", "1", "--a", "-0.99"]
COREHALO = ["--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2",
            "--p", "1", "--a", "-0.8"]
MONOTONIC = ["--family", "monotonic", "--r1", "0.01", "--r2", "0.0909090909",
             "--r3", "0.1", "--n", "3", "--a", "-0.95"]
MOLLIFY_COREHALO = ["--family", "core-halo", "--r1", "0.2", "--r2", "1", "--r3", "2",
                    "--p", "1", "--a", "-0.85", "--delta", "0.001"]

# name -> (argv, exit code)
CASES = {
    "certify-uniform.kv": (["certify", *UNIFORM, "--format", "kv"], 1),
    "certify-core-halo.kv": (["certify", *COREHALO, "--format", "kv"], 0),
    "certify-monotonic.kv": (["certify", *MONOTONIC, "--format", "kv"], 0),
    "report-uniform.kv": (["report", *UNIFORM, "--format", "kv"], 0),
    "report-core-halo.kv": (["report", *COREHALO, "--format", "kv"], 0),
    "report-monotonic.kv": (["report", *MONOTONIC, "--format", "kv"], 0),
    "mollify-uniform.kv": (["mollify", *UNIFORM, "--format", "kv"], 1),
    "mollify-core-halo.kv": (["mollify", *MOLLIFY_COREHALO, "--format", "kv"], 0),
    "mollify-monotonic.kv": (["mollify", *MONOTONIC, "--format", "kv"], 0),
    "scan.csv": (["scan", "--p-points", "5", "--a-points", "4", "--format", "csv"], 0),
    "asymptotics.csv": (["asymptotics", "--format", "csv"], 0),
}

# The three README reference sets; the free parameter is solved.
REFERENCE_SETS = {
    "uniform": dict(p=1.0, a=-0.99),
    "core-halo": dict(r1=0.2, r2=1.0, r3=2.0, p=1.0, a=-0.8),
    "monotonic": dict(r1=0.01, r2=0.0909090909, r3=0.1, n=3.0, a=-0.95),
}


def reference_ansatz(name):
    family = FAMILIES[name]
    known = REFERENCE_SETS[name]
    return family.ansatz(family.params(**known, **{family.free: family.solve(**known)}))


def template_ansatz(template, seed=20261017):
    """Seeded ansatz of one of three shapes: power-law (0), radial ramps (1),
    angular ramp (2)."""
    u = np.random.default_rng(seed + template).uniform
    x = [float(v) for v in np.sort(u(0.05, 3.0, size=4)) + np.array([0.0, 0.05, 0.1, 0.15])]
    v0, v1, v2 = (float(v) for v in u(0.2, 1.5, size=3))
    if template == 1:
        spatial = [Piece.constant(v0, 0.0, x[0]), Piece.ramp(v0, v2, x[0], x[1]),
                   Piece.constant(v2, x[1], x[2]), Piece.ramp(v2, 0.0, x[2], x[3])]
    else:
        spatial = [Piece.constant(v0, 0.0, x[0]), Piece.constant(0.0, x[0], x[1]),
                   Piece.power(v2, float(u(0.5, 4.0)), x[1], x[3])]
    p = [float(v) for v in np.cumsum(u(0.2, 1.5, size=3))]
    h = [float(v) for v in u(0.3, 1.5, size=3)]
    momentum = [Piece.constant(h[0], 0.0, p[0]), Piece.constant(h[1], p[0], p[1]),
                Piece.constant(h[2], p[1], p[2])]
    if template == 1:
        momentum[1] = Piece.ramp(h[0], h[2], p[0], p[1])
    cut = float(u(-0.8, 0.8))
    angular = [Piece.constant(v1, -1.0, cut), Piece.constant(0.5 * v0, cut, 1.0)]
    if template == 2:
        mid = cut + 0.5 * (1.0 - cut)
        angular = [angular[0], Piece.ramp(v1, 0.5 * v0, cut, mid),
                   Piece.constant(0.5 * v0, mid, 1.0)]
    return SeparableAnsatz(
        PiecewiseProfile.from_segments(spatial),
        PiecewiseProfile.from_segments(momentum, domain_label="radial-momentum"),
        AngularProfile(tuple(angular)),
    )


ORACLE_CASES = {
    **{name: lambda name=name: reference_ansatz(name) for name in REFERENCE_SETS},
    **{f"template-{t}": lambda t=t: template_ansatz(t) for t in range(3)},
}


def oracle_document():
    return "".join(
        f"{name}: {evaluate(build(), method='quadrature')!r}\n"
        for name, build in ORACLE_CASES.items()
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def config_argv(document):
    """The argv a document's config.* lines echo (config.p_min is --p-min).

    An empty config.out is left out: it is the default, stdout.
    """
    argv = []
    for line in document.splitlines():
        key, _, value = line.removeprefix("# ").partition("=")
        if key == "config.command":
            argv.insert(0, value)
        elif key.startswith("config.") and not (key == "config.out" and value == ""):
            argv.append(f"--{key.removeprefix('config.').replace('_', '-')}={value}")
    return argv


def subcommand_dests(command):
    """The namespace names of the flags the command's subparser has."""
    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in commands.choices[command]._actions}


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_lines_rerun_the_document(name, capsys):
    document = (GOLDEN / name).read_text(encoding="utf-8")
    argv = config_argv(document)
    assert argv[0] == CASES[name][0][0]
    assert main(argv) == CASES[name][1]
    assert capsys.readouterr().out == document


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_lines_name_only_the_commands_flags(name):
    document = (GOLDEN / name).read_text(encoding="utf-8")
    keys = [line.removeprefix("# ").partition("=")[0] for line in document.splitlines()]
    names = {key.removeprefix("config.") for key in keys if key.startswith("config.")}
    command = CASES[name][0][0]
    assert names - {"command"} <= subcommand_dests(command)
    assert ("tol_energy" in names) == (command in ("certify", "mollify"))


def test_oracle_reports_match_golden():
    assert oracle_document() == (GOLDEN / "oracle.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    from test_bench_outputs import write_manifest

    for name, (argv, expected_code) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit code {code}, expected {expected_code}; not written")
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8", newline="")
    (GOLDEN / "oracle.txt").write_text(oracle_document(), encoding="utf-8", newline="")
    write_manifest()
