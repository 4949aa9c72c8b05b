"""Byte-for-byte CLI output pinned to stored documents.

The files under tests/golden/ hold the stdout of each command below.  A
change that alters a single byte of kv/CSV output fails here; if the change
is deliberate, regenerate with ``PYTHONPATH=src python tests/test_golden.py``
and record the reason in CHANGES.md.
"""

from pathlib import Path

import pytest

from virial_forge.cli import main

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    for name, (argv, _) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8", newline="")
