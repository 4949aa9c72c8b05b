"""Where numpy and scipy load: in fresh interpreters and in the source.

Importing the package, ``certify``/``report`` on step data and every
``mollify`` run on exact closed forms, fixed Gauss-Legendre rules and the
in-repo Brent iteration, so they load neither library; each runs here in a
fresh interpreter, which must print the same bytes as the golden document
(or as the same command run in this process, where both libraries are
loaded).  ``scan``, ``asymptotics`` and the quadrature oracle load scipy's
QUADPACK extension and not the ``scipy.integrate`` package, whichever of
the two loads first.  The source checks pin the one scipy import to
``quadrature._load_quadpack`` and every numpy import to a function body,
so importing a module never loads either, and keep the adaptive
integrator out of ``profiles`` and of the exact moment source.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES, COREHALO, GOLDEN, MONOTONIC, UNIFORM

import virial_forge
from virial_forge import UniformParams, evaluate, uniform_ansatz
from virial_forge.cli import main

PACKAGE = Path(virial_forge.__file__).resolve().parent
HEAVY = ("numpy", "scipy")

# Runs the CLI on argv, then writes [exit code, loaded numpy/scipy modules]
# to stderr as the last line.
_PROBE = """
import json, sys
from virial_forge.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
sys.stderr.write("\\n" + json.dumps([code, loaded]))
"""

STEP_CASES = sorted(name for name in CASES if name.startswith(("certify-", "report-")))
MOLLIFY_DELTA0 = {
    "uniform": ["mollify", *UNIFORM, "--delta", "0", "--format", "kv"],
    "core-halo": ["mollify", *COREHALO, "--delta", "0", "--format", "kv"],
    "monotonic": ["mollify", *MONOTONIC, "--delta", "0", "--format", "kv"],
}


def _with_delta(argv, delta):
    """argv with --delta set to ``delta`` where it stood (None: dropped, the default)."""
    at = argv.index("--delta") if "--delta" in argv else argv.index("--format")
    rest = argv[at + 2:] if argv[at] == "--delta" else argv[at:]
    return [*argv[:at], *([] if delta is None else ["--delta", delta]), *rest]


# Each ramped golden argv at the default delta and at --delta 0.001.
RAMPED = [(name, delta) for name in sorted(n for n in CASES if n.startswith("mollify-"))
          for delta in (None, "0.001")]


def _fresh_script(script, *argv):
    """Run script with argv in a new interpreter that imports the package from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh_run(argv, probe=_PROBE):
    """(exit code, stdout, loaded numpy/scipy modules) of argv in a new interpreter."""
    proc = _fresh_script(probe, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, proc.stdout, loaded


@pytest.mark.parametrize("name", STEP_CASES)
def test_step_documents_load_neither_library(name):
    argv, expected_code = CASES[name]
    code, out, loaded = _fresh_run(argv)
    assert loaded == []
    assert code == expected_code
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("family", sorted(MOLLIFY_DELTA0))
def test_unramped_mollify_loads_neither_library(family, capsys):
    argv = MOLLIFY_DELTA0[family]
    code, out, loaded = _fresh_run(argv)
    assert loaded == []
    assert (code, out) == (main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("name, delta", RAMPED)
def test_ramped_mollify_loads_neither_library(name, delta, capsys):
    golden_argv, golden_code = CASES[name]
    argv = _with_delta(golden_argv, delta)
    code, out, loaded = _fresh_run(argv)
    assert loaded == []
    if argv == golden_argv:
        assert (code, out) == (golden_code, (GOLDEN / name).read_text(encoding="utf-8"))
    else:
        assert (code, out) == (main(argv), capsys.readouterr().out)


QUADPACK = "scipy.integrate._quadpack"
# scipy packages the oracle does not use; importing scipy.integrate loads them all.
UNUSED_SCIPY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg",
                "scipy.sparse")


def _unused_scipy(loaded):
    """The loaded modules that belong to UNUSED_SCIPY, QUADPACK aside."""
    return [m for m in loaded if m != QUADPACK
            and any(m == pkg or m.startswith(pkg + ".") for pkg in UNUSED_SCIPY)]


@pytest.mark.parametrize("name", ["scan.csv", "asymptotics.csv"])
def test_scans_load_quadpack_alone(name):
    argv, expected_code = CASES[name]
    code, out, loaded = _fresh_run(argv)
    assert QUADPACK in loaded
    assert _unused_scipy(loaded) == []
    assert (code, out) == (expected_code, (GOLDEN / name).read_text(encoding="utf-8"))


# Prints the quadrature report of one uniform ansatz, then writes
# [0, loaded numpy/scipy modules] to stderr as the last line.
_ORACLE_PROBE = """
import json, sys
from virial_forge import UniformParams, evaluate, uniform_ansatz
print(repr(evaluate(uniform_ansatz(UniformParams(r=1.5, p=2.0, a=-0.5)), method="quadrature")))
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
sys.stderr.write("\\n" + json.dumps([0, loaded]))
"""


def test_oracle_loads_quadpack_alone():
    _, out, loaded = _fresh_run([], probe=_ORACLE_PROBE)
    assert QUADPACK in loaded
    assert _unused_scipy(loaded) == []
    ansatz = uniform_ansatz(UniformParams(r=1.5, p=2.0, a=-0.5))
    assert out == repr(evaluate(ansatz, method="quadrature")) + "\n"


def test_scipy_integrate_imported_after_the_oracle_reuses_its_module():
    _fresh_script("""
import sys
from virial_forge.quadrature import integrate
before = integrate(lambda x: x * x, 0.0, 3.0)
assert abs(before.value - 9.0) <= 1e-12, before
used = sys.modules["scipy.integrate._quadpack"]
import scipy.integrate
value, err = scipy.integrate.quad(lambda x: x * x, 0.0, 3.0)
assert abs(value - 9.0) <= 1e-12 and err < 1e-10, (value, err)
assert sys.modules["scipy.integrate._quadpack"] is used
assert integrate(lambda x: x * x, 0.0, 3.0) == before
""")


def test_oracle_reuses_a_loaded_scipy_integrate():
    _fresh_script("""
import sys
import scipy.integrate
from virial_forge import quadrature
loaded = sys.modules["scipy.integrate._quadpack"]
def load_again():
    raise AssertionError("scipy.integrate._quadpack loaded a second time")
quadrature._load_quadpack = load_again
result = quadrature.integrate(lambda x: x * x, 0.0, 3.0)
assert abs(result.value - 9.0) <= 1e-12, result
assert sys.modules["scipy.integrate._quadpack"] is loaded
""")


def _imports(tree):
    """(top-level module, enclosing function names) of every absolute import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[0], scope) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module.split(".")[0], scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def test_heavy_imports_sit_in_function_bodies():
    sites = {name: [] for name in HEAVY}
    for path in sorted(PACKAGE.rglob("*.py")):
        for module, scope in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if module in sites:
                sites[module].append((path.name, scope))
    assert sites["scipy"] == [("quadrature.py", ("_load_quadpack",))]
    assert sites["numpy"]
    assert all(scope for _, scope in sites["numpy"]), sites["numpy"]


def test_exact_route_names_no_adaptive_integrator():
    profiles = ast.parse((PACKAGE / "profiles.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(profiles) if isinstance(node, ast.ImportFrom)}
    assert "quadrature" not in imported
    assert not any(isinstance(node, ast.Name) and node.id == "quadrature"
                   for node in ast.walk(profiles))
    functionals = ast.parse((PACKAGE / "functionals.py").read_text(encoding="utf-8"))
    exact = next(node for node in functionals.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Exact")
    assert not [node.attr for node in ast.walk(exact) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "quadrature"]
