"""Where numpy and scipy load: in fresh interpreters and in the source.

Importing the package, ``certify``/``report`` on step data and every
``mollify`` run on exact closed forms, fixed Gauss-Legendre rules and the
in-repo Brent iteration, so they load neither library; each runs here in a
fresh interpreter, which must print the same bytes as the golden document
(or as the same command run in this process, where both libraries are
loaded).  The source checks pin the one scipy import to
``quadrature._quad`` and every numpy import to a function body, so
importing a module never loads either, and keep the adaptive integrator
out of ``profiles`` and of the exact moment source.
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


def _fresh_run(argv):
    """(exit code, stdout, loaded numpy/scipy modules) of argv in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
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
    assert sites["scipy"] == [("quadrature.py", ("_quad",))]
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
