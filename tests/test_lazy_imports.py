"""The package imports lazily: each command loads only its modules, and the
package namespace is the one it had when ``__init__`` imported every module.

Module loading is probed in fresh interpreters, because in this process every
module is already loaded.
"""

import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from test_golden import CASES, COREHALO

import virial_forge

SRC = str(Path(virial_forge.__file__).resolve().parent.parent)
WATCHED = ("json", "virial_forge.scans", "virial_forge.mollifier", "virial_forge.quadrature")

# Runs the CLI on argv, then writes [exit code, loaded WATCHED modules] to
# stderr as the last line, as a Python literal: json is one of the watched.
_PROBE = """
import sys
from virial_forge.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted(m for m in sys.modules if m in %r)
sys.stderr.write("\\n" + repr([code, loaded]))
""" % (WATCHED,)

# Every name the package exported when ``__init__`` imported each module
# eagerly, by defining module.
EAGER_EXPORTS = {
    "errors": ("BracketError", "ConfigError", "DegenerateFactorError", "GridExhaustedError",
               "NoPositiveRootError", "NoRootError", "ProfileError", "QuadratureBudgetError",
               "RampOverlapError", "ThresholdUnreachableError", "VirialForgeError"),
    "functionals": ("CRITICAL_L32_NORM", "Certificate", "FunctionalReport", "check_criteria",
                    "evaluate", "kinetic_energy_ball", "potential_energy_profile",
                    "spatial_momentum_factor", "total_energy", "virial"),
    "mollifier": ("MollifySpec", "default_delta", "functional_drift", "mollify",
                  "mollify_profile", "rebalance", "seam_smoothness"),
    "profiles": ("AngularProfile", "Piece", "PiecewiseProfile", "SeparableAnsatz",
                 "core_halo_eta", "momentum_ball", "monotonic_eta", "uniform_eta"),
    "quadrature": ("QuadResult", "integrate", "nested_mass_quad"),
    "scans": ("FitResult", "ScanGrid", "asymptotic_scaling", "loglog_fit",
              "uniform_ball_floor", "virial_unbounded_below"),
    "solvers": ("CoreHaloParams", "MonotonicParams", "RootBracket", "UniformParams",
                "core_halo_ansatz", "monotonic_ansatz", "solve_corehalo_alpha",
                "solve_monotonic_P", "solve_threshold_a", "solve_uniform_R",
                "uniform_ansatz"),
}
EXPORTED = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


def _python(code, *args, stdin=None):
    """The completed run of ``python -c code args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, input=stdin,
                          capture_output=True, check=True)


def _loaded(argv):
    """(exit code, the WATCHED modules loaded) of the CLI on argv in a new interpreter."""
    proc = _python(_PROBE, *argv)
    code, loaded = ast.literal_eval(proc.stderr.decode().splitlines()[-1])
    return code, set(loaded)


STEP_CASES = sorted(name for name in CASES if name.startswith(("certify-", "report-")))


@pytest.mark.parametrize("name", STEP_CASES)
def test_step_certificate_loads_no_scans_mollifier_quadrature_or_json(name):
    argv, expected_code = CASES[name]
    assert _loaded(argv) == (expected_code, set())


def test_custom_family_loads_json(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({
        "spatial": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]},
        "momentum": {"pieces": [{"kind": "constant", "lo": 0, "hi": 1, "value": 1}]},
        "angular": {"cutoff": -0.5},
    }), encoding="utf-8")
    code, loaded = _loaded(["certify", "--family", "custom", "--profiles", str(path)])
    assert code in (0, 1)
    assert loaded == {"json"}


@pytest.mark.parametrize("delta", ["0", "0.001"])
def test_mollify_loads_no_scans_or_quadrature(delta):
    code, loaded = _loaded(["mollify", *COREHALO, "--delta", delta, "--format", "kv"])
    assert code in (0, 1)
    assert loaded == {"virial_forge.mollifier"}


@pytest.mark.parametrize("argv", [["scan", "--p-points", "2", "--a-points", "2"],
                                  ["asymptotics", "--p-points", "5", "--format", "kv"]],
                         ids=["scan", "asymptotics"])
def test_scans_load_scans(argv):
    code, loaded = _loaded(argv)
    assert code == 0
    assert "virial_forge.scans" in loaded
    assert "virial_forge.mollifier" not in loaded


# Runs the CLI on argv, or with no argv evaluates one ansatz on the oracle
# route, then writes every loaded module name to stderr as the last line.
_ALL_LOADED_PROBE = """
import sys
if sys.argv[1:]:
    from virial_forge.cli import main
    main(sys.argv[1:])
else:
    from virial_forge import UniformParams, evaluate, uniform_ansatz
    evaluate(uniform_ansatz(UniformParams(r=1.5, p=2.0, a=-0.5)), method="quadrature")
sys.stdout.flush()
sys.stderr.write("\\n" + repr(sorted(sys.modules)))
"""


def _all_loaded(argv):
    """Every module loaded by ``_ALL_LOADED_PROBE`` on argv in a new interpreter."""
    return set(ast.literal_eval(_python(_ALL_LOADED_PROBE, *argv).stderr.decode().splitlines()[-1]))


# ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``: ~5 ms of a cold start.
@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if n.startswith(("certify-", "report-", "mollify-"))))
def test_step_commands_load_neither_dataclasses_nor_inspect(name):
    assert not _all_loaded(CASES[name][0]) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [CASES["scan.csv"][0], CASES["asymptotics.csv"][0], []],
                         ids=["scan", "asymptotics", "oracle"])
def test_scans_and_oracle_load_no_dataclasses_or_numpy_random(argv):
    loaded = _all_loaded(argv)
    assert "dataclasses" not in loaded
    if int(numpy.__version__.split(".")[0]) < 2:
        pytest.skip("numpy < 2 imports numpy.random whenever numpy is imported")
    assert "numpy.random" not in loaded


def test_no_module_imports_dataclasses_or_names_numpy_random():
    for path in sorted(Path(SRC, "virial_forge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name
        assert "numpy.random" not in imported, path.name
        assert not [ast.unparse(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "random"
                    and ast.unparse(node.value) in ("np", "numpy")], path.name


@pytest.mark.parametrize("module, name", EXPORTED)
def test_each_name_is_its_defining_modules_object(module, name):
    defining = importlib.import_module(f"virial_forge.{module}")
    assert getattr(virial_forge, name) is getattr(defining, name)


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_each_submodule_is_an_attribute(module):
    assert getattr(virial_forge, module) is importlib.import_module(f"virial_forge.{module}")


def test_star_import_and_dir_list_the_eager_namespace():
    # In a fresh interpreter: this one has imported ``virial_forge.cli``,
    # which binds ``cli`` on the package.
    proc = _python("ns = {}\nexec('from virial_forge import *', ns)\n"
                   "import virial_forge, json\n"
                   "print(json.dumps([sorted(set(ns) - {'__builtins__'}), dir(virial_forge)]))")
    star, listed = json.loads(proc.stdout)
    assert set(star) == {name for _, name in EXPORTED} | set(EAGER_EXPORTS)
    assert set(star) <= set(listed)


def test_dir_lists_every_export():
    assert set(virial_forge.__all__) <= set(dir(virial_forge))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        virial_forge.no_such_name
    assert not hasattr(virial_forge, "format_float")
    with pytest.raises(ImportError):
        exec("from virial_forge import no_such_name", {})


def test_report_and_evaluated_profile_unpickle_in_a_fresh_interpreter():
    ansatz = virial_forge.core_halo_ansatz(virial_forge.CoreHaloParams(
        r1=0.2, r2=1.0, r3=2.0, p=1.0, a=-0.8,
        alpha=virial_forge.solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)))
    report = virial_forge.evaluate(ansatz)
    profile = ansatz.spatial
    value = profile(0.5)
    proc = _python("import pickle, sys\n"
                   "report, profile = pickle.loads(sys.stdin.buffer.read())\n"
                   "print(repr(report))\nprint(repr(profile(0.5)))",
                   stdin=pickle.dumps((report, profile)))
    assert proc.stdout.decode().splitlines() == [repr(report), repr(value)]
