"""The benchmark harness in perfbench/ still binds and runs against the package.

The harness wraps package names from outside (``layertrace.Tracer.install``
raises on a missing one) and checks each workload's output against its own
reference values, so a refactor that drops a bound name or changes an
output fails here, in tier 1, and not only in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import virial_forge
import virial_forge.cli  # noqa: F401  (the workloads reach the CLI as api.cli)
from virial_forge import mollifier, solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layertrace
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layertrace, workloads


def test_tracer_installs_and_uninstalls(harness):
    layertrace, _ = harness
    originals = (solvers.brentq, mollifier.brentq, solvers.RootBracket.expand,
                 mollifier.mollify)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert solvers.brentq is not originals[0]
        assert mollifier.mollify is not originals[3]
    finally:
        tracer.uninstall()
    assert (solvers.brentq, mollifier.brentq, solvers.RootBracket.expand,
            mollifier.mollify) == originals


@pytest.mark.parametrize("name", ["certify-batch", "mollify-batch", "scan-grid",
                                  "oracle-check"])
def test_workload_items_pass_their_checks(harness, name):
    _, workloads = harness
    workload = workloads.WORKLOADS[name](virial_forge)
    for item in workload.pool(np.random.default_rng(3))[:2]:
        assert workload.check(item, workload.run(item), oracle=True) == []
