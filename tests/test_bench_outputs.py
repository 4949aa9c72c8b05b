"""Every benchmark op's output, pinned by hash for two seeds.

golden/bench-outputs.json holds, for each seed of SEEDS and each workload of
perfbench/workloads.py, the first 16 hex digits of the SHA-256 of ``repr``
of each pool item's output, in pool order: exit code, stdout and stderr of
a CLI op, the values and route label of an oracle op.  A change that moves
one byte of any op's output fails here, naming per workload how many ops
moved and the argv of the first.  If the change is deliberate, regenerate
with ``PYTHONPATH=src python tests/test_golden.py`` and record the reason
in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import virial_forge
import virial_forge.cli  # noqa: F401  (the workloads reach the CLI as api.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MANIFEST = Path(__file__).parent / "golden" / "bench-outputs.json"
SEEDS = (1, 2)


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


def run_pools():
    """{seed: {workload: [(argv, digest) of each op in pool order]}}.

    An op's argv is its fresh-interpreter command without the interpreter
    flag (``-m virial_forge.cli`` or ``-c <script>``).
    """
    runs, workload_classes = {}, _workloads()
    for seed in SEEDS:
        runs[str(seed)] = {}
        for name, workload_class in workload_classes.items():
            workload = workload_class(virial_forge)
            runs[str(seed)][name] = [
                (workload.cold_commands(item)[0][2:],
                 hashlib.sha256(repr(workload.run(item)).encode()).hexdigest()[:16])
                for item in workload.pool(np.random.default_rng(seed))
            ]
    return runs


def _digests(runs):
    return {seed: {name: [digest for _, digest in ops] for name, ops in by_name.items()}
            for seed, by_name in runs.items()}


def write_manifest():
    text = json.dumps(_digests(run_pools()), indent=1) + "\n"
    MANIFEST.write_text(text, encoding="utf-8", newline="")


def test_bench_outputs_match_manifest():
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    runs = run_pools()
    moved = []
    for seed, by_name in runs.items():
        for name, ops in by_name.items():
            expected = pinned.get(seed, {}).get(name, [])
            changed = [argv for (argv, digest), want in zip(ops, expected) if digest != want]
            if changed or len(ops) != len(expected):
                first = changed[0] if changed else "none; the pool size changed"
                moved.append(f"seed {seed} {name}: {len(changed)} of {len(ops)} ops moved "
                             f"({len(expected)} pinned); first argv: {first}")
    assert not moved, "\n".join(moved)
    assert _digests(runs) == pinned
