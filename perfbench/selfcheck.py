"""Smoke test of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload briefly in both modes and checks that the last line
carries every metric named in BENCHMARK.json with its unit.  Then feeds the
output checks a deliberately corrupted kv document and CSV row and checks
that both are flagged.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--samples", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_checkers():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import virial_forge
    import virial_forge.cli  # noqa: F401
    import workloads

    certify = workloads.CertifyBatch(virial_forge)
    datum = {"family": "core-halo", "r1": 0.2, "r2": 1.0, "r3": 2.0, "p": 1.0, "a": -0.8}
    code, out, err = certify.run(datum)
    assert certify.check(datum, (code, out, err), oracle=True) == [], "clean kv flagged"
    bad = out.replace("virial_margin=", "virial_margin=1")
    assert certify.check(datum, (code, bad, err), oracle=False), "corrupt kv margin passed"
    pairs = workloads.parse_kv(out)
    bad = out.replace(f"kinetic={pairs['kinetic']}", f"kinetic={float(pairs['kinetic']) * 1.001!r}")
    assert certify.check(datum, (code, bad, err), oracle=False), "corrupt kv value passed"
    print("ok  kv checker flags a corrupted margin and a corrupted value")

    scan = workloads.ScanGrid(virial_forge)
    item = {"scan": {"p_min": 0.1, "p_max": 100.0, "p_points": 5, "a_points": 4},
            "asymptotics": {"p_min": 100.0, "p_max": 1000.0, "p_points": 9, "a": -0.9}}
    result = scan.run(item)
    assert scan.check(item, result, oracle=True) == [], "clean CSV flagged"
    (code, csv_text, err), asym = result
    lines = csv_text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("uniform,"))
    cells = lines[row].split(",")
    cells[8] = repr(float(cells[8]) * 1.0001)
    lines[row] = ",".join(cells)
    corrupt = ("\n".join(lines) + "\n", code, err)
    assert scan.check(item, ((code, corrupt[0], err), asym), oracle=False), "corrupt CSV row passed"
    print("ok  CSV checker flags a corrupted row")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_checkers()
    check_metrics(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
