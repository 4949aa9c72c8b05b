"""virial-forge benchmark: one seeded workload, end to end or traced by layer.

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --seed 1    # every workload in turn

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and never installed.  Each run is a closed loop
with one client in one process, and every op's output is checked (see
workloads.py).

``--trace 0`` prints the end-to-end metrics: setup_s and cold_op_s from
fresh interpreters, warm per-op latency (p50, p90) and throughput from the
in-process loop, and the process's peak RSS.  Timings are calibrated to a
reference machine speed (see calibrate.py); the raw wall-clock value is
printed next to each.  ``--trace 1`` prints per-layer metrics from a traced
loop (see layertrace.py) and the tracing overhead against an untraced loop
of the same length.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record goes to
perfbench/results/.  METRICS.md defines every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import PROCESS_REFERENCE_S, PROCESS_SCRIPT, slowness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
THREADS_ENV = "VIRIAL_FORGE_THREADS"
NOTE = "wall clock on a shared 2-core sandbox; no CPU pinning or machine settings changed"
SPAN_CAP = 250_000
BLOCK_S = 0.01
SETUP_SCRIPT = ("import time\nimport virial_forge.cli as cli\ncli.build_parser()\n"
                "print(repr(time.time()))\n")


class Run:
    """Attempted/failed op counts and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems[:3]))


def _guarded(fn, *args):
    """(value, problems); an exception becomes a problem with its traceback tail."""
    try:
        return fn(*args), []
    except Exception as exc:  # op boundary: the benchmark must keep running
        tb = traceback.format_exception(exc)
        return None, [f"raised {exc!r} at {tb[-2].strip() if len(tb) > 1 else ''}"]


def verify_pool(workload, pool, oracle_sample, run):
    """Untimed pass over every input: warms caches and checks each output once."""
    verified, bad = {}, set()
    for i, item in enumerate(pool):
        result, problems = _guarded(workload.run, item)
        if not problems:
            checked, problems = _guarded(workload.check, item, result, i in oracle_sample)
            problems = problems or checked
        verified[i] = result
        if problems:
            bad.add(i)
        run.record(f"input {i}", problems)
    return verified, bad


def timed_loop(workload, pool, verified, bad, seconds, run, op=None, span_cap=None):
    """Closed loop over the pool until the summed op time reaches ``seconds``.

    Ops run in blocks of about BLOCK_S, with the calibration kernel timed
    between blocks.  Outputs must equal the verified output of the same
    input.  Returns per-op latencies in seconds: (raw, calibrated).
    """
    raw, scaled = [], []
    busy, i, capped = 0.0, 0, False
    wall_limit = time.perf_counter() + 3.0 * seconds + 5.0
    before = slowness(repeats=1)
    while busy < seconds and not capped and time.perf_counter() < wall_limit:
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while busy < seconds and time.perf_counter() < block_end:
            idx = i % len(pool)
            start = time.perf_counter()
            if op is None:
                result, problems = _guarded(workload.run, pool[idx])
            else:
                result, problems = _guarded(op, i, workload.run, pool[idx])
            elapsed = time.perf_counter() - start
            block.append(elapsed)
            busy += elapsed
            if not problems and idx in bad:
                problems = ["input failed its check"]
            elif not problems and not workload.same(result, verified[idx]):
                problems = ["output differs from the verified output of the same input"]
            run.record(f"op {i} (input {idx})", problems)
            i += 1
            if span_cap is not None and span_cap() and i >= 3:
                capped = True
                break
        after = slowness(repeats=1)
        factor = 0.5 * (before + after)
        raw += block
        scaled += [t / factor for t in block]
        before = after
    return raw, scaled


def _subprocess_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(THREADS_ENV, None)
    return env


def fresh_processes(workload, pool, verified, bad, cold_items, run):
    """setup_s and cold_op_s samples, one fresh interpreter at a time.

    Each pair of samples sits between two runs of the reference interpreter,
    whose mean time calibrates both.  Returns ((raw setup, calibrated setup),
    (raw cold, calibrated cold)).
    """
    env, py = _subprocess_env(), sys.executable

    def spawn(args, check=True):
        start = time.perf_counter()
        proc = subprocess.run([py, *args], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=check)
        return time.perf_counter() - start, proc

    def reference():
        return spawn(["-c", PROCESS_SCRIPT])[0] / PROCESS_REFERENCE_S

    setup, cold = ([], []), ([], [])
    before = reference()
    for idx in cold_items:
        start = time.time()
        _, proc = spawn(["-c", SETUP_SCRIPT])
        setup_s = float(proc.stdout.strip().splitlines()[-1]) - start
        outputs, cold_s = [], 0.0
        for args in workload.cold_commands(pool[idx]):
            seconds, proc = spawn(args, check=False)
            cold_s += seconds
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
        after = reference()
        factor = 0.5 * (before + after)
        before = after
        setup[0].append(setup_s)
        setup[1].append(setup_s / factor)
        cold[0].append(cold_s)
        cold[1].append(cold_s / factor)
        result, problems = _guarded(workload.cold_result, outputs)
        if not problems and idx in bad:
            problems = ["input failed its check"]
        elif not problems and not workload.same(verified[idx], result):
            problems = ["fresh-process output differs from the in-process output"]
        run.record(f"cold op (input {idx})", problems)
    return setup, cold


def percentile_90(latencies):
    """p90, or the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    pct = 90 if n >= 100 else max(50, int(100 * (1.0 - 10.0 / n))) if n >= 20 else 50
    if n < 2:
        return latencies[0], pct
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def metadata(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        THREADS_ENV: "unset",
        "load": "closed loop, one client, one process",
        "note": NOTE,
    }


def end_to_end(workload, pool, verified, bad, rng, args, run):
    """End-to-end metrics as name -> (calibrated value, unit, samples, raw value)."""
    raw_lat, lat = timed_loop(workload, pool, verified, bad, args.seconds, run)
    samples = args.samples or workload.cold_samples
    cold_items = [int(i) for i in rng.choice(len(pool), size=samples, replace=False)]
    setup, cold = fresh_processes(workload, pool, verified, bad, cold_items, run)
    (p90, pct), (raw_p90, _) = percentile_90(lat), percentile_90(raw_lat)
    n = len(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup[1]), "s", len(setup[1]), statistics.median(setup[0])),
        "cold_op_s": (statistics.median(cold[1]), "s", len(cold[1]), statistics.median(cold[0])),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms", n, 1e3 * statistics.median(raw_lat)),
        "op_p90_ms": (1e3 * p90, "ms", n, 1e3 * raw_p90),
        "ops_per_s": (n / sum(lat), "1/s", n, n / sum(raw_lat)),
        "peak_rss_mb": (rss_mb, "MB", 1, rss_mb),
    }, {"op_p90_ms_percentile": pct}


def per_layer(workload, pool, verified, bad, args, run):
    from layertrace import Tracer, import_times

    half = args.seconds / 2.0
    _, plain = timed_loop(workload, pool, verified, bad, half, run)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = timed_loop(workload, pool, verified, bad, half, run, op=tracer.run_op,
                               span_cap=lambda: len(tracer.spans) > SPAN_CAP)
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics = {k: (v, unit, n, None) for k, (v, unit) in tracer.layer_metrics(n).items()}
    for key, (value, unit) in import_times(sys.executable, _subprocess_env(), ROOT, 3).items():
        metrics[key] = (value, unit, 3, None)
    plain_rate, traced_rate = len(plain) / sum(plain), n / sum(traced)
    metrics["trace.slowdown"] = (plain_rate / traced_rate, "ratio", n, None)
    metrics["trace.spans_per_op"] = (len(tracer.spans) / n, "count/op", n, None)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}.jsonl", metadata(args))
    return metrics, {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
                     "wait_time": "none recorded: one thread, so no layer waits on another"}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int,
                        help="fresh-interpreter samples for setup_s and cold_op_s "
                             "(default: the workload's own count)")
    args = parser.parse_args(argv)
    if args.workload is None:
        forwarded = list(argv if argv is not None else sys.argv[1:])
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *forwarded]).returncode
                 for name in WORKLOADS]
        return max(codes)

    if not (SRC / "virial_forge" / "__init__.py").is_file():
        print(f"error: no virial_forge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import virial_forge
    import virial_forge.cli  # noqa: F401  (binds virial_forge.cli)

    if Path(virial_forge.__file__).resolve().parent != SRC / "virial_forge":
        print(f"error: imported virial_forge from {virial_forge.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](virial_forge)
    rng = np.random.default_rng(args.seed)
    pool = workload.pool(rng)
    oracle_sample = {int(i) for i in rng.choice(len(pool), size=max(1, len(pool) // 10),
                                                 replace=False)}
    run = Run()
    verified, bad = verify_pool(workload, pool, oracle_sample, run)
    if args.trace:
        metrics, extra = per_layer(workload, pool, verified, bad, args, run)
    else:
        metrics, extra = end_to_end(workload, pool, verified, bad, rng, args, run)

    meta = metadata(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"# {workload.name}: {why}")
    print(f"# input: {workload.size}")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for name, (value, unit, samples, raw) in metrics.items():
        raw_note = "" if raw is None or raw == value else f"; raw wall clock {raw:.6g} {unit}"
        print(f"{name} = {value:.6g} {unit}  (n={samples}{raw_note})")
    print(f"ops attempted = {run.attempted}, failed = {run.failed}, "
          f"fail_ratio = {run.failed / run.attempted:.6g}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    for defect in workload.defects:
        print(f"DEFECT {defect}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {**meta, "why": why, "input": workload.size, **extra,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "defects": workload.defects,
              "metrics": {k: {"value": v, "unit": u, "samples": n, "raw": raw}
                          for k, (v, u, n, raw) in metrics.items()}}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
