"""Run one seeded CLI corpus through a git revision and the working tree, and compare.

Run from the repository root:

    python tests/differential.py REV [--seed N] [--count N] [--show N]

REV (any git revision) is checked out into a temporary ``git worktree``,
which is removed again at the end; the working tree's ``src/`` is the other
side.  Each tree runs the whole corpus through ``virial_forge.cli.main`` in
one child process (``PYTHONPATH=<tree>/src``, every warning shown), keeping
each argv's exit code, stdout and stderr.

The corpus is seeded: ``certify``, ``report`` and ``mollify`` of the three
families over values from 5e-324 to 1.7e308 (momentum cutoffs on both sides
of the kinetic moment's overflow edge, P ~ 9.7e76, included), about one
core-halo or monotonic datum in ten from the ranges where the step and the
mollified data have a root, the free parameter given as an override, and
generated ``--family custom`` documents.  The output counts the identical
and the differing results and groups the differing ones by what differs:
the exit code, the first stdout key whose value differs (or the layout),
and the stderr form (numbers masked), with the first ``--show`` argvs of
each group.  Exits 0 if every result is identical, else 1.

Tier-1 does not collect this file.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EDGES = (5e-324, 1e-320, 1e-300, 1e-160, 1e-60, 1e-12, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0,
         1e3, 1e12, 1e60, 1e76, 4e76, 9.7e76, 1e77, 1e300, 1.7e308)
# Momentum cutoffs around the overflow edge of the kinetic moment.
P_EDGES = (1e70, 1e76, 4e76, 5e76, 6e76, 9e76, 9.7e76, 9.8e76, 1e77, 1e100)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def _value(rng):
    """A positive float: mostly moderate, sometimes an edge or anywhere in the range."""
    r = rng.random()
    if r < 0.15:
        return rng.choice(EDGES)
    if r < 0.85:
        return 10.0 ** rng.uniform(-4.0, 4.0)
    return 10.0 ** rng.uniform(-320.0, 308.0)


def _cutoff(rng):
    return rng.choice((-0.999999999, -0.95, 0.0, 1.0)) if rng.random() < 0.1 \
        else rng.uniform(-0.999, 1.0)


def _flags(**values):
    return [token for name, value in values.items() for token in (f"--{name}", repr(value))]


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _solvable(rng, family):
    """A core-halo or monotonic datum from the solvable ranges of ``seeded_data`` in
    tests/test_mollifier.py, so ``mollify`` reaches a rebalance root."""
    if family == "core-halo":
        r1 = _log_uniform(rng, 0.05, 0.5)
        r2 = r1 * rng.uniform(2.0, 10.0)
        return _flags(r1=r1, r2=r2, r3=r2 * rng.uniform(1.2, 3.0), p=_log_uniform(rng, 0.3, 10.0),
                      a=rng.uniform(-0.99, -0.3)), "alpha"
    r1 = _log_uniform(rng, 0.005, 0.05)
    r2 = r1 * rng.uniform(3.0, 15.0)
    return _flags(r1=r1, r2=r2, r3=r2 * rng.uniform(1.05, 1.5), n=rng.uniform(2.0, 4.0),
                  a=rng.uniform(-0.99, -0.5)), "p"


def _datum(rng, family):
    """The input flags of one datum of ``family``, and its free parameter's name."""
    if family != "uniform" and rng.random() < 0.1:
        return _solvable(rng, family)
    if family == "uniform":
        return _flags(p=rng.choice(P_EDGES) if rng.random() < 0.1 else _value(rng),
                      a=_cutoff(rng)), "r"
    scale = 10.0 ** rng.uniform(-60.0, 3.0) if rng.random() < 0.8 else _value(rng)
    r1 = scale * rng.uniform(0.01, 0.5)
    r2 = r1 * (10.0 ** rng.uniform(0.0, 1.5))
    r3 = r2 * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0))
    if rng.random() < 0.05:
        r1, r2, r3 = _value(rng), _value(rng), _value(rng)
    if family == "core-halo":
        return _flags(r1=r1, r2=r2, r3=r3,
                      p=rng.choice(P_EDGES) if rng.random() < 0.05 else _value(rng),
                      a=_cutoff(rng)), "alpha"
    n = rng.choice((1e-320, 0.3, 3.0, 1e30)) if rng.random() < 0.1 else rng.uniform(0.3, 6.0)
    return _flags(r1=r1, r2=r2, r3=r3, n=n, a=_cutoff(rng)), "p"


def _pieces(rng, lo, hi, kinds):
    """Contiguous piece dicts from lo to hi, 1-3 of them, of the given kinds."""
    edges = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(0, 2)))
    out = []
    for a, b in zip([lo, *edges], [*edges, hi]):
        kind = rng.choice(kinds)
        if kind == "constant":
            out.append({"kind": kind, "lo": a, "hi": b, "value": _value(rng)})
        elif kind == "power":
            out.append({"kind": kind, "lo": a, "hi": b, "value": _value(rng),
                        "exponent": rng.uniform(0.3, 6.0)})
        else:
            out.append({"kind": kind, "lo": a, "hi": b, "left": _value(rng),
                        "right": rng.choice((0.0, _value(rng)))})
    return out


def _document(rng):
    """A ``--family custom`` profile document."""
    angular = ({"cutoff": _cutoff(rng)} if rng.random() < 0.7
               else {"pieces": _pieces(rng, -1.0, 1.0, ("constant", "ramp"))})
    return {"spatial": {"pieces": _pieces(rng, 0.0, _value(rng), ("constant", "power", "ramp"))},
            "momentum": {"pieces": _pieces(rng, 0.0, _value(rng), ("constant", "ramp"))},
            "angular": angular}


def corpus(seed, count, docs_dir):
    """The seeded argvs; custom documents are written to ``docs_dir``."""
    rng = random.Random(seed)
    argvs = [
        ["mollify", "--family", "monotonic", "--r1", "0.00018828575195959296",
         "--r2", "0.0003446754996415485", "--r3", "0.00034467549964156577", "--n", "1e+30",
         "--a", "0.5587531742610901", "--delta", "0.0"],
        ["certify", "--family", "monotonic", "--r1=1e-320", "--r2=0.0909090909", "--r3=0.1",
         "--n=1e-320", "--a=0"],
    ]
    for i in range(count):
        command = rng.choice(("certify", "report", "mollify"))
        fmt = ["--format", "kv"] if rng.random() < 0.8 else []
        if rng.random() < 0.12:
            path = os.path.join(docs_dir, f"doc{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_document(rng), fh)
            argvs.append([command, "--family", "custom", "--profiles", path, *fmt])
            continue
        family = rng.choice(("uniform", "core-halo", "monotonic"))
        flags, free = _datum(rng, family)
        if command == "mollify":
            if rng.random() < 0.7:
                flags += ["--delta", repr(rng.choice((0.0, 10.0 ** rng.uniform(-8.0, -1.0))))]
        elif rng.random() < 0.15:
            flags += [f"--{free}", repr(rng.choice(P_EDGES) if free == "p" and rng.random() < 0.5
                                        else _value(rng))]
        argvs.append([command, "--family", family, *flags, *fmt])
    return argvs


def run_child(corpus_path, results_path):
    """Child side: every argv of the corpus through ``cli.main``, results as JSON."""
    from virial_forge import cli

    tree = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
    with open(corpus_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except BaseException as exc:  # a traceback the CLI let through
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue().replace(tree, "<tree>")])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"tree": tree, "results": results}, fh)


def _run_tree(tree, corpus_path, results_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", corpus_path,
                    results_path], env=env, check=True)
    with open(results_path, encoding="utf-8") as fh:
        run = json.load(fh)
    if os.path.realpath(run["tree"]) != os.path.realpath(tree):
        sys.exit(f"the child imported virial_forge from {run['tree']}, not {tree}")
    return run["results"]


def _keyed(text):
    """(key, line) of each stdout line: kv ``key=value`` or human ``key  value``."""
    return [(line.split("=", 1)[0] if "=" in line else (line.split() or [""])[0], line)
            for line in text.splitlines()]


def difference(old, new):
    """What differs between two (code, stdout, stderr) results, as a hashable group key."""
    parts = []
    if old[0] != new[0]:
        parts.append(f"exit {old[0]} -> {new[0]}")
    if old[1] != new[1]:
        a, b = _keyed(old[1]), _keyed(new[1])
        if [k for k, _ in a] != [k for k, _ in b]:
            parts.append("stdout layout")
        else:
            parts.append("stdout values from key " + next(k for (k, x), (_, y) in zip(a, b)
                                                           if x != y))
    if old[2] != new[2]:
        forms = NUMBER.sub("#", old[2]), NUMBER.sub("#", new[2])
        parts.append("stderr numbers" if forms[0] == forms[1]
                     else f"stderr {forms[0].strip()!r} -> {forms[1].strip()!r}")
    return tuple(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seed", type=int, default=20261020)
    parser.add_argument("--count", type=int, default=5000, help="generated argvs")
    parser.add_argument("--show", type=int, default=3, help="argvs printed per group")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="differential-")
    base = os.path.join(work, "base")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", base,
                        args.rev], check=True)
        docs = os.path.join(work, "docs")
        os.mkdir(docs)
        argvs = corpus(args.seed, args.count, docs)
        corpus_path = os.path.join(work, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        old = _run_tree(base, corpus_path, os.path.join(work, "base.json"))
        new = _run_tree(ROOT, corpus_path, os.path.join(work, "head.json"))
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(work, ignore_errors=True)
    groups = collections.defaultdict(list)
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            groups[difference(a, b)].append(argv)
    differing = sum(map(len, groups.values()))
    print(f"{len(argvs)} argvs (seed {args.seed}), {args.rev} vs the working tree: "
          f"{len(argvs) - differing} identical, {differing} differ")
    for key, members in sorted(groups.items(), key=lambda item: -len(item[1])):
        print(f"[{len(members)}] " + "; ".join(key))
        for member in members[:args.show]:
            print("    " + " ".join(member))
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_child(*sys.argv[2:4])
    else:
        sys.exit(main())
