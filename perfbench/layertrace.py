"""Layer spans for virial-forge, recorded from outside the package.

``Tracer.install`` wraps the public functions of the seven modules (cli,
profiles, quadrature, functionals, solvers, mollifier, scans), the moment
and construction methods of the profile classes, scipy's ``quad`` (every
binding) and the ``brentq`` bound in solvers and mollifier.  A wrapper is
installed both where a function is defined and wherever ``from ... import``
bound it.  Pointwise helpers that integrands call thousands of times
(profile ``__call__``, ``value_at``, ``smoothstep``, ``power_integral``,
``cumulative_moment2``, ``format_float``) stay unwrapped; their time counts
as self time of the span that called them.

Spans (name, start, end, parent, op id, exception) are kept in memory and
written out once, at the end.  The program runs in one thread, so no layer
waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import subprocess
import time
import types
from collections import Counter

LAYERS = ("cli", "profiles", "quadrature", "functionals", "solvers", "mollifier", "scans")
_POINTWISE = {"profiles.smoothstep", "profiles.power_integral", "scans.format_float"}
_METHODS = {
    "Piece": ("__init__", "moment", "power_moment"),
    "_PieceSet": ("moment", "power_moment"),
    "PiecewiseProfile": ("__init__", "from_segments", "dilate"),
    "AngularProfile": ("__init__", "cutoff", "moments"),
    "SeparableAnsatz": ("__init__", "norm_constant"),
}
_CONSTRUCT = {f"profiles.{cls}.__init__"
              for cls in ("Piece", "PiecewiseProfile", "AngularProfile", "SeparableAnsatz")}
_NO_ROOT = {"NoRootError", "NoPositiveRootError"}
_OP = "bench.op"


def _layer(name):
    head = name.split(".", 1)[0]
    return "quadrature" if head == "scipy" else head


class Tracer:
    """Records nested spans of one process; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = [-1]
        self.op = -1
        self.counts = Counter()
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_result=None, residual_arg=None, residual_layer=None):
        """fn recorded as span ``name``.

        ``on_result(result)`` sees each return value.  ``residual_arg`` is the
        position of a callable argument whose calls are counted as residual
        evaluations of ``residual_layer`` (or of the calling span's layer).
        """
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        names = self.names

        def wrapper(*args, **kwargs):
            if residual_arg is not None:
                parent = stack[-1]
                layer = residual_layer or (_layer(names[spans[parent][0]]) if parent >= 0
                                           else "bench")
                key = f"{layer}.residual_evals"
                f = args[residual_arg]

                def counted(*a):
                    counts[key] += 1
                    return f(*a)

                args = args[:residual_arg] + (counted,) + args[residual_arg + 1:]
            idx = len(spans)
            spans.append((nid, 0, 0, stack[-1], self.op, None))
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, spans[idx][3], self.op, error)
            if on_result is not None:
                on_result(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op as the root span of op ``op_id``."""
        self.op = op_id
        return self.wrap(_OP, fn)(*args)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, package="virial_forge"):
        """Wrap the package's layers in place; ``uninstall`` restores them."""
        import scipy.integrate

        pkg = importlib.import_module(package)
        mods = {short: importlib.import_module(f"{package}.{short}") for short in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(name, fn, **hooks):
            wrappers[id(fn)] = (fn, self.wrap(name, fn, **hooks))

        hooks = {
            "functionals.evaluate": {"on_result": self._count_label},
            "quadrature.integrate": {"on_result": self._count_subdivisions},
            "scans.uniform_ball_floor": {"on_result": self._count_points},
            "scans.asymptotic_scaling": {"on_result": self._count_points},
        }
        for short, mod in mods.items():
            for name, val in vars(mod).items():
                full = f"{short}.{name}"
                if (isinstance(val, types.FunctionType) and not name.startswith("_")
                        and val.__module__ == mod.__name__ and full not in _POINTWISE):
                    add(full, val, **hooks.get(full, {}))
        add("scans._crosscheck_row", mods["scans"]._crosscheck_row)
        add("scipy.quad", scipy.integrate.quad)
        for owner in (pkg, scipy.integrate, *mods.values()):
            for name, val in list(vars(owner).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._set(owner, name, entry[1])

        for short in ("solvers", "mollifier"):
            self._set(mods[short], "brentq", self.wrap(
                f"{short}.brentq", mods[short].brentq, residual_arg=0, residual_layer=short))
        expand = mods["solvers"].RootBracket.__dict__["expand"].__func__
        self._set(mods["solvers"].RootBracket, "expand", classmethod(
            self.wrap("solvers.RootBracket.expand", expand, residual_arg=1)))
        parser = mods["cli"]._Parser
        parser.parse_args = self.wrap("cli._Parser.parse_args", parser.parse_args)
        self._undo.append((parser, "parse_args", None))
        for cls_name, methods in _METHODS.items():
            cls = getattr(mods["profiles"], cls_name)
            for meth in methods:
                self._set(cls, meth, self._wrap_member(
                    f"profiles.{cls_name}.{meth}", cls.__dict__[meth]))

    def _wrap_member(self, name, member):
        if isinstance(member, (staticmethod, classmethod)):
            return type(member)(self.wrap(name, member.__func__))
        if isinstance(member, property):
            return property(self.wrap(name, member.fget))
        return self.wrap(name, member)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _count_label(self, report):
        self.counts["functionals.quadrature_labels"] += report.method == "quadrature"

    def _count_subdivisions(self, result):
        self.counts["quadrature.subdivisions"] += result.subdivisions

    def _count_points(self, result):
        self.counts["scans.points"] += len(result.rows)

    def layer_metrics(self, n_ops):
        """Per-op layer metrics from the recorded spans (times in ms)."""
        names, spans = self.names, self.spans
        n = len(spans)
        child = [0] * n
        for nid, start, end, parent, op, err in spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()  # name -> summed duration, ns
        calls = Counter()
        self_ns = Counter()  # layer -> self time, ns
        outer_solve = 0
        solve_ns = 0
        construct_ns = 0
        ramp_quads = 0
        no_root_ops = set()
        in_solve = [False] * n
        for i, (nid, start, end, parent, op, err) in enumerate(spans):
            name = names[nid]
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_ns[_layer(name)] += dur - child[i]
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            is_solve = name.startswith("solvers.solve_")
            in_solve[i] = is_solve or (parent >= 0 and in_solve[parent])
            if is_solve and not (parent >= 0 and in_solve[parent]):
                outer_solve += 1
                solve_ns += dur
            if name in _CONSTRUCT and parent_name not in _CONSTRUCT:
                construct_ns += dur
            if name == "scipy.quad" and parent_name == "profiles.Piece.power_moment":
                ramp_quads += 1
            if err in _NO_ROOT and _layer(name) == "solvers":
                no_root_ops.add(op)

        per_op = lambda x: x / n_ops  # noqa: E731
        ms = lambda ns: ns / 1e6 / n_ops  # noqa: E731
        points = self.counts["scans.points"]
        evals = calls["functionals.evaluate"]
        scan_ns = total["scans.uniform_ball_floor"] + total["scans.asymptotic_scaling"]
        return {
            "cli.parse_ms": (ms(total["cli.build_parser"] + total["cli._Parser.parse_args"]), "ms"),
            "cli.self_ms": (ms(self_ns["cli"]), "ms"),
            "profiles.construct_calls": (per_op(sum(calls[c] for c in _CONSTRUCT)), "count/op"),
            "profiles.construct_ms": (ms(construct_ns), "ms"),
            "profiles.moment_calls": (per_op(calls["profiles._PieceSet.moment"]
                                             + calls["profiles._PieceSet.power_moment"]), "count/op"),
            "profiles.piece_moment_calls": (per_op(calls["profiles.Piece.moment"]
                                                   + calls["profiles.Piece.power_moment"]), "count/op"),
            "profiles.ramp_quad_calls": (per_op(ramp_quads), "count/op"),
            "profiles.self_ms": (ms(self_ns["profiles"]), "ms"),
            "quadrature.integrate_calls": (per_op(calls["quadrature.integrate"]), "count/op"),
            "quadrature.quad_calls": (per_op(calls["scipy.quad"]), "count/op"),
            "quadrature.subdivisions": (per_op(self.counts["quadrature.subdivisions"]), "count/op"),
            "quadrature.self_ms": (ms(self_ns["quadrature"]), "ms"),
            "functionals.evaluate_calls": (per_op(evals), "count/op"),
            "functionals.evaluate_ms": (ms(total["functionals.evaluate"]), "ms"),
            "functionals.self_ms": (ms(self_ns["functionals"]), "ms"),
            "functionals.quadrature_label_ratio": (
                self.counts["functionals.quadrature_labels"] / evals if evals else 0.0, "ratio"),
            "solvers.solve_calls": (per_op(outer_solve), "count/op"),
            "solvers.solve_ms": (ms(solve_ns), "ms"),
            "solvers.residual_evals": (per_op(self.counts["solvers.residual_evals"]), "count/op"),
            "solvers.no_root_ops": (per_op(len(no_root_ops)), "ratio"),
            "mollifier.rebalance_ms": (ms(total["mollifier.rebalance"]), "ms"),
            "mollifier.self_ms": (ms(self_ns["mollifier"]), "ms"),
            "mollifier.residual_evals": (per_op(self.counts["mollifier.residual_evals"]),
                                         "count/op"),
            "scans.points": (per_op(points), "count/op"),
            "scans.us_per_point": (scan_ns / 1e3 / points if points else 0.0, "us"),
            "scans.csv_ms": (ms(total["scans.rows_to_csv"]), "ms"),
            "scans.crosscheck_ms": (ms(total["scans._crosscheck_row"]), "ms"),
            "scans.self_ms": (ms(self_ns["scans"]), "ms"),
        }

    def write(self, path, meta):
        """Spans as JSON lines: one header object, then one array per span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "names": self.names, "fields": [
                "name", "start_ns", "end_ns", "parent", "op", "error"]}) + "\n")
            for nid, start, end, parent, op, err in self.spans:
                fh.write(json.dumps([nid, start - origin, end - origin, parent, op, err]) + "\n")


def import_times(python, env, cwd, repeats):
    """Median import cost (ms) of virial_forge.cli and of its numpy and scipy parts.

    From ``python -X importtime``: ``cli.import_ms`` is the cumulative time of
    the top-level virial_forge imports; the numpy and scipy figures sum the
    self time of every module of that package, wherever it was imported from.
    """
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import virial_forge.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                              check=True)
        total = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            module = name.strip()
            top = module.split(".", 1)[0]
            if top == "virial_forge" and not name.startswith("  "):
                total["cli.import_ms"] += int(cumulative_us) / 1e3
            if top in ("numpy", "scipy"):
                total[f"cli.import_{top}_ms"] += int(self_us) / 1e3
        runs.append(total)
    return {key: (statistics.median(r[key] for r in runs), "ms")
            for key in ("cli.import_ms", "cli.import_scipy_ms", "cli.import_numpy_ms")}
