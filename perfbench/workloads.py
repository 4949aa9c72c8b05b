"""The benchmark's four workloads: seeded inputs, one op, and output checks.

A workload turns a seed into a pool of inputs, runs one op on an input in
this process (the warm op) or as fresh interpreters (the cold op), and
checks an op's output.  Checks return a list of problems; an empty list
means the output is correct.  Every check compares against values the
benchmark computes itself (see reference.py); a seeded sample of inputs is
also rebuilt through the public API and compared with
``evaluate(method="quadrature")``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import reference as ref

# Relative tolerances of the package's own oracle-agreement tests.
ORACLE_RTOL = 1e-10
ORACLE_POTENTIAL_RTOL = 1e-8
# Program closed forms against the benchmark's Gauss-Legendre reference.
REF_RTOL = 1e-9
SEAM_LIMIT = 1e-4
ENERGY_TOL = 1e-9  # the CLI default --tol-energy
FLOOR = -9.0 / 20.0


def _f(x):
    """Float literal that parses back to exactly the same double."""
    return repr(float(x))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        pairs[key] = value
    return pairs


def _num(pairs, key):
    value = pairs.get(key, "")
    return float(value) if value else None


def _compare(problems, label, ours, expected, rel, abs_tol=0.0):
    if ours is None or not ref.close(ours, expected, rel, abs_tol):
        problems.append(f"{label}: printed {ours!r}, expected {expected!r}")


# ---------------------------------------------------------------- families


def _draw_family_datum(rng, family):
    """One step datum of a family, in ranges around the reference sets."""
    if family == "uniform":
        return {"family": family, "p": _log_uniform(rng, 1e-2, 1e4),
                "a": rng.uniform(-0.999, 0.9)}
    if family == "core-halo":
        r1 = _log_uniform(rng, 0.05, 0.5)
        r2 = r1 * rng.uniform(2.0, 10.0)
        return {"family": family, "r1": r1, "r2": r2, "r3": r2 * rng.uniform(1.2, 3.0),
                "p": _log_uniform(rng, 0.3, 10.0), "a": rng.uniform(-0.99, -0.3)}
    r1 = _log_uniform(rng, 0.005, 0.05)
    r2 = r1 * rng.uniform(3.0, 15.0)
    return {"family": family, "r1": r1, "r2": r2, "r3": r2 * rng.uniform(1.05, 1.5),
            "n": rng.uniform(2.0, 4.0), "a": rng.uniform(-0.99, -0.5)}


def _family_pool(rng, per_family):
    """Equal thirds of each family, shuffled, so every seed has the same mix."""
    pool = [_draw_family_datum(rng, fam)
            for fam in ("uniform", "core-halo", "monotonic") for _ in range(per_family)]
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def _family_argv(command, datum):
    argv = [command, "--family", datum["family"]]
    for key in ("r1", "r2", "r3", "p", "n", "a"):
        if key in datum:
            argv += [f"--{key}", _f(datum[key])]
    return argv


def _step_solution(datum):
    """The benchmark's own zero-energy solve: (free parameter, spatial, momentum)."""
    fam = datum["family"]
    if fam == "uniform":
        r = ref.uniform_radius(datum["p"])
        return r, ref.ball(r), ref.ball(datum["p"])
    if fam == "core-halo":
        alpha = ref.corehalo_alpha(datum["r1"], datum["r2"], datum["r3"], datum["p"])
        if alpha is None:
            return None, None, None
        spatial = ref.core_halo_spatial(datum["r1"], datum["r2"], datum["r3"], alpha)
        return alpha, spatial, ref.ball(datum["p"])
    p = ref.monotonic_p(datum["r1"], datum["r2"], datum["r3"], datum["n"])
    if p is None:
        return None, None, None
    return p, ref.monotonic_spatial(datum["r1"], datum["r2"], datum["r3"], datum["n"]), ref.ball(p)


_FREE_KEY = {"uniform": "R", "core-halo": "alpha", "monotonic": "P"}


def check_certificate(pairs, code):
    """Internal consistency of a certify/mollify kv document, and its verdict."""
    problems = []
    try:
        kin, pot, tot = _num(pairs, "kinetic"), _num(pairs, "potential"), _num(pairs, "total_energy")
        res, etol = _num(pairs, "energy_residual"), _num(pairs, "energy_tol")
        vir, vmargin = _num(pairs, "virial"), _num(pairs, "virial_margin")
        l32, nmargin = _num(pairs, "l32_norm"), _num(pairs, "norm_margin")
        crit, mass = _num(pairs, "critical_norm"), _num(pairs, "mass")
        verdict = pairs["verdict"]
    except (KeyError, ValueError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    if None in (kin, pot, tot, res, etol, vir, vmargin, l32, nmargin, crit, mass):
        return ["certificate has an empty value"]
    if tot != kin + pot:
        problems.append(f"total_energy {tot!r} != kinetic + potential")
    if res != abs(tot):
        problems.append(f"energy_residual {res!r} != |total_energy|")
    if vmargin != -0.5 - vir:
        problems.append(f"virial_margin {vmargin!r} != -1/2 - virial")
    if nmargin != l32 - crit:
        problems.append(f"norm_margin {nmargin!r} != l32_norm - critical_norm")
    _compare(problems, "critical_norm", crit, ref.CRITICAL_L32_NORM, 1e-15)
    _compare(problems, "mass", mass, 1.0, 1e-12)
    if etol != ENERGY_TOL:
        problems.append(f"energy_tol {etol!r} != {ENERGY_TOL!r}")
    if res > etol:
        problems.append(f"solved datum misses zero energy: residual {res!r}")
    passed = res <= etol and vir <= -0.5 and nmargin > 0.0
    if verdict != ("pass" if passed else "fail"):
        problems.append(f"verdict {verdict!r} disagrees with the printed margins")
    if code != (0 if verdict == "pass" else 1):
        problems.append(f"exit code {code} for verdict {verdict!r}")
    return problems


def _check_step_values(problems, datum, pairs, prefix, free=None):
    """Printed step-datum functionals (and free parameter) against the benchmark's own solve."""
    value, spatial, momentum = _step_solution(datum)
    if value is None:
        problems.append("the program solved a datum for which the benchmark finds no root")
        return None, None, None
    if free is not None:
        _compare(problems, "solved " + _FREE_KEY[datum["family"]], free, value, REF_RTOL)
    own = ref.functionals(spatial, momentum, ref.cutoff(datum["a"]))
    for key in ("kinetic", "potential", "virial", "l32_norm"):
        _compare(problems, prefix + key, _num(pairs, prefix + key), own[key], REF_RTOL)
    return own, spatial, momentum


def _check_failed_solve(datum, code, err):
    if code != 2:
        return [f"exit code {code}"]
    if not err.startswith("error:"):
        return [f"exit 2 without an error message: {err!r}"]
    if datum["family"] == "uniform" or _step_solution(datum)[0] is not None:
        return [f"exit 2 where the benchmark finds a zero-energy datum: {err.strip()}"]
    return []


def _kv_certificate(datum, result):
    """(pairs, problems) of a certify/mollify op; pairs is None when it exited 2 or 3."""
    code, out, err = result
    if code in (2, 3):
        return None, _check_failed_solve(datum, code, err)
    try:
        pairs = parse_kv(out)
    except ValueError as exc:
        return None, [str(exc)]
    return pairs, check_certificate(pairs, code)


def _ansatz_from_pieces(api, spatial, momentum, angular):
    def build(pieces):
        out = []
        for p in pieces:
            if p["kind"] == "constant":
                out.append(api.Piece.constant(p["value"], p["lo"], p["hi"]))
            elif p["kind"] == "power":
                out.append(api.Piece.power(p["value"], p["exponent"], p["lo"], p["hi"]))
            else:
                out.append(api.Piece.ramp(p["left"], p["right"], p["lo"], p["hi"]))
        return out

    return api.SeparableAnsatz(
        api.PiecewiseProfile.from_segments(build(spatial)),
        api.PiecewiseProfile.from_segments(build(momentum), domain_label="radial-momentum"),
        api.AngularProfile(tuple(build(angular))),
    )


def pieces_of(profile):
    """A package profile in the benchmark's literal form (zero tail dropped)."""
    out = []
    for p in profile.pieces:
        if math.isinf(p.hi):
            continue
        entry = {"kind": p.kind, "lo": p.lo, "hi": p.hi}
        if p.kind == "ramp":
            entry.update(left=p.left, right=p.right)
        else:
            entry["value"] = p.value
            if p.kind == "power":
                entry["exponent"] = p.exponent
        out.append(entry)
    return out


def _params_ansatz(api, datum, free):
    """The datum rebuilt through the public API, with a printed free parameter."""
    s = api.solvers
    fam = datum["family"]
    if fam == "uniform":
        return s.uniform_ansatz(s.UniformParams(r=free, p=datum["p"], a=datum["a"]))
    if fam == "core-halo":
        return s.core_halo_ansatz(s.CoreHaloParams(
            r1=datum["r1"], r2=datum["r2"], r3=datum["r3"], p=datum["p"], alpha=free, a=datum["a"]))
    return s.monotonic_ansatz(s.MonotonicParams(
        r1=datum["r1"], r2=datum["r2"], r3=datum["r3"], n=datum["n"], p=free, a=datum["a"]))


def _check_against_oracle(api, problems, ansatz, pairs):
    """Printed values against ``evaluate(method="quadrature")``.

    The tolerance is the package's test tolerance, or the oracle's own
    relative error estimate where that is larger: on small-radius data the
    oracle's absolute tolerance (1e-12) leaves integrals of ~1e-11 with only
    a few correct digits, which its error estimate reports.
    """
    oracle = api.evaluate(ansatz, method="quadrature")
    for key in ("mass", "kinetic", "potential", "virial", "l32_norm"):
        rel = max(ORACLE_POTENTIAL_RTOL if key == "potential" else ORACLE_RTOL,
                  oracle.residuals.get(key, 0.0))
        _compare(problems, f"oracle {key}", _num(pairs, key),
                 getattr(oracle, key), rel, 1e-14 if key == "virial" else 0.0)


# --------------------------------------------------------------- workloads


class CertifyBatch:
    name = "certify-batch"
    size = "one datum per op; pool of 480 data (160 per family) per seed"
    command = "certify"
    cold_samples = 5

    def __init__(self, api):
        self.api = api
        self.defects = []

    def pool(self, rng):
        return _family_pool(rng, 160)

    def argv(self, datum):
        return _family_argv(self.command, datum) + ["--format", "kv"]

    def run(self, datum):
        return _run_cli(self.api.cli, self.argv(datum))

    def cold_commands(self, datum):
        return [["-m", "virial_forge.cli", *self.argv(datum)]]

    @staticmethod
    def cold_result(results):
        return results[0]

    @staticmethod
    def same(warm, cold):
        return warm[:2] == cold[:2]

    def check(self, datum, result, oracle):
        pairs, problems = _kv_certificate(datum, result)
        if pairs is None or problems:
            return problems
        free = _num(pairs, _FREE_KEY[datum["family"]])
        own, spatial, momentum = _check_step_values(problems, datum, pairs, "", free)
        if own is None:
            return problems
        factor = (ref.moment(spatial, 3) / ref.moment(spatial, 2)) * (
            ref.moment(momentum, 3) / ref.moment(momentum, 2))
        a_star = _num(pairs, "a_star")
        if factor > 0.5:
            _compare(problems, "a_star", a_star, 1.0 - 1.0 / factor, REF_RTOL, 1e-12)
        elif a_star is not None:
            problems.append(f"a_star {a_star!r} printed where no cutoff reaches -1/2")
        if oracle and free is not None:
            _check_against_oracle(self.api, problems, _params_ansatz(self.api, datum, free), pairs)
        return problems


class MollifyBatch(CertifyBatch):
    name = "mollify-batch"
    size = ("one datum per op; pool of 240 data (80 per family) per seed; delta = "
            "default_delta * 10**U(-0.6, 0.6)")
    command = "mollify"

    def pool(self, rng):
        pool = _family_pool(rng, 80)
        for datum in pool:
            datum["delta"] = self._default_delta(datum) * 10.0 ** rng.uniform(-0.6, 0.6)
        return pool

    @staticmethod
    def _default_delta(datum):
        """1e-3 times the smallest piece width of the step datum, as the CLI default."""
        widths = [1.0 + datum["a"], 1.0 - datum["a"]]
        if datum["family"] == "uniform":
            widths.append(ref.uniform_radius(datum["p"]))
        else:
            widths += [datum["r1"], datum["r2"] - datum["r1"], datum["r3"] - datum["r2"]]
        p = datum["p"] if "p" in datum else _step_solution(datum)[0]
        if p is not None:
            widths.append(p)
        return 1e-3 * min(widths)

    def argv(self, datum):
        return super().argv(datum) + ["--delta", _f(datum["delta"])]

    def check(self, datum, result, oracle):
        pairs, problems = _kv_certificate(datum, result)
        if pairs is None or problems:
            return problems
        if _num(pairs, "delta") != datum["delta"]:
            problems.append(f"delta {pairs.get('delta')!r} != {datum['delta']!r}")
        seam = _num(pairs, "seam_smoothness")
        if seam is None or seam >= SEAM_LIMIT:
            problems.append(f"seam_smoothness {seam!r} is not C^1")
        for key in ("mass", "kinetic", "potential", "total_energy", "virial", "l32_norm"):
            step, moll = _num(pairs, "step." + key), _num(pairs, "mollified." + key)
            if moll != _num(pairs, key):
                problems.append(f"mollified.{key} differs from the certificate")
            if _num(pairs, "drift." + key) != abs(moll - step):
                problems.append(f"drift.{key} != |mollified - step|")
        _check_step_values(problems, datum, pairs, "step.")
        free = _num(pairs, _FREE_KEY[datum["family"]])
        if oracle and free is not None:
            api = self.api
            moll = api.mollifier.mollify(_params_ansatz(api, datum, free),
                                         api.mollifier.MollifySpec(delta=datum["delta"]))
            _check_against_oracle(api, problems, moll, pairs)
            self._note_exact_energy(datum, pairs, moll)
        return problems

    def _note_exact_energy(self, datum, pairs, moll):
        """Record a defect when the certified datum is not zero-energy exactly.

        The ramp route integrates the nested potential with quad at an
        absolute tolerance of 1e-12; on small-radius data that integral is
        ~1e-11, so the potential can be off by ~1e-9 relative, within the
        package's own oracle tolerance but far above energy_tol.  This is
        reported as a program defect, not counted as a failed op: the output
        matches ``evaluate(method="quadrature")`` as the op check requires.
        """
        own = ref.functionals(pieces_of(moll.spatial), pieces_of(moll.momentum),
                              pieces_of(moll.angular))
        energy = own["kinetic"] + own["potential"]
        # 1e-12 * KE covers the reference's own rounding (~1e-13 relative).
        if abs(energy) > _num(pairs, "energy_tol") + 1e-12 * own["kinetic"]:
            self.defects.append(
                f"mollified {datum['family']} datum {_family_argv('', datum)[3:]}: exact total "
                f"energy {energy:.3g} exceeds energy_tol (printed potential {pairs['potential']}, "
                f"exact {own['potential']!r})")


def _csv_body(text):
    """(header, rows, trailing comment lines) of a CSV document after its config lines."""
    lines = text.splitlines()
    head = sum(1 for ln in lines if ln.startswith("# config."))
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError("CSV document has no header")
    return body[0].split(","), [ln.split(",") for ln in body[1:]], lines[head + len(body):]


def _tail_value(tail, key):
    for line in tail:
        if line.startswith(f"# {key}="):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"missing summary line {key}")


def check_scan_csv(cfg, text):
    """Every row of a uniform-floor scan against 27 P (a - 1) / (160 KE(P))."""
    try:
        header, rows, tail = _csv_body(text)
        min_virial = _tail_value(tail, "min_virial")
    except ValueError as exc:
        return [str(exc)]
    if header != ["family", "P", "a", "alpha", "R", "KE", "PE", "E", "V", "l32_norm"]:
        return [f"unexpected header {header}"]
    p_grid = np.geomspace(cfg["p_min"], cfg["p_max"], cfg["p_points"])
    a_grid = np.linspace(-1.0 + 1e-6, 0.9, cfg["a_points"])
    if len(rows) != len(p_grid) * len(a_grid):
        return [f"{len(rows)} rows for a {len(p_grid)}x{len(a_grid)} grid"]
    problems = []
    ke_of = {}
    for i, row in enumerate(rows):
        if len(problems) >= 5:
            break
        try:
            fam, p, a, alpha, r, ke, pe, e, v, l32 = row
            p, a, r, ke, pe, e, v, l32 = map(float, (p, a, r, ke, pe, e, v, l32))
        except ValueError:
            problems.append(f"row {i} unreadable: {row}")
            continue
        label = f"row {i} (P={p!r}, a={a!r})"
        if fam != "uniform" or alpha != "":
            problems.append(f"{label}: family/alpha {fam!r}/{alpha!r}")
        _compare(problems, label + " P", p, float(p_grid[i // len(a_grid)]), 1e-13)
        _compare(problems, label + " a", a, float(a_grid[i % len(a_grid)]), 1e-13, 1e-15)
        if p not in ke_of:
            ke_of[p] = ref.ke_ball(p)
        own_ke = ke_of[p]
        _compare(problems, label + " KE", ke, own_ke, 1e-12)
        _compare(problems, label + " R", r, 3.0 / (5.0 * own_ke), 1e-12)
        _compare(problems, label + " PE", pe, -own_ke, 1e-12)
        if abs(e) > 1e-12 * own_ke:
            problems.append(f"{label}: E={e!r} is not zero")
        _compare(problems, label + " V", v, 27.0 * p * (a - 1.0) / (160.0 * own_ke), 1e-12)
        volume = (r**3 / 3.0) * (p**3 / 3.0) * (1.0 + a)
        _compare(problems, label + " l32_norm", l32,
                 volume ** (-1.0 / 3.0) / (2.0 * math.pi ** (2.0 / 3.0)), 1e-12)
        if not v > FLOOR:
            problems.append(f"{label}: V={v!r} at or below the -9/20 floor")
    virials = [float(row[8]) for row in rows]
    if min_virial != min(virials):
        problems.append(f"min_virial {min_virial!r} is not the smallest row V")
    ok_line = "# min_virial > -0.45: OK" if min_virial > FLOOR else "# min_virial > -0.45: VIOLATED"
    if ok_line not in tail or not min_virial > FLOOR:
        problems.append(f"floor summary wrong or violated: {tail}")
    return problems


def check_asymptotics_csv(cfg, text):
    """Rows of the large-P core-halo scaling family and the two fitted slopes."""
    try:
        header, rows, tail = _csv_body(text)
        alpha_slope = _tail_value(tail, "alpha_slope")
        virial_slope = _tail_value(tail, "virial_slope")
    except ValueError as exc:
        return [str(exc)]
    p_grid = np.geomspace(cfg["p_min"], cfg["p_max"], cfg["p_points"])
    if len(rows) != len(p_grid):
        return [f"{len(rows)} scaling rows for {len(p_grid)} momentum cutoffs"]
    problems = []
    cols = {name: i for i, name in enumerate(header)}
    for i, row in enumerate(rows):
        p = float(row[cols["P"]])
        label = f"scaling row P={p!r}"
        _compare(problems, label + " P", p, float(p_grid[i]), 1e-13)
        alpha = ref.corehalo_alpha(p**-2, p, p**2, p)
        _compare(problems, label + " alpha", float(row[cols["alpha"]]), alpha, REF_RTOL)
        own = ref.functionals(ref.core_halo_spatial(p**-2, p, p**2, alpha), ref.ball(p),
                              ref.cutoff(cfg["a"]))
        for key, col in (("kinetic", "KE"), ("potential", "PE"), ("virial", "V"),
                         ("l32_norm", "l32_norm")):
            _compare(problems, f"{label} {col}", float(row[cols[col]]), own[key], REF_RTOL)
        if abs(float(row[cols["E"]])) > 1e-9 * own["kinetic"]:
            problems.append(f"{label}: E={row[cols['E']]} is not zero")
    ps = [float(row[cols["P"]]) for row in rows]
    fit_a = np.polyfit(np.log(ps), np.log([float(row[cols["alpha"]]) for row in rows]), 1)[0]
    fit_v = np.polyfit(np.log(ps), np.log([-float(row[cols["V"]]) for row in rows]), 1)[0]
    _compare(problems, "alpha_slope", alpha_slope, fit_a, 1e-9)
    _compare(problems, "virial_slope", virial_slope, fit_v, 1e-9)
    if abs(alpha_slope + 11.5) > 0.1 or abs(virial_slope - 3.0) > 0.05:
        problems.append(f"slopes {alpha_slope!r}, {virial_slope!r} not -23/2 and +3")
    return problems


class ScanGrid:
    name = "scan-grid"
    size = ("one op = scan (p_points x a_points = 1000, p_points 20/25/40/50 in turn, seeded "
            "P box inside the default) + asymptotics (9 points); pool of 16 ops per seed")
    cold_samples = 5

    def __init__(self, api):
        self.api = api
        self.defects = []

    def pool(self, rng):
        pool = []
        for i in range(16):
            p_points = (20, 25, 40, 50)[i % 4]
            scan = {"p_min": _log_uniform(rng, 1e-2, 1.0), "p_max": _log_uniform(rng, 1e2, 1e4),
                    "p_points": p_points, "a_points": 1000 // p_points}
            asym = {"p_min": _log_uniform(rng, 1e2, 3e2), "p_max": _log_uniform(rng, 3e3, 1e4),
                    "p_points": 9, "a": rng.uniform(-0.95, -0.5)}
            pool.append({"scan": scan, "asymptotics": asym})
        return pool

    @staticmethod
    def argvs(item):
        s, a = item["scan"], item["asymptotics"]
        return [
            ["scan", "--format", "csv", "--p-min", _f(s["p_min"]), "--p-max", _f(s["p_max"]),
             "--p-points", str(s["p_points"]), "--a-points", str(s["a_points"])],
            ["asymptotics", "--format", "csv", "--p-min", _f(a["p_min"]), "--p-max",
             _f(a["p_max"]), "--p-points", str(a["p_points"]), "--a", _f(a["a"])],
        ]

    def run(self, item):
        return tuple(_run_cli(self.api.cli, argv) for argv in self.argvs(item))

    def cold_commands(self, item):
        return [["-m", "virial_forge.cli", *argv] for argv in self.argvs(item)]

    @staticmethod
    def cold_result(results):
        return tuple(results)

    @staticmethod
    def same(warm, cold):
        return all(w[:2] == c[:2] for w, c in zip(warm, cold))

    def check(self, item, result, oracle):
        (scan_code, scan_out, scan_err), (asym_code, asym_out, asym_err) = result
        if scan_code != 0 or asym_code != 0:
            return [f"exit codes {scan_code}/{asym_code}: {scan_err}{asym_err}".strip()]
        problems = check_scan_csv(item["scan"], scan_out)
        problems += check_asymptotics_csv(item["asymptotics"], asym_out)
        if oracle and not problems:
            api = self.api
            _, rows, _ = _csv_body(scan_out)
            for i in (0, len(rows) // 2, len(rows) - 1):
                p, a, r = (float(x) for x in rows[i][1:3] + rows[i][4:5])
                ansatz = api.solvers.uniform_ansatz(api.solvers.UniformParams(r=r, p=p, a=a))
                pairs = dict(zip(("kinetic", "potential", "virial", "l32_norm"),
                                 (rows[i][5], rows[i][6], rows[i][8], rows[i][9])))
                pairs["mass"] = "1.0"
                _check_against_oracle(api, problems, ansatz, pairs)
        return problems


class OracleCheck:
    name = "oracle-check"
    size = "one ansatz per op (3 rotating templates); pool of 360 ansatze per seed"
    cold_samples = 5

    # Fresh-interpreter op: build the ansatz from its literal, evaluate on the
    # quadrature route, print the report as JSON.
    COLD_SCRIPT = (
        "import json, sys\n"
        "from virial_forge import AngularProfile, Piece, PiecewiseProfile, SeparableAnsatz, evaluate\n"
        "def build(ps):\n"
        "    return [Piece.constant(p['value'], p['lo'], p['hi']) if p['kind'] == 'constant' else\n"
        "            Piece.power(p['value'], p['exponent'], p['lo'], p['hi']) if p['kind'] == 'power' else\n"
        "            Piece.ramp(p['left'], p['right'], p['lo'], p['hi']) for p in ps]\n"
        "lit = json.loads(sys.argv[1])\n"
        "ansatz = SeparableAnsatz(PiecewiseProfile.from_segments(build(lit['spatial'])),\n"
        "    PiecewiseProfile.from_segments(build(lit['momentum']), domain_label='radial-momentum'),\n"
        "    AngularProfile(tuple(build(lit['angular']))))\n"
        "rep = evaluate(ansatz, method='quadrature')\n"
        "print(json.dumps({k: getattr(rep, k) for k in\n"
        "    ('norm_constant', 'mass', 'kinetic', 'potential', 'total_energy', 'virial', 'l32_norm')}))\n"
    )
    KEYS = ("norm_constant", "mass", "kinetic", "potential", "total_energy", "virial", "l32_norm")

    def __init__(self, api):
        self.api = api
        self.defects = []

    def pool(self, rng):
        return [self._ansatz_literal(rng, i % 3) for i in range(360)]

    @staticmethod
    def _ansatz_literal(rng, template):
        u = rng.uniform
        x = np.sort(u(0.05, 3.0, size=4)) + np.array([0.0, 0.05, 0.1, 0.15])
        v0, v2 = u(0.2, 1.5), u(0.2, 1.5)
        if template == 0:
            n = u(0.5, 4.0)
            spatial = [
                {"kind": "constant", "lo": 0.0, "hi": x[0], "value": v0},
                {"kind": "power", "lo": x[0], "hi": x[1], "value": u(0.2, 1.5), "exponent": n},
                {"kind": "constant", "lo": x[1], "hi": x[2], "value": v2},
            ]
        elif template == 1:
            spatial = [
                {"kind": "constant", "lo": 0.0, "hi": x[0], "value": v0},
                {"kind": "ramp", "lo": x[0], "hi": x[1], "left": v0, "right": v2},
                {"kind": "constant", "lo": x[1], "hi": x[2], "value": v2},
                {"kind": "ramp", "lo": x[2], "hi": x[3], "left": v2, "right": 0.0},
            ]
        else:
            spatial = [
                {"kind": "constant", "lo": 0.0, "hi": x[0], "value": v0},
                {"kind": "constant", "lo": x[0], "hi": x[1], "value": 0.0},
                {"kind": "power", "lo": x[1], "hi": x[3], "value": v2, "exponent": u(0.5, 4.0)},
            ]
        p = np.cumsum(u(0.2, 1.5, size=3))
        h = u(0.3, 1.5, size=3)
        momentum = [{"kind": "constant", "lo": lo, "hi": hi, "value": val}
                    for lo, hi, val in zip((0.0, p[0], p[1]), p, h)]
        if template == 1:
            momentum[1] = {"kind": "ramp", "lo": p[0], "hi": p[1], "left": h[0], "right": h[2]}
        cut = u(-0.8, 0.8)
        angular = [{"kind": "constant", "lo": -1.0, "hi": cut, "value": u(0.2, 1.5)},
                   {"kind": "constant", "lo": cut, "hi": 1.0, "value": u(0.0, 1.0)}]
        if template == 2:
            mid = cut + 0.5 * (1.0 - cut)
            angular = [angular[0], {"kind": "ramp", "lo": cut, "hi": mid,
                                    "left": angular[0]["value"], "right": angular[1]["value"]},
                       {"kind": "constant", "lo": mid, "hi": 1.0, "value": angular[1]["value"]}]
        as_float = lambda ps: [{k: (v if k == "kind" else float(v)) for k, v in pc.items()}
                               for pc in ps]
        return {"spatial": as_float(spatial), "momentum": as_float(momentum),
                "angular": as_float(angular)}

    def run(self, lit):
        ansatz = _ansatz_from_pieces(self.api, lit["spatial"], lit["momentum"], lit["angular"])
        rep = self.api.evaluate(ansatz, method="quadrature")
        return {k: getattr(rep, k) for k in self.KEYS}, rep.method

    def cold_commands(self, lit):
        return [["-c", self.COLD_SCRIPT, json.dumps(lit)]]

    @staticmethod
    def cold_result(results):
        code, out, err = results[0]
        if code != 0:
            raise RuntimeError(f"oracle process exited {code}: {err.strip()}")
        return json.loads(out), "quadrature"

    @staticmethod
    def same(warm, cold):
        return warm == cold

    def check(self, lit, result, oracle):
        values, method = result
        problems = []
        if method != "quadrature":
            problems.append(f"report labelled {method!r}, not quadrature")
        _compare(problems, "mass", values["mass"], 1.0, ORACLE_RTOL)
        if values["total_energy"] != values["kinetic"] + values["potential"]:
            problems.append("total_energy != kinetic + potential")
        own = ref.functionals(lit["spatial"], lit["momentum"], lit["angular"])
        for key in ("kinetic", "potential", "virial", "l32_norm"):
            _compare(problems, key, values[key], own[key], REF_RTOL, 1e-14)
        if oracle:
            ansatz = _ansatz_from_pieces(self.api, lit["spatial"], lit["momentum"], lit["angular"])
            closed = self.api.evaluate(ansatz)
            for key in ("kinetic", "virial", "l32_norm", "potential"):
                rel = ORACLE_POTENTIAL_RTOL if key == "potential" else ORACLE_RTOL
                _compare(problems, "closed-form " + key, getattr(closed, key), values[key],
                         rel, 1e-14)
        return problems


WORKLOADS = {w.name: w for w in (CertifyBatch, MollifyBatch, ScanGrid, OracleCheck)}
