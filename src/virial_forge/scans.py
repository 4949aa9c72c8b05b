"""Parameter sweeps: the uniform-ball virial floor and large-P scaling fits.

Two facts get reproduced numerically here.  First, the zero-energy uniform
ball has virial 27 P (a - 1) / (160 KE(P)), which stays strictly above
-9/20 for every choice of parameters and only approaches that floor as
P -> inf, a -> -1.  Second, the core-halo family with radii (P^-2, P, P^2)
keeps a positive zero-energy halo level that decays like P^-23/2 while its
virial grows like -(1 - a) P^3, so zero-energy data reach arbitrarily
negative virial.

Scans run the closed-form pipeline for speed.  The floor scan keeps its
result as columns: each cutoff's angular moments are read once per scan,
R, KE, PE and E come once per P from ``functionals.radial_functionals`` of
that P's ball, and a grid point costs only its virial and L^{3/2} norm.
``floor_to_csv`` writes those columns, formatting each per-P cell once per
P and each a once per scan.  One grid point per scan (chosen by a
fixed-seed ``random.Random`` so output stays deterministic) is cross-checked
against the adaptive-quadrature oracle.

numpy is imported inside the functions that use it (grids and fits), so
importing this module does not load it; nothing here loads numpy.random.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import functionals, solvers
from .errors import GridExhaustedError, NoPositiveRootError, ProfileError, VirialForgeError
from .profiles import AngularProfile, check_cutoff, check_positive, norm_constant
from .solvers import CoreHaloParams, UniformParams, solve_corehalo_alpha

__all__ = [
    "ScanGrid",
    "FitResult",
    "FloorScanResult",
    "ScalingScanResult",
    "default_scaling_pvalues",
    "uniform_ball_floor",
    "asymptotic_scaling",
    "virial_unbounded_below",
    "loglog_fit",
    "CSV_COLUMNS",
    "format_float",
    "rows_to_csv",
    "floor_to_csv",
]

CSV_COLUMNS = ("family", "P", "a", "alpha", "R", "KE", "PE", "E", "V", "l32_norm")
# CSV column -> the FunctionalReport field it prints.
_REPORT_FIELDS = {"KE": "kinetic", "PE": "potential", "E": "total_energy", "V": "virial",
                  "l32_norm": "l32_norm"}

_CROSSCHECK_SEED = 20260809
_CROSSCHECK_RTOL = 1e-8
MIN_FIT_POINTS = 5  # the fewest points a log-log fit takes


class ScanGrid(namedtuple("ScanGrid", "P_values a_values")):
    """Cartesian grid of momentum cutoffs and angular cutoffs."""

    __slots__ = ()

    def __new__(cls, P_values, a_values):
        P_values = tuple(float(p) for p in P_values)
        a_values = tuple(float(a) for a in a_values)
        if not P_values or not a_values:
            raise VirialForgeError("scan grid must be non-empty")
        for p in P_values:
            check_positive(p, "momentum grid value", VirialForgeError)
        for a in a_values:
            check_cutoff(a, "angular grid value", VirialForgeError)
        return super().__new__(cls, P_values, a_values)


class FitResult(namedtuple("FitResult", "slope intercept max_residual n_points")):
    """Log-log least-squares power-law fit y ~ exp(intercept) * x**slope."""

    __slots__ = ()


class FloorScanResult(namedtuple("FloorScanResult", "min_virial argmin_P argmin_a a_values "
                                                  "radial virials l32_norms")):
    """A uniform-ball floor scan, kept as columns; the minimum is the first one.

    ``radial`` holds (P, R, KE, PE, E) per P; ``virials`` and ``l32_norms``
    one value per grid point in row order (P-major).  ``rows`` builds the
    CSV_COLUMNS dicts on each use.
    """

    __slots__ = ()

    def row(self, k):
        """The CSV_COLUMNS dict of grid point ``k`` in row order."""
        i, j = divmod(k, len(self.a_values))
        P, R, KE, PE, E = self.radial[i]
        return {"family": "uniform", "P": P, "a": self.a_values[j], "alpha": None, "R": R,
                "KE": KE, "PE": PE, "E": E, "V": self.virials[k], "l32_norm": self.l32_norms[k]}

    @property
    def rows(self):
        return tuple(map(self.row, range(len(self.virials))))


class ScalingScanResult(namedtuple("ScalingScanResult", "alpha_fit virial_fit rows failures")):
    """The two scaling fits, the solved rows, and the P values with no positive root."""

    __slots__ = ()


def default_scaling_pvalues(n=9):
    """Log-spaced momentum cutoffs over [1e2, 1e4] for the scaling fits."""
    import numpy as np

    return tuple(np.geomspace(1e2, 1e4, n))


def _row(params):
    """(scan row, ansatz) of solved family params; R is the outer support radius."""
    family = solvers.family_of(params)
    ansatz = family.ansatz(params)
    report = functionals.evaluate(ansatz)
    return {"family": family.name, "P": params.p, "a": params.a,
            "alpha": getattr(params, "alpha", None), "R": ansatz.spatial.support_radius,
            "KE": report.kinetic, "PE": report.potential, "E": report.total_energy,
            "V": report.virial, "l32_norm": report.l32_norm}, ansatz


def _scaling_params(P, a):
    """Zero-energy core-halo parameters with radii (P^-2, P, P^2)."""
    if not P >= 1.0:
        raise ProfileError(f"scaling family needs P >= 1 (radii P^-2, P, P^2), got P={P}")
    r1, r2, r3 = P**-2, P, P**2
    alpha = solve_corehalo_alpha(r1, r2, r3, P)
    return CoreHaloParams(r1=r1, r2=r2, r3=r3, p=P, alpha=alpha, a=a)


def _crosscheck_row(row, ansatz):
    """Closed-form row vs the quadrature oracle at one grid point."""
    oracle = functionals.evaluate(ansatz, method="quadrature")
    for key in ("KE", "PE", "V", "l32_norm"):
        ours, ref = row[key], getattr(oracle, _REPORT_FIELDS[key])
        scale = max(abs(ref), 1e-30)
        if abs(ours - ref) / scale > _CROSSCHECK_RTOL:
            raise VirialForgeError(
                f"closed-form/quadrature mismatch in {key}: {ours} vs {ref}"
            )


def uniform_ball_floor(grid):
    """Minimum uniform-ball virial over a grid (stays above -9/20).

    Every grid point is a zero-energy ball, so the scan shows the family
    cannot reach virial <= -1/2: the infimum -9/20 is approached only as
    P -> inf with a -> -1.
    """
    uniform = solvers.FAMILIES["uniform"]
    moments = [AngularProfile.cutoff(a).moments() for a in grid.a_values]
    radial, virials, l32_norms = [], [], []
    for P in grid.P_values:
        # The radial profiles depend on P alone; no cutoff of the ball is built.
        params = UniformParams(r=uniform.solve(p=P, a=1.0), p=P, a=1.0)
        rad = functionals.radial_functionals(uniform.factor(params, "spatial"),
                                             uniform.factor(params, "momentum"))
        radial.append((P, params.r, rad.kinetic, rad.potential, rad.total_energy))
        for m0, m1, m32 in moments:
            norm_constant(rad.scale, m0)  # raises, as ``evaluate`` would, where C is 0 or inf
            virials.append(rad.virial(m0, m1))
            l32_norms.append(rad.l32_norm(m0, m32))

    best = min(range(len(virials)), key=virials.__getitem__)
    n_a = len(grid.a_values)
    result = FloorScanResult(virials[best], grid.P_values[best // n_a], grid.a_values[best % n_a],
                             grid.a_values, tuple(radial), tuple(virials), tuple(l32_norms))
    probe = result.row(random.Random(_CROSSCHECK_SEED).randrange(len(virials)))
    _crosscheck_row(probe, solvers.uniform_ansatz(
        UniformParams(r=probe["R"], p=probe["P"], a=probe["a"])
    ))
    return result


def loglog_fit(xs, ys):
    """Least-squares line through (log x, log y); max residual in log y."""
    import numpy as np

    if len(xs) < MIN_FIT_POINTS:
        raise VirialForgeError(f"need at least {MIN_FIT_POINTS} points for a fit, got {len(xs)}")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.max(np.abs(ly - (slope * lx + intercept)))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(resid),
        n_points=len(xs),
    )


def asymptotic_scaling(P_values=None, a=-0.9):
    """Fit the halo-level decay and virial growth exponents at large P.

    Solves the zero-energy halo level for radii (P^-2, P, P^2) at each P,
    then fits log alpha and log(-V) against log P.  Expected slopes:
    -23/2 for the halo level and +3 for -V.  Before any solve, ProfileError
    rejects an ``a`` outside (-1, 1) and fewer than MIN_FIT_POINTS P values.
    """
    if P_values is None:
        P_values = default_scaling_pvalues()
    P_values = [float(P) for P in P_values]
    if not -1.0 < a < 1.0:
        raise ProfileError(f"scaling scan needs a in (-1, 1), got {a}")
    if len(P_values) < MIN_FIT_POINTS:
        raise ProfileError(f"scaling fit needs >= {MIN_FIT_POINTS} P values, got {len(P_values)}")

    rows, ansaetze, failures = [], [], []
    for P in P_values:
        try:
            row, ansatz = _row(_scaling_params(P, a))
        except NoPositiveRootError:
            failures.append(P)
            continue
        rows.append(row)
        ansaetze.append(ansatz)
    if len(rows) < MIN_FIT_POINTS:
        raise VirialForgeError(
            f"only {len(rows)} grid points solved; cannot fit (failures: {failures})"
        )

    ps = [r["P"] for r in rows]
    alpha_fit = loglog_fit(ps, [r["alpha"] for r in rows])
    virial_fit = loglog_fit(ps, [-r["V"] for r in rows])

    idx = random.Random(_CROSSCHECK_SEED + 1).randrange(len(rows))
    _crosscheck_row(rows[idx], ansaetze[idx])
    return ScalingScanResult(
        alpha_fit=alpha_fit,
        virial_fit=virial_fit,
        rows=tuple(rows),
        failures=tuple(failures),
    )


def virial_unbounded_below(threshold, a=-0.9, P_values=None):
    """Smallest grid P whose scaling-family virial drops below ``threshold``.

    The cubic growth of -V guarantees a witness for any negative threshold;
    raises GridExhaustedError if the supplied grid ends too early.
    """
    if threshold >= 0.0:
        raise VirialForgeError("threshold must be negative")
    if P_values is None:
        import numpy as np

        P_values = np.geomspace(1.5, 1e4, 40)
    for P in map(float, P_values):
        try:
            row, _ = _row(_scaling_params(P, a))
        except NoPositiveRootError:
            continue
        if row["V"] < threshold:
            return P, row["V"]
    raise GridExhaustedError(
        f"no grid point reached virial < {threshold}; enlarge the grid"
    )


format_float = functionals._format_float


def _write_columns(columns, stream):
    """Write the header and the rows of these cell columns, unquoted."""
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]
    stream.write("\n".join(lines) + "\n")


def rows_to_csv(rows, stream):
    """Write scan rows with the fixed column set.

    None renders empty, a string as itself and a float through
    ``format_float``.  No cell holds a comma, quote or newline, so no cell
    is quoted.
    """
    def cell(val):
        return "" if val is None else val if isinstance(val, str) else format_float(val)

    _write_columns([[cell(row.get(col)) for row in rows] for col in CSV_COLUMNS], stream)


def floor_to_csv(result, stream):
    """``rows_to_csv(result.rows, stream)`` from the floor scan's columns.

    P, R, KE, PE and E are formatted once per P, ``a`` once per scan, and
    only V and l32_norm once per cell.
    """
    n_a, n = len(result.a_values), len(result.virials)
    per_p = zip(*([format_float(x) for x in radial] for radial in result.radial))
    P, R, KE, PE, E = ([cell for cell in col for _ in range(n_a)] for col in per_p)
    a = [format_float(a) for a in result.a_values] * len(result.radial)
    _write_columns([["uniform"] * n, P, a, [""] * n, R, KE, PE, E,
                    [format_float(v) for v in result.virials],
                    [format_float(x) for x in result.l32_norms]], stream)
