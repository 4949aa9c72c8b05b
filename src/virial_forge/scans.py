"""Parameter sweeps: the uniform-ball virial floor and large-P scaling fits.

Two facts get reproduced numerically here.  First, the zero-energy uniform
ball has virial 27 P (a - 1) / (160 KE(P)), which stays strictly above
-9/20 for every choice of parameters and only approaches that floor as
P -> inf, a -> -1.  Second, the core-halo family with radii (P^-2, P, P^2)
keeps a positive zero-energy halo level that decays like P^-23/2 while its
virial grows like -(1 - a) P^3, so zero-energy data reach arbitrarily
negative virial.

Scans run the closed-form pipeline for speed.  The floor grid builds each
P's radial profiles and each a's cutoff once and shares them, so their
memoized moments are computed once per profile, not per grid point.  One
grid point per scan (chosen by a fixed-seed RNG so output stays
deterministic) is cross-checked against the adaptive-quadrature oracle.

numpy is imported inside the functions that use it (grids, the crosscheck
RNG, the fits), so importing this module does not load it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import functionals, solvers
from .errors import GridExhaustedError, NoPositiveRootError, ProfileError, VirialForgeError
from .profiles import AngularProfile, SeparableAnsatz, check_positive
from .solvers import CoreHaloParams, UniformParams, solve_corehalo_alpha

__all__ = [
    "ScanGrid",
    "FitResult",
    "FloorScanResult",
    "ScalingScanResult",
    "default_floor_grid",
    "default_scaling_pvalues",
    "uniform_ball_floor",
    "asymptotic_scaling",
    "virial_unbounded_below",
    "loglog_fit",
    "CSV_COLUMNS",
    "format_float",
    "rows_to_csv",
]

CSV_COLUMNS = ("family", "P", "a", "alpha", "R", "KE", "PE", "E", "V", "l32_norm")
# CSV column -> the FunctionalReport field it prints.
_REPORT_FIELDS = {"KE": "kinetic", "PE": "potential", "E": "total_energy", "V": "virial",
                  "l32_norm": "l32_norm"}

_CROSSCHECK_SEED = 20260809
_CROSSCHECK_RTOL = 1e-8


@dataclass(frozen=True)
class ScanGrid:
    """Cartesian grid of momentum cutoffs and angular cutoffs."""

    P_values: tuple
    a_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "P_values", tuple(float(p) for p in self.P_values))
        object.__setattr__(self, "a_values", tuple(float(a) for a in self.a_values))
        if not self.P_values or not self.a_values:
            raise VirialForgeError("scan grid must be non-empty")
        for p in self.P_values:
            check_positive(p, "momentum grid value", VirialForgeError)
        if any(not (-1.0 < a <= 1.0) for a in self.a_values):
            raise VirialForgeError("angular grid values must lie in (-1, 1]")


@dataclass(frozen=True)
class FitResult:
    """Log-log least-squares power-law fit y ~ exp(intercept) * x**slope."""

    slope: float
    intercept: float
    max_residual: float
    n_points: int


@dataclass(frozen=True)
class FloorScanResult:
    min_virial: float
    argmin_P: float
    argmin_a: float
    rows: tuple


@dataclass(frozen=True)
class ScalingScanResult:
    alpha_fit: FitResult
    virial_fit: FitResult
    rows: tuple
    failures: tuple  # P values whose zero-energy solve had no positive root


def default_floor_grid(n_p=200, n_a=40):
    """P log-spaced over [1e-2, 1e4], a linear over [-1 + 1e-6, 0.9]."""
    import numpy as np

    return ScanGrid(
        P_values=tuple(np.geomspace(1e-2, 1e4, n_p)),
        a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, n_a)),
    )


def default_scaling_pvalues(n=9):
    """Log-spaced momentum cutoffs over [1e2, 1e4] for the scaling fits."""
    import numpy as np

    return tuple(np.geomspace(1e2, 1e4, n))


def _row(params):
    """(scan row, ansatz) of solved family params."""
    family = solvers.family_of(params)
    ansatz = family.ansatz(params)
    return _report_row(family, params, ansatz), ansatz


def _report_row(family, params, ansatz):
    """Scan row of ``ansatz`` built from ``params``; R is the outer support radius."""
    report = functionals.evaluate(ansatz)
    row = {"family": family.name, "P": params.p, "a": params.a,
           "alpha": getattr(params, "alpha", None), "R": ansatz.spatial.support_radius}
    for col, name in _REPORT_FIELDS.items():
        row[col] = getattr(report, name)
    return row


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


def uniform_ball_floor(grid=None):
    """Minimum uniform-ball virial over a grid (stays above -9/20).

    Every grid point is a zero-energy ball, so the scan shows the family
    cannot reach virial <= -1/2: the infimum -9/20 is approached only as
    P -> inf with a -> -1.
    """
    import numpy as np

    if grid is None:
        grid = default_floor_grid()

    uniform = solvers.FAMILIES["uniform"]
    cutoffs = [AngularProfile.cutoff(a) for a in grid.a_values]
    rows = []
    for P in grid.P_values:
        # The radial profiles depend on P alone; the ball's own cutoff goes unused.
        R = uniform.solve(p=P, a=1.0)
        ball = uniform.ansatz(UniformParams(r=R, p=P, a=1.0))
        rows += [_report_row(uniform, UniformParams(r=R, p=P, a=a),
                             SeparableAnsatz(ball.spatial, ball.momentum, angular))
                 for a, angular in zip(grid.a_values, cutoffs)]

    best = min(rows, key=lambda r: r["V"])
    rng = np.random.default_rng(_CROSSCHECK_SEED)
    probe = rows[int(rng.integers(len(rows)))]
    _crosscheck_row(probe, solvers.uniform_ansatz(
        UniformParams(r=probe["R"], p=probe["P"], a=probe["a"])
    ))
    return FloorScanResult(
        min_virial=best["V"], argmin_P=best["P"], argmin_a=best["a"], rows=tuple(rows)
    )


def loglog_fit(xs, ys):
    """Least-squares line through (log x, log y); max residual in log y."""
    import numpy as np

    if len(xs) < 5:
        raise VirialForgeError(f"need at least 5 points for a fit, got {len(xs)}")
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
    -23/2 for the halo level and +3 for -V.
    """
    import numpy as np

    if P_values is None:
        P_values = default_scaling_pvalues()
    P_values = [float(P) for P in P_values]
    if not (-1.0 < a < 1.0):
        raise VirialForgeError("scaling scan needs a in (-1, 1)")

    rows, ansaetze, failures = [], [], []
    for P in P_values:
        try:
            row, ansatz = _row(_scaling_params(P, a))
        except NoPositiveRootError:
            failures.append(P)
            continue
        rows.append(row)
        ansaetze.append(ansatz)
    if len(rows) < 5:
        raise VirialForgeError(
            f"only {len(rows)} grid points solved; cannot fit (failures: {failures})"
        )

    ps = [r["P"] for r in rows]
    alpha_fit = loglog_fit(ps, [r["alpha"] for r in rows])
    virial_fit = loglog_fit(ps, [-r["V"] for r in rows])

    rng = np.random.default_rng(_CROSSCHECK_SEED + 1)
    idx = int(rng.integers(len(rows)))
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


def format_float(x):
    """17-significant-digit decimal (round-trip exact for doubles)."""
    return f"{x:.17g}"


def rows_to_csv(rows, stream):
    """Write scan rows with the fixed column set; None renders empty."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        out = []
        for col in CSV_COLUMNS:
            val = row.get(col)
            if val is None:
                out.append("")
            elif isinstance(val, str):
                out.append(val)
            else:
                out.append(format_float(val))
        writer.writerow(out)
