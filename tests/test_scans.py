"""Floor sweep, scaling fits, witness search, CSV determinism."""

import csv
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virial_forge import functionals, profiles, scans
from virial_forge.errors import DegenerateFactorError, GridExhaustedError, VirialForgeError
from virial_forge.functionals import evaluate, kinetic_energy_ball
from virial_forge.functionals import FunctionalReport
from virial_forge.profiles import AngularProfile, Piece
from virial_forge.scans import (
    CSV_COLUMNS,
    ScanGrid,
    asymptotic_scaling,
    default_scaling_pvalues,
    floor_to_csv,
    format_float,
    loglog_fit,
    rows_to_csv,
    uniform_ball_floor,
    virial_unbounded_below,
)
from virial_forge.solvers import UniformParams, solve_uniform_R, uniform_ansatz

GOLDEN = Path(__file__).parent / "golden"

SMALL_GRID = ScanGrid(
    P_values=tuple(np.geomspace(1e-2, 1e4, 50)),
    a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, 8)),
)


class TestFloor:
    def test_floor_respected(self):
        result = uniform_ball_floor(SMALL_GRID)
        assert result.min_virial > -9.0 / 20.0
        assert len(result.rows) == 50 * 8

    def test_refining_does_not_violate(self):
        finer = ScanGrid(
            P_values=tuple(np.geomspace(1e-2, 1e4, 100)),
            a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, 16)),
        )
        assert uniform_ball_floor(finer).min_virial > -9.0 / 20.0

    def test_floor_approached_at_corner(self):
        p, a = 1e4, -1.0 + 1e-6
        v = 27.0 * p * (a - 1.0) / (160.0 * kinetic_energy_ball(p))
        assert v > -0.45
        assert abs(v - (-0.45)) / 0.45 < 0.005

    def test_normalization_is_checked_where_evaluate_checks_it(self):
        # At P = 1e-102, 1/C = scale * m0 leaves the float range only where
        # m0 = 1 + a is tiny.  The floor checks C at the smallest and largest
        # m0 alone, and fails with evaluate's error at that point, here the
        # last cutoff; without it the grid scans.
        P, a_values = 1e-102, (0.9, 0.0, -0.999999)
        message = "^normalization constant is inf$"
        with pytest.raises(DegenerateFactorError, match=message):
            uniform_ball_floor(ScanGrid((P,), a_values))
        with pytest.raises(DegenerateFactorError, match=message):
            evaluate(uniform_ansatz(UniformParams(r=solve_uniform_R(P), p=P, a=a_values[-1])))
        assert len(uniform_ball_floor(ScanGrid((P,), a_values[:2])).virials) == 2

    def test_rows_are_zero_energy(self):
        result = uniform_ball_floor(SMALL_GRID)
        for row in result.rows[:: len(result.rows) // 17]:
            assert abs(row["E"]) <= 1e-11 * max(1.0, row["KE"])

    def test_deterministic(self):
        first = uniform_ball_floor(SMALL_GRID)
        second = uniform_ball_floor(SMALL_GRID)
        assert first == second

    def test_grid_validation(self):
        with pytest.raises(VirialForgeError):
            ScanGrid(P_values=(), a_values=(0.0,))
        with pytest.raises(VirialForgeError):
            ScanGrid(P_values=(1.0,), a_values=(-1.0,))
        with pytest.raises(VirialForgeError):
            ScanGrid(P_values=(-1.0,), a_values=(0.0,))


class TestScaling:
    def test_fitted_exponents(self):
        result = asymptotic_scaling()
        assert result.alpha_fit.slope == pytest.approx(-11.5, abs=0.1)
        assert result.virial_fit.slope == pytest.approx(3.0, abs=0.05)
        assert result.failures == ()
        assert result.alpha_fit.n_points == len(default_scaling_pvalues())

    def test_fit_stable_under_truncation(self):
        ps = default_scaling_pvalues(12)
        full = asymptotic_scaling(ps)
        upper = asymptotic_scaling(ps[len(ps) // 2 :])
        assert abs(full.alpha_fit.slope - upper.alpha_fit.slope) < 0.05
        assert abs(full.virial_fit.slope - upper.virial_fit.slope) < 0.05

    def test_virial_scales_exactly_with_angle(self):
        ps = default_scaling_pvalues(6)
        runs = {a: asymptotic_scaling(ps, a=a) for a in (-0.5, -0.9)}
        for row_a, row_b in zip(runs[-0.5].rows, runs[-0.9].rows):
            ratio = row_b["V"] / row_a["V"]
            assert ratio == pytest.approx(1.9 / 1.5, rel=1e-10)

    def test_too_few_points_rejected(self):
        with pytest.raises(VirialForgeError):
            loglog_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(VirialForgeError):
            asymptotic_scaling(default_scaling_pvalues(4))


class TestWitness:
    def test_deep_threshold(self):
        p, v = virial_unbounded_below(-10.0)
        assert v < -10.0

    def test_shallow_threshold_small_p(self):
        p, v = virial_unbounded_below(-0.5)
        assert v < -0.5
        assert p < 10.0

    def test_non_negative_threshold_rejected(self):
        with pytest.raises(VirialForgeError):
            virial_unbounded_below(0.0)

    def test_grid_exhaustion(self):
        with pytest.raises(GridExhaustedError):
            virial_unbounded_below(-1e3, P_values=(2.0, 3.0))


class TestCsv:
    def test_format_and_determinism(self):
        result = uniform_ball_floor(SMALL_GRID)
        buf1, buf2 = io.StringIO(), io.StringIO()
        rows_to_csv(result.rows, buf1)
        rows_to_csv(uniform_ball_floor(SMALL_GRID).rows, buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.rows)
        first = lines[1].split(",")
        assert first[0] == "uniform"
        assert first[3] == ""  # alpha column empty for the uniform family
        assert float(first[1]) == result.rows[0]["P"]

    @staticmethod
    def golden_rows(name):
        lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
        header, *body = csv.reader(line for line in lines if not line.startswith("#"))
        assert tuple(header) == CSV_COLUMNS
        rows = [{col: cell if col == "family" else float(cell) if cell else None
                 for col, cell in zip(header, cells)} for cells in body]
        return rows, "".join(line + "\n" for line in lines if not line.startswith("#"))

    @pytest.mark.parametrize("name", ["scan.csv", "asymptotics.csv"])
    def test_matches_csv_writer_on_golden_rows(self, name):
        # rows_to_csv joins cells with commas; csv.writer would quote any cell
        # that needed it, so equal output pins that none does.
        rows, golden_body = self.golden_rows(name)
        ours, ref = io.StringIO(), io.StringIO()
        rows_to_csv(rows, ours)
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[col] is None else row[col] if col == "family"
                             else format_float(row[col]) for col in CSV_COLUMNS])
        assert ours.getvalue() == ref.getvalue() == golden_body

    @staticmethod
    def reference_csv(rows):
        """The CSV text with one format call per cell, memoizing nothing."""

        def cell(val):
            if val is None:
                return ""
            return val if isinstance(val, str) else format_float(val)

        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(cell(row.get(col)) for col in CSV_COLUMNS) for row in rows]
        return "\n".join(lines) + "\n"

    def test_edge_cells_match_per_cell_formatting(self):
        third, third_again = 1.0 / 3.0, float(repr(1.0 / 3.0))
        assert third == third_again and third is not third_again
        nan, other_nan = float("nan"), float("nan")
        rows = [
            {"family": "uniform", "P": 0.0, "a": -0.0, "alpha": None, "R": third,
             "KE": 2, "PE": math.inf, "E": nan, "V": 0, "l32_norm": "x"},
            {"family": "core-halo", "P": -0.0, "a": 0.0, "alpha": 0.0, "R": third_again,
             "KE": 2.0, "PE": -math.inf, "E": other_nan, "V": -0.0, "l32_norm": 0.5},
            {"family": "uniform", "P": 0.0, "a": -0.0, "alpha": -0.0, "R": -third,
             "KE": 0, "PE": math.inf, "E": nan, "V": 0.0, "l32_norm": "x"},
            {"family": "", "P": -0.0},
        ]
        buf = io.StringIO()
        rows_to_csv(rows, buf)
        assert buf.getvalue() == self.reference_csv(rows)
        assert buf.getvalue().splitlines()[1:3] == [
            "uniform,0,-0,,0.33333333333333331,2,inf,nan,0,x",
            "core-halo,-0,0,0,0.33333333333333331,2,-inf,nan,-0,0.5",
        ]

    def test_empty_rows_write_the_header(self):
        buf = io.StringIO()
        rows_to_csv([], buf)
        assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("n_p, n_a", [(3, 7), (25, 40)])
    def test_formats_each_distinct_value_once(self, monkeypatch, n_p, n_a):
        # Counts calls and times nothing.  Per P the floor scan repeats P, R,
        # KE, PE and E; per cutoff it repeats a; only V and l32_norm vary
        # with both, so rendering needs at most 2 p a + 5 p + a format calls,
        # not one per float cell (8 p a).
        result = uniform_ball_floor(ScanGrid(P_values=tuple(np.geomspace(1e-2, 1e4, n_p)),
                                             a_values=tuple(np.linspace(-0.99, 1.0, n_a))))
        calls = [0]

        def counting(x):
            calls[0] += 1
            return format_float(x)

        monkeypatch.setattr(scans, "format_float", counting)
        buf = io.StringIO()
        floor_to_csv(result, buf)
        assert 0 < calls[0] <= 2 * n_p * n_a + 5 * n_p + n_a
        assert buf.getvalue() == self.reference_csv(result.rows)

    def test_float_format_round_trips(self):
        for x in (1.0 / 3.0, 7.816488155904346e-4, -0.5007330147533631):
            assert float(format_float(x)) == x


SHARING_GRIDS = {
    "series-branch": ScanGrid(P_values=tuple(np.geomspace(1e-4, 0.049, 6)),
                              a_values=(-1.0 + 1e-6, -0.3, 0.5, 1.0)),
    "wide-P": ScanGrid(P_values=tuple(np.geomspace(1e-2, 1e9, 12)),
                       a_values=tuple(np.linspace(-1.0 + 1e-6, 0.9, 5))),
    "single-point": ScanGrid(P_values=(2.5,), a_values=(-0.7,)),
}


class TestSharedProfiles:
    @pytest.mark.parametrize("grid", SHARING_GRIDS.values(), ids=SHARING_GRIDS.keys())
    def test_rows_match_per_point_pipeline(self, grid):
        rows = uniform_ball_floor(grid).rows
        expected = [scans._row(UniformParams(r=solve_uniform_R(P), p=P, a=a))[0]
                    for P in grid.P_values for a in grid.a_values]
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert repr(got) == repr(want)

    def test_construction_scales_with_axis_lengths(self, monkeypatch):
        # Profiles are built once per P and once per a, not once per grid point.
        count = [0]
        real = Piece.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(Piece, "__init__", counting)

        def pieces_built(n_p, n_a):
            grid = ScanGrid(P_values=tuple(np.geomspace(1e-2, 1e4, n_p)),
                            a_values=tuple(np.linspace(-0.9, 0.9, n_a)))
            count[0] = 0
            uniform_ball_floor(grid)
            return count[0]

        base = pieces_built(10, 10)
        assert pieces_built(10, 40) - base == 30 * len(AngularProfile.cutoff(0.0).pieces)
        # What ten more P values cost does not depend on the number of cutoffs.
        assert pieces_built(20, 10) - base == pieces_built(20, 40) - pieces_built(10, 40)

    def test_radial_functionals_run_once_per_P(self, monkeypatch):
        # Counts calls and times nothing: a p x a grid evaluates the a-free
        # functionals (here the exact kinetic weight) p times, not p * a; it
        # sums each moment of a P's two radial profiles once, whichever
        # formula reads it first, and each of a cutoff's three once.  The
        # crosscheck adds its own cutoff and the exact m2 of its two radial
        # profiles, which the oracle's C reads.
        calls = Counter()
        kinetic, piece_sum = functionals._Exact.kinetic, profiles._sum

        def counting_kinetic(source, phi):
            calls["kinetic"] += 1
            return kinetic(source, phi)

        def counting_sum(profile, key):
            calls[key] += 1
            return piece_sum(profile, key)

        monkeypatch.setattr(functionals._Exact, "kinetic", counting_kinetic)
        monkeypatch.setattr(profiles, "_sum", counting_sum)
        for n_p, n_a in ((3, 7), (5, 11)):
            calls.clear()
            uniform_ball_floor(ScanGrid(P_values=tuple(np.geomspace(1e-2, 1e4, n_p)),
                                        a_values=tuple(np.linspace(-0.9, 0.9, n_a))))
            radial = {key: 2 * n_p for key in (("moment", 2), ("moment", 3),
                                                ("power_moment", 1.5, 2))}
            radial[("moment", 2)] += 2
            angular = {key: n_a + 1 for key in (("moment", 0), ("moment", 1),
                                                ("power_moment", 1.5, 0))}
            assert calls == {"kinetic": n_p, **radial, **angular}


P_VALUES = st.floats(-4.0, 9.0).map(lambda x: 10.0**x)
A_VALUES = st.one_of(st.just(1.0), st.floats(-1.0, 1.0, exclude_min=True))


def _axis(values):
    """A grid axis of 1 to 6 values, drawn from a pool of up to 4, so values repeat."""
    return st.lists(values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))


class TestColumnarFloor:
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(_axis(P_VALUES), _axis(A_VALUES))
    def test_columns_match_the_per_point_pipeline(self, p_values, a_values):
        grid = ScanGrid(P_values=tuple(p_values), a_values=tuple(a_values))
        result = uniform_ball_floor(grid)
        expected = [scans._row(UniformParams(r=solve_uniform_R(P), p=P, a=a))[0]
                    for P in grid.P_values for a in grid.a_values]
        assert [repr(row) for row in result.rows] == [repr(row) for row in expected]

        ours, ref = io.StringIO(), io.StringIO()
        floor_to_csv(result, ours)
        rows_to_csv(result.rows, ref)
        assert ours.getvalue() == ref.getvalue()

        virials = [row["V"] for row in expected]
        first = expected[virials.index(min(virials))]
        assert (result.min_virial, result.argmin_P, result.argmin_a) == (
            first["V"], first["P"], first["a"])

    def test_no_report_per_cell_and_one_moments_call_per_cutoff(self, monkeypatch):
        # Counts calls and times nothing.  The crosscheck's oracle builds the
        # one FunctionalReport and the one moments() call of its own cutoff.
        reports, moments = [0], [0]
        real_new, real_moments = FunctionalReport.__new__, AngularProfile.moments

        def counting_new(cls, *args, **kwargs):
            reports[0] += 1
            return real_new(cls, *args, **kwargs)

        def counting_moments(self):
            moments[0] += 1
            return real_moments(self)

        monkeypatch.setattr(FunctionalReport, "__new__", counting_new)
        monkeypatch.setattr(AngularProfile, "moments", counting_moments)
        for n_p, n_a in ((3, 7), (5, 11)):
            reports[0] = moments[0] = 0
            uniform_ball_floor(ScanGrid(P_values=tuple(np.geomspace(1e-2, 1e4, n_p)),
                                        a_values=tuple(np.linspace(-0.9, 0.9, n_a))))
            assert reports[0] == 1
            assert moments[0] == n_a + 1

    def test_nearly_degenerate_cutoff_still_warns(self):
        grid = ScanGrid(P_values=(0.5, 20.0), a_values=(-1.0 + 1e-9, 0.5))
        with pytest.warns(RuntimeWarning, match="nearly degenerate"):
            result = uniform_ball_floor(grid)
        assert result.argmin_a == -1.0 + 1e-9
