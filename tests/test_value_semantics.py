"""Value semantics of the package's records and profiles.

The thirteen records are named tuples and the four profile types share one
immutable-value base; each keeps the repr, equality, hashing, immutability,
pickling and validation it had as a frozen dataclass.  The expected reprs
are the text those dataclasses printed.
"""

import math
import pickle

import pytest

from virial_forge.errors import ProfileError, VirialForgeError
from virial_forge.functionals import Certificate, FunctionalReport
from virial_forge.mollifier import MollifySpec
from virial_forge.profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    SeparableAnsatz,
    core_halo_eta,
    momentum_ball,
)
from virial_forge.quadrature import QuadResult
from virial_forge.scans import FitResult, FloorScanResult, ScalingScanResult, ScanGrid
from virial_forge.solvers import (
    CoreHaloParams,
    Family,
    MonotonicParams,
    RootBracket,
    UniformParams,
)

FIT = FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=9)


def report(method="closed-form"):
    return FunctionalReport(2.5, 1.0, 0.75, 1.25, -1.25, 0.0, -0.5, method, {"mass": 1e-14})


# name -> (make one instance, make one with one field changed, the dataclass repr)
CASES = {
    "Piece": (
        lambda: Piece.power(0.5, 2.0, 1.0, 2.0),
        lambda: Piece.power(0.5, 2.5, 1.0, 2.0),
        "Piece(kind='power', lo=1.0, hi=2.0, value=0.5, exponent=2.0, left=0.0, right=0.0)"),
    "PiecewiseProfile": (
        lambda: core_halo_eta(0.2, 1.0, 2.0, 0.25),
        lambda: core_halo_eta(0.2, 1.0, 2.0, 0.5),
        "PiecewiseProfile(pieces=(Piece(kind='constant', lo=0.0, hi=0.2, value=1.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=0.2, hi=1.0, value=0.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=1.0, hi=2.0, value=0.25, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=2.0, hi=inf, value=0.0, exponent=0.0, left=0.0, right=0.0)), domain_label='radial-position')"),
    "AngularProfile": (
        lambda: AngularProfile.cutoff(-0.5),
        lambda: AngularProfile.cutoff(-0.25),
        "AngularProfile(pieces=(Piece(kind='constant', lo=-1.0, hi=-0.5, value=1.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=-0.5, hi=1.0, value=0.0, exponent=0.0, left=0.0, right=0.0)))"),
    "SeparableAnsatz": (
        lambda: SeparableAnsatz(core_halo_eta(0.5, 1.0, 1.0, 0.0), momentum_ball(2.0),
                            AngularProfile.cutoff(1.0)),
        lambda: SeparableAnsatz(core_halo_eta(0.5, 1.0, 1.0, 0.0), momentum_ball(3.0),
                            AngularProfile.cutoff(1.0)),
        "SeparableAnsatz(spatial=PiecewiseProfile(pieces=(Piece(kind='constant', lo=0.0, hi=0.5, value=1.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=0.5, hi=1.0, value=0.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=1.0, hi=inf, value=0.0, exponent=0.0, left=0.0, right=0.0)), domain_label='radial-position'), momentum=PiecewiseProfile(pieces=(Piece(kind='constant', lo=0.0, hi=2.0, value=1.0, exponent=0.0, left=0.0, right=0.0), Piece(kind='constant', lo=2.0, hi=inf, value=0.0, exponent=0.0, left=0.0, right=0.0)), domain_label='radial-momentum'), angular=AngularProfile(pieces=(Piece(kind='constant', lo=-1.0, hi=1.0, value=1.0, exponent=0.0, left=0.0, right=0.0),)))"),
    "UniformParams": (
        lambda: UniformParams(r=1.5, p=2.0, a=-0.5),
        lambda: UniformParams(r=1.5, p=2.0, a=-0.25),
        'UniformParams(r=1.5, p=2.0, a=-0.5)'),
    "CoreHaloParams": (
        lambda: CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=0.25, a=-0.8),
        lambda: CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=0.5, a=-0.8),
        'CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=0.25, a=-0.8)'),
    "MonotonicParams": (
        lambda: MonotonicParams(r1=0.01, r2=0.1, r3=0.2, n=3.0, p=5.0, a=-0.9),
        lambda: MonotonicParams(r1=0.01, r2=0.1, r3=0.2, n=4.0, p=5.0, a=-0.9),
        'MonotonicParams(r1=0.01, r2=0.1, r3=0.2, n=3.0, p=5.0, a=-0.9)'),
    "RootBracket": (
        lambda: RootBracket(0.5, 2.0),
        lambda: RootBracket(0.5, 3.0),
        'RootBracket(lo=0.5, hi=2.0)'),
    "Family": (
        lambda: Family("uniform", UniformParams, "r", "spatial", len, abs),
        lambda: Family("uniform", UniformParams, "p", "spatial", len, abs),
        "Family(name='uniform', params=<class 'virial_forge.solvers.UniformParams'>, free='r', moves='spatial', spatial=<built-in function len>, solve=<built-in function abs>)"),
    "FunctionalReport": (
        lambda: report(),
        lambda: report(method="fixed-rule"),
        "FunctionalReport(norm_constant=2.5, mass=1.0, l32_norm=0.75, kinetic=1.25, potential=-1.25, total_energy=0.0, virial=-0.5, method='closed-form', residuals={'mass': 1e-14})"),
    "Certificate": (
        lambda: Certificate(report(), 0.0, 0.0, 0.5, 0.36, 1e-10, True),
        lambda: Certificate(report(), 0.0, 0.0, 0.5, 0.36, 1e-10, False),
        "Certificate(report=FunctionalReport(norm_constant=2.5, mass=1.0, l32_norm=0.75, kinetic=1.25, potential=-1.25, total_energy=0.0, virial=-0.5, method='closed-form', residuals={'mass': 1e-14}), energy_residual=0.0, virial_margin=0.0, norm_margin=0.5, critical_norm=0.36, energy_tol=1e-10, passed=True)"),
    "QuadResult": (
        lambda: QuadResult(1.0, 1e-14, 3),
        lambda: QuadResult(1.0, 1e-14, 4),
        'QuadResult(value=1.0, abs_error_estimate=1e-14, subdivisions=3)'),
    "MollifySpec": (
        lambda: MollifySpec(0.01),
        lambda: MollifySpec(0.02),
        'MollifySpec(delta=0.01)'),
    "ScanGrid": (
        lambda: ScanGrid((1, 10.0), (-0.5, 1)),
        lambda: ScanGrid((1, 10.0), (-0.5,)),
        'ScanGrid(P_values=(1.0, 10.0), a_values=(-0.5, 1.0))'),
    "FitResult": (
        lambda: FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=9),
        lambda: FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=8),
        'FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=9)'),
    "FloorScanResult": (
        lambda: FloorScanResult(-0.25, 10.0, -0.5, (-0.5, 1.0), ((10.0, 0.1, 2.0, -2.0, 0.0),),
                            (-0.25, 0.0), (0.5, 0.4)),
        lambda: FloorScanResult(-0.25, 10.0, -0.5, (-0.5, 1.0), ((10.0, 0.1, 2.0, -2.0, 0.0),),
                            (-0.25, 0.0), (0.5, 0.3)),
        'FloorScanResult(min_virial=-0.25, argmin_P=10.0, argmin_a=-0.5, a_values=(-0.5, 1.0), radial=((10.0, 0.1, 2.0, -2.0, 0.0),), virials=(-0.25, 0.0), l32_norms=(0.5, 0.4))'),
    "ScalingScanResult": (
        lambda: ScalingScanResult(FIT, FIT, ({"P": 100.0},), (2.0,)),
        lambda: ScalingScanResult(FIT, FIT, ({"P": 100.0},), ()),
        "ScalingScanResult(alpha_fit=FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=9), virial_fit=FitResult(slope=3.0, intercept=-1.5, max_residual=0.001, n_points=9), rows=({'P': 100.0},), failures=(2.0,))"),
}
PROFILES = ("Piece", "PiecewiseProfile", "AngularProfile", "SeparableAnsatz")
# Records holding a dict (residuals, scan rows) were unhashable as dataclasses too.
UNHASHABLE = ("FunctionalReport", "Certificate", "ScalingScanResult")


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_text(name):
    make, _, text = CASES[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hashing_go_by_fields(name):
    make, changed, _ = CASES[name]
    first, second = make(), make()
    assert first is not second and first == second and not first != second
    assert first != changed()
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_round_trip_compares_equal(name):
    value = CASES[name][0]()
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is type(value) and clone == value


@pytest.mark.parametrize("name", PROFILES)
def test_profile_replace_validates(name):
    value = CASES[name][0]()
    assert value._replace() == value
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


def test_replace_that_leaves_a_gap_raises():
    profile = core_halo_eta(0.2, 1.0, 2.0, 0.25)
    with pytest.raises(ProfileError, match="gap or overlap"):
        profile._replace(pieces=profile.pieces[:1] + profile.pieces[2:])
    with pytest.raises(ProfileError, match="gap or overlap"):
        AngularProfile.cutoff(-0.5)._replace(pieces=(Piece.constant(1.0, -1.0, -0.5),
                                                     Piece.constant(0.0, -0.25, 1.0)))
    with pytest.raises(ProfileError, match="empty piece interval"):
        Piece.constant(1.0, 0.0, 1.0)._replace(hi=0.0)
    with pytest.raises(ProfileError, match="unknown domain label"):
        profile._replace(domain_label="radial")


def test_records_validate_on_construction():
    with pytest.raises(ProfileError, match="half-width"):
        MollifySpec(-1.0)
    with pytest.raises(ProfileError, match="half-width"):
        MollifySpec(math.inf)
    with pytest.raises(VirialForgeError, match="non-empty"):
        ScanGrid((), (0.5,))
    with pytest.raises(VirialForgeError, match="non-empty"):
        ScanGrid((1.0,), ())
    assert ScanGrid([1, 2], [0]) == ((1.0, 2.0), (0.0,))


def test_a_report_never_shares_its_residuals():
    with pytest.raises(TypeError):
        FunctionalReport(2.5, 1.0, 0.75, 1.25, -1.25, 0.0, -0.5, "closed-form")
    assert report().residuals is not report().residuals


def test_records_are_tuples_and_profiles_are_not():
    # A record unpacks, indexes and equals the plain tuple of its values;
    # the profiles compare only with their own type.
    lo, hi = RootBracket(0.5, 2.0)
    assert (lo, hi) == (0.5, 2.0) == RootBracket(0.5, 2.0)
    assert UniformParams(1.5, 2.0, -0.5)[2] == -0.5
    assert Piece.constant(1.0, 0.0, 1.0) != ("constant", 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)
