"""Zero-energy, negative-virial initial data for attractive relativistic
Vlasov-Poisson, with certification of the finite-time blow-up hypotheses.

Importing the package loads none of its modules.  Each name below, and each
submodule, is imported on first access through the module ``__getattr__``
(PEP 562) and then bound on the package, as an eager import would bind it.
"""

import importlib

# Defining module -> the public names the package re-exports from it.
_EXPORTS = {
    "errors": (
        "BracketError", "ConfigError", "DegenerateFactorError", "DivergentMomentError",
        "GridExhaustedError", "NoPositiveRootError", "NoRootError", "ProfileError",
        "QuadratureBudgetError", "RampOverlapError", "ThresholdUnreachableError",
        "VirialForgeError",
    ),
    "functionals": (
        "CRITICAL_L32_NORM", "Certificate", "FunctionalReport", "check_criteria", "evaluate",
        "kinetic_energy_ball", "potential_energy_profile", "spatial_momentum_factor",
        "total_energy", "virial",
    ),
    "mollifier": (
        "MollifySpec", "default_delta", "functional_drift", "mollify", "mollify_profile",
        "rebalance", "seam_smoothness",
    ),
    "profiles": (
        "AngularProfile", "Piece", "PiecewiseProfile", "SeparableAnsatz", "core_halo_eta",
        "momentum_ball", "monotonic_eta", "uniform_eta",
    ),
    "quadrature": ("QuadResult", "integrate", "nested_mass_quad"),
    "scans": (
        "FitResult", "ScanGrid", "asymptotic_scaling", "loglog_fit", "uniform_ball_floor",
        "virial_unbounded_below",
    ),
    "solvers": (
        "CoreHaloParams", "MonotonicParams", "RootBracket", "UniformParams",
        "core_halo_ansatz", "monotonic_ansatz", "solve_corehalo_alpha", "solve_monotonic_P",
        "solve_threshold_a", "solve_uniform_R", "uniform_ansatz",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
