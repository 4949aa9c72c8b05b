"""Zero-energy, negative-virial initial data for attractive relativistic
Vlasov-Poisson, with certification of the finite-time blow-up hypotheses."""

from .errors import (
    BracketError,
    ConfigError,
    DegenerateFactorError,
    DivergentMomentError,
    GridExhaustedError,
    NoPositiveRootError,
    NoRootError,
    ProfileError,
    QuadratureBudgetError,
    RampOverlapError,
    ThresholdUnreachableError,
    VirialForgeError,
)
from .functionals import (
    CRITICAL_L32_NORM,
    Certificate,
    FunctionalReport,
    check_criteria,
    evaluate,
    evaluate_cutoffs,
    kinetic_energy_ball,
    potential_energy_profile,
    spatial_momentum_factor,
    total_energy,
    virial,
)
from .mollifier import (
    MollifySpec,
    default_delta,
    functional_drift,
    mollify,
    mollify_profile,
    rebalance,
    seam_smoothness,
)
from .profiles import (
    AngularProfile,
    Piece,
    PiecewiseProfile,
    SeparableAnsatz,
    core_halo_eta,
    momentum_ball,
    monotonic_eta,
    uniform_eta,
)
from .quadrature import (
    QuadResult,
    integrate,
    nested_mass_quad,
)
from .scans import (
    FitResult,
    ScanGrid,
    asymptotic_scaling,
    loglog_fit,
    uniform_ball_floor,
    virial_unbounded_below,
)
from .solvers import (
    CoreHaloParams,
    MonotonicParams,
    RootBracket,
    UniformParams,
    core_halo_ansatz,
    monotonic_ansatz,
    solve_corehalo_alpha,
    solve_monotonic_P,
    solve_threshold_a,
    solve_uniform_R,
    uniform_ansatz,
)

__version__ = "0.1.0"
