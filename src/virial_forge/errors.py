"""Exception types raised by the library."""


class VirialForgeError(Exception):
    """Base class for all library errors."""


class ProfileError(VirialForgeError):
    """Invalid piecewise profile construction (coverage, signs, intervals)."""


class DivergentMomentError(ProfileError):
    """A requested moment integral is not finite."""


class DegenerateFactorError(VirialForgeError):
    """A factor integral needed for normalization is zero or infinite."""


class QuadratureBudgetError(VirialForgeError):
    """Adaptive integration failed to converge within the subdivision budget."""


class BracketError(VirialForgeError):
    """Could not bracket a root (no sign change within the expansion cap)."""


class NoRootError(VirialForgeError):
    """The scalar equation has no root in the admissible parameter range."""


class NoPositiveRootError(NoRootError):
    """The zero-energy quadratic has no positive root."""


class ThresholdUnreachableError(VirialForgeError):
    """No angular cutoff reaches virial -1/2 (spatial*momentum factor <= 1/2)."""


class RampOverlapError(ProfileError):
    """Mollification ramps would collide (the ramp half-width is too large)."""


class GridExhaustedError(VirialForgeError):
    """A scan grid ended before the search condition was met."""


class ConfigError(VirialForgeError):
    """Invalid run configuration (bad flags, missing parameters, bad file)."""
