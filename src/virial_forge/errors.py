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
    """The zero-energy quadratic has no positive root.

    Carries both roots of the quadratic (possibly empty) for diagnosis.
    """

    def __init__(self, message, roots=()):
        super().__init__(message)
        self.roots = tuple(roots)


class ThresholdUnreachableError(VirialForgeError):
    """No angular cutoff reaches virial -1/2 (spatial*momentum factor <= 1/2).

    Carries the offending factor value as ``factor``.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class RampOverlapError(VirialForgeError):
    """Mollification ramps would collide.

    ``pair`` is the stretch the offending ramp had to fit in: from the end
    of the ramp before it (or its piece's left edge) to the far edge of the
    piece after its breakpoint.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class GridExhaustedError(VirialForgeError):
    """A scan grid ended before the search condition was met."""


class ConfigError(VirialForgeError):
    """Invalid run configuration (bad flags, missing parameters, bad file)."""
