"""The adaptive-quadrature oracle: its integrals, integrands and error estimates.

Everything the oracle computes lives here.  ``_Adaptive``, the moment
source of ``evaluate(method="quadrature")``, integrates each moment, the
kinetic integral and the nested potential once per evaluation and
propagates the integrator's error estimates into ``residuals``; only the
nested integrand's inner mass is exact, each piece's ``partial_moment``.

Backed by QUADPACK's adaptive Gauss-Kronrod rules: QAGP, which accepts
interior breakpoints so subdivision never straddles a supplied
discontinuity, and QAGS where there are none.  ``_quad`` calls scipy's
binding of the two routines, the extension ``scipy.integrate._quadpack``,
directly, because ``integrate`` has already sorted and clipped the
breakpoints that ``scipy.integrate.quad`` would sort again.  Improper
upper limits are never integrated: compact support is enforced upstream,
so all integrals here run over finite intervals.  Each integrand calls the
profile's memoized pointwise evaluator, not its range-checked
``__call__``: QUADPACK stays in [lo, hi].

scipy is imported on the first integration, not with the package: the
closed-form route for step data never integrates, so certifying it does
not pay for loading scipy.  ``_load_quadpack`` then loads only the
QUADPACK extension, from scipy's ``integrate`` directory under its real
name: importing it by name would run ``scipy.integrate/__init__``, which
loads scipy.special, optimize, linalg and sparse, most of a cold
``scan``'s time, for nothing the oracle calls.  ``sys.modules`` holds the
one copy, shared with ``import scipy.integrate`` in either order.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import namedtuple
from itertools import accumulate

from .errors import QuadratureBudgetError
from .functionals import _QUAD, _MomentSource

__all__ = [
    "QuadResult",
    "integrate",
    "profile_moment_quad",
    "angular_moment_quad",
    "nested_mass_quad",
]

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10
DEFAULT_BUDGET = 10**6

# Subdivision limits are escalated lazily; allocating the full budget's
# workspace up front would dominate the cost of easy integrals.
_LIMIT_LADDER = (200, 5000)


# QUADPACK's reason for each nonzero ier of QAGS and QAGP, in its own words.
_IER_REASONS = {
    1: "maximum number of subdivisions allowed has been achieved",
    2: "roundoff error is detected, which prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the integration interval",
    4: "the algorithm does not converge: roundoff error is detected in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
    6: "the input is invalid",
}

_QUADPACK = "scipy.integrate._quadpack"


def _load_quadpack():
    """Load scipy's QUADPACK extension alone and register it in ``sys.modules``."""
    import scipy

    where = os.path.join(scipy.__path__[0], "integrate")
    spec = importlib.machinery.PathFinder.find_spec(_QUADPACK, [where])
    if spec is None:
        raise ImportError(f"no {_QUADPACK} extension in {where}", name=_QUADPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_QUADPACK] = module
    return module


def _quad(f, lo, hi, points, epsabs, epsrel, limit):
    """QAGP over sorted interior ``points``, or QAGS if there are none.

    Returns ``(value, err, last, ier)``: the estimate, its absolute error,
    the number of subintervals used and QUADPACK's error flag (0 on success).
    """
    _quadpack = sys.modules.get(_QUADPACK) or _load_quadpack()
    if points:
        # QAGPE's points array holds the breakpoints and two slots of workspace.
        value, err, info, ier = _quadpack._qagpe(
            f, lo, hi, [*points, 0.0, 0.0], (), 1, epsabs, epsrel, limit)
    else:
        value, err, info, ier = _quadpack._qagse(f, lo, hi, (), 1, epsabs, epsrel, limit)
    return value, err, int(info["last"]), ier


class QuadResult(namedtuple("QuadResult", "value abs_error_estimate subdivisions")):
    """Value, error estimate, and subdivision count of one integration."""

    __slots__ = ()


def integrate(f, lo, hi, breakpoints=(), abs_tol=DEFAULT_ABS_TOL,
              rel_tol=DEFAULT_REL_TOL, budget=DEFAULT_BUDGET):
    """Adaptively integrate f over [lo, hi] honoring interior breakpoints.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on [lo, hi] away from the breakpoints.
    lo, hi : float
        Finite integration limits with lo <= hi.
    breakpoints : sequence of float
        Points the subdivision must not straddle; entries outside (lo, hi)
        are ignored.
    abs_tol, rel_tol : float
        Requested absolute/relative accuracy (both must be positive).
    budget : int
        Cap on the number of subintervals before giving up.

    Returns
    -------
    QuadResult

    Raises
    ------
    QuadratureBudgetError
        If the requested accuracy is not reached within the budget.
    """
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise ValueError("tolerances must be positive")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if lo > hi:
        raise ValueError("need lo <= hi")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0)

    pts = sorted({float(b) for b in breakpoints if lo < b < hi})
    for limit in (*_LIMIT_LADDER, budget):
        limit = min(limit, budget)
        value, err, last, ier = _quad(
            f, lo, hi, points=pts, epsabs=abs_tol, epsrel=rel_tol, limit=limit)
        if ier == 0:
            return QuadResult(value, err, last)
        if last < limit or limit >= budget:
            # Stopped short of the limit (roundoff, divergence): a larger
            # limit repeats the same subdivisions and cannot help.
            break
    raise QuadratureBudgetError(
        f"integration failed within budget {budget}: {_IER_REASONS[ier]}"
    )


def _over_support(profile, f):
    """``integrate(f)`` from 0 to the profile's support radius, split at its breakpoints."""
    upper = profile.support_radius
    if upper == 0.0:
        return QuadResult(0.0, 0.0, 0)
    return integrate(f, 0.0, upper, breakpoints=profile.breakpoints)


def profile_moment_quad(profile, k, beta=1.0):
    """Numeric int g(r)**beta * r^k dr over the profile's support."""
    g = profile._value
    return _over_support(profile, lambda r: g(r) ** beta * r**k)


def _kinetic_quad(phi):
    """Numeric int sqrt(1+p^2) h(p) p^2 dp over the momentum profile's support."""
    h = phi._value
    return _over_support(phi, lambda p: math.sqrt(1.0 + p * p) * h(p) * p**2)


def angular_moment_quad(angular, k=0, beta=1.0):
    """Numeric int L(x)**beta * x^k dx over [-1, 1]."""
    g = angular._value
    return integrate(lambda x: g(x) ** beta * x**k, -1.0, 1.0, breakpoints=angular.breakpoints)


def _nested_integrand(profile):
    """q -> g(q) q int_0^q g(s) s^2 ds on [0, inf), the integrand of the nested potential:
    the piece's value (one bisect per point) times q times the mass before the piece
    plus its ``partial_moment(2, q)``."""
    pieces = profile.pieces
    starts = [p.lo for p in pieces]
    prefix = list(accumulate((p.partial_moment(2, p.hi) for p in pieces[:-1]), initial=0.0))

    def integrand(q):
        i = bisect.bisect_right(starts, q) - 1
        piece = pieces[i]
        return piece.value_at(q) * q * (prefix[i] + piece.partial_moment(2, q))

    return integrand


def nested_mass_quad(eta):
    """int g(q) q (int_0^q g(s) s^2 ds) dq: exact inner mass, adaptive outer integral."""
    return _over_support(eta, _nested_integrand(eta))


class _Adaptive(_MomentSource):
    """Every integral by adaptive quadrature, kept by profile identity so it runs once."""

    def __init__(self):
        self.results = {}

    def _result(self, integral, profile, *args):
        key = (integral, id(profile), *args)
        if key not in self.results:
            self.results[key] = integral(profile, *args)
        return self.results[key]

    def moment(self, profile, k, *beta):
        return self._result(profile_moment_quad, profile, k, *beta).value

    def angular(self, angular, exact):
        return tuple(self._result(angular_moment_quad, angular, k, beta).value
                     for k, beta in ((0, 1.0), (1, 1.0), (0, 1.5)))

    def kinetic(self, phi):
        return self._result(_kinetic_quad, phi).value, self.moment(phi, 2)

    def nested(self, eta):
        return self._result(nested_mass_quad, eta).value

    def label(self, eta, phi, angular):
        return _QUAD

    def residuals(self, eta, phi, angular):
        """Crude relative error estimates propagated from the integrator."""

        def rel(integral, *args):
            result = self._result(integral, *args)
            return abs(result.abs_error_estimate / result.value) if result.value else 0.0

        moment, angular_moment = profile_moment_quad, angular_moment_quad
        base = rel(moment, eta, 2) + rel(moment, phi, 2) + rel(angular_moment, angular, 0, 1.0)
        return {
            "mass": base,
            "kinetic": base + rel(_kinetic_quad, phi),
            "potential": base + rel(nested_mass_quad, eta),
            "virial": base + rel(moment, eta, 3) + rel(moment, phi, 3)
            + rel(angular_moment, angular, 1, 1.0),
            "l32_norm": base + rel(moment, eta, 2, 1.5) + rel(moment, phi, 2, 1.5)
            + rel(angular_moment, angular, 0, 1.5),
        }
