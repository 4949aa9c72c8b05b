"""Piecewise radial and angular profiles with exact moment integrals.

The phase-space densities built by this package factor into three
one-dimensional profiles: a radial spatial factor, a radial momentum factor,
and an angular factor in the cosine of the position-momentum angle.  Each is a
non-negative piecewise function assembled from constant plateaus, power-law
decays anchored at the left endpoint of their interval, and C^1 cubic
smoothstep ramps.  A plateau is the power law of exponent 0, so one closed
form gives every integer moment of both; a ramp's integer moments and nested
self term are sums of nonnegative Bernstein terms (Farouki and Rajan, CAGD 4,
1987).  Only this module integrates a piece: its (power) moments, kinetic
weight and nested potential term, which ``functionals`` and ``solvers`` sum.
Fractional powers of ramps, a power law's self term and the kinetic weight
of any piece but a plateau from 0 take the GL14 rule stored here; nothing
integrates adaptively.

All profile objects are immutable after construction and safe to share
between threads.  Derived quantities (the moments here, the exact route's
kinetic and nested sums in ``functionals``) are memoized per instance,
and so is the pointwise evaluator that ``__call__`` and the adaptive
oracle's integrands call.  A valid piece is finite on finite support, so
its true moments are finite: a moment sum that leaves the float range
raises DegenerateFactorError naming the factor's domain and the moment.
"""

from __future__ import annotations

import bisect
import math
import warnings
from operator import methodcaller

from .errors import DegenerateFactorError, ProfileError

__all__ = [
    "Piece",
    "PiecewiseProfile",
    "AngularProfile",
    "SeparableAnsatz",
    "uniform_eta",
    "momentum_ball",
    "core_halo_eta",
    "monotonic_eta",
    "check_radii",
    "check_positive",
    "check_cutoff",
]

CONSTANT = "constant"
POWER = "power"
RAMP = "ramp"

# Warn (but accept) when an angular profile integrates to less than this.
NEAR_DEGENERATE_ANGULAR = 1e-8

# The Gauss-Legendre rule GL14 on [-1, 1] as (node, weight) pairs, correctly
# rounded.  For f analytic inside the Bernstein ellipse E_rho with |f| <= M
# there, it errs by at most (64/15) M rho^-28 / (rho^2 - 1) (Trefethen,
# Approximation Theory and Approximation Practice, Thm 19.3); the panels
# chosen here keep rho >= 3.7, where that is below a double's rounding.
_GL14 = ((0.10805494870734367, 0.2152638534631578),
         (0.31911236892788974, 0.2051984637212956),
         (0.5152486363581541, 0.18553839747793782),
         (0.6872929048116855, 0.15720316715819355),
         (0.827201315069765, 0.12151857068790319),
         (0.9284348836635735, 0.08015808715976021),
         (0.9862838086968123, 0.03511946033175186))
GL14 = tuple((-x, w) for x, w in reversed(_GL14)) + _GL14
_GL14_UNIT = tuple((1.0 + x, w) for x, w in GL14)  # a panel [a, b]'s nodes: a + (b - a)/2 * u


def gauss_legendre(f, lo, hi):
    """The GL14 sum of f over [lo, hi]."""
    half = 0.5 * (hi - lo)
    return half * sum(w * f(lo + half * (1.0 + x)) for x, w in GL14)


def fixed_rule(f, edges):
    """Composite GL14 sum of f over the panels between consecutive ``edges``."""
    return math.fsum(gauss_legendre(f, a, b) for a, b in zip(edges, edges[1:]))


def panel_edges(lo, hi, unit=1.0):
    """Edges from lo to hi, each panel no wider than max(unit, its left end).

    unit = 1 keeps each panel a panel width from the branch points +-i of
    sqrt(1 + r^2); unit = 0 (ratio-2 panels) keeps it that far from r = 0.
    """
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] + max(unit, edges[-1])))
    return edges


def smoothstep(t):
    """C^1 cubic smoothstep: 0 -> 1 on [0, 1] with zero slope at both ends."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * (3.0 - 2.0 * t)


def power_integral(exponent, lo, hi):
    """Exact integral of r**exponent over [lo, hi].

    The logarithmic case is detected by exact comparison with -1, not by
    numerical proximity.  Small integer exponents use factored forms of the
    difference of powers, which stay accurate when hi is close to lo (thin
    shells) or when lo and hi nearly cancel (angular intervals straddling
    zero); other exponents on positive intervals go through expm1 of
    u = log1p((hi - lo) / lo): the log of the rounded ratio hi / lo would
    err by ~eps lo / (hi - lo) on a thin interval, the relative width does not.
    """
    if exponent == -1.0:
        return math.log1p((hi - lo) / lo)
    if exponent == 0.0:
        return hi - lo
    if exponent == 1.0:
        return 0.5 * (hi - lo) * (hi + lo)
    if exponent == 2.0:
        return (hi - lo) * (hi * hi + hi * lo + lo * lo) / 3.0
    if exponent == 3.0:
        return 0.25 * (hi - lo) * (hi + lo) * (hi * hi + lo * lo)
    if exponent == 4.0:
        return (hi - lo) * (
            hi**4 + hi**3 * lo + hi**2 * lo**2 + hi * lo**3 + lo**4
        ) / 5.0
    e1 = exponent + 1.0
    if lo == 0.0:
        return hi**e1 / e1
    if lo > 0.0:
        return lo**e1 * math.expm1(e1 * math.log1p((hi - lo) / lo)) / e1
    return (hi**e1 - lo**e1) / e1


def momentum_energy_moment(p_max):
    """Exact int_0^P sqrt(1+p^2) p^2 dp.

    Uses the antiderivative (P(1+2P^2)sqrt(1+P^2) - asinh P)/8 from P = 1
    on.  Below, where that expression cancels, one GL14 panel over [0, P]
    takes over: the integrand's branch points +-i are far enough away for
    ~4e-16 relative.
    Raises OverflowError where the moment exceeds the float range (P above
    ~9.7e76, where the intermediate 2 P^4 overflows).
    """
    check_positive(p_max, "momentum cutoff", ValueError, zero_ok=True)
    if p_max < 1.0:
        return gauss_legendre(lambda p: p * p * math.sqrt(1.0 + p * p), 0.0, p_max)
    s = math.sqrt(1.0 + p_max * p_max)
    moment = (p_max * (1.0 + 2.0 * p_max * p_max) * s - math.asinh(p_max)) / 8.0
    if not math.isfinite(moment):
        raise OverflowError(f"momentum energy moment overflows at P={p_max!r}")
    return moment


def plateau_self_nested(lo, hi):
    """Exact int_lo^hi q (q^3 - lo^3) / 3 dq, a unit plateau's nested self term.

    Positive terms in w = hi - lo, so a thin shell's O(w^2) keeps its digits.
    """
    w = hi - lo
    return w * (7.5 * lo**3 * w + 10.0 * lo * lo * w * w + 5.0 * lo * w**3 + w**4) / 5.0 / 3.0


def power_self_nested(n, lo, hi):
    """int_lo^hi q^(1-n) int_lo^q s^(2-n) ds dq, the self term of a power law (lo/r)**n.

    q = lo e^s gives lo^(5-2n) int_0^u e^((2-n)s) expm1((3-n)s)/(3-n) ds,
    u = log1p((hi - lo) / lo) (the quotient is s at n = 3), which cancels
    nothing on a thin piece or near n = 3.  The integrand is entire, its
    exponential rates between 2 - n and 5 - 2n, and largest at s = u where
    5 - 2n > 0, else near s = 0.  GL14 panels 8/rate wide at that end,
    doubling away from it, keep the sum within ~4e-15 of mpmath for n in
    [0.5, 6] and w/lo in [1e-12, 1e4], and within ~eps |5 - 2n| u beyond.
    lo^(5-2n) is lo^e times lo to the rounding error of e = fl(5 - 2n), an
    exact float sum: lo^e alone errs by up to ~eps |e log lo| / 2.
    """
    k, u, e = 3.0 - n, math.log1p((hi - lo) / lo), 5.0 - 2.0 * n
    rate = max(abs(2.0 - n), abs(e))
    edges = [t / rate for t in panel_edges(0.0, rate * u, 8.0)[:-1]] + [u]
    if n < 2.5:
        edges = [u - s for s in reversed(edges)]
    return lo**e * lo ** math.fsum((5.0, -2.0 * n, -e)) * fixed_rule(
        lambda s: math.exp((2.0 - n) * s) * (math.expm1(k * s) / k if k else s), edges)


# A ramp has Bernstein coefficients (left, left, right, right) and r^k has lo^(k-j) hi^j, so
# the weights (alpha_j, beta_j) of its moment of order k sum int_0^1 B^3_i B^k_j dt =
# C(3,i) C(k,j) / C(k+3,i+j) / (k+4) over i = 0, 1 and over i = 2, 3: no cancellation at lo >= 0.
_BERNSTEIN = {0: ((1 / 2, 1 / 2),),
              1: ((7 / 20, 3 / 20), (3 / 20, 7 / 20)),
              2: ((4 / 15, 1 / 15), (1 / 6, 1 / 6), (1 / 15, 4 / 15)),
              3: ((3 / 14, 1 / 28), (11 / 70, 13 / 140), (13 / 140, 11 / 70), (1 / 28, 3 / 14))}

# Weights of (left^2, left right, right^2) at lo^3, lo^2 hi, lo hi^2, hi^3 in
# int_0^1 v q int_0^t v q^2 ds dt, v = left + (right - left)(3t^2 - 2t^3), q = lo + (hi - lo) t.
_RAMP_SELF = ((29 / 550, 631 / 15400, 97 / 15400),
              (1997 / 39600, 8273 / 69300, 8369 / 277200),
              (5029 / 277200, 4663 / 69300, 1897 / 39600),
              (57 / 15400, 1033 / 46200, 67 / 1650))


def ramp_self_nested(left, right, lo, hi):
    """A ramp's nested self term over (hi - lo)^2 from ``_RAMP_SELF``: no cancellation."""
    ll, lr, rr = left * left, left * right, right * right
    return math.fsum((a * ll + b * lr + c * rr) * x for (a, b, c), x
                     in zip(_RAMP_SELF, (lo**3, lo * lo * hi, lo * hi * hi, hi**3)))


_setattr = object.__setattr__


class _Value:
    """An immutable value: repr, equality and hashing by the fields in ``_fields``.

    A subclass names its fields in ``_fields``; its ``__init__`` validates
    the arguments and stores each field with ``_setattr``.  ``_replace`` and
    unpickling call that ``__init__`` again, so every instance is validated
    and starts with empty memos.
    """

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, validated by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Piece(_Value):
    """One segment of a piecewise profile on the interval [lo, hi).

    ``kind`` selects the functional form:

    * ``constant`` -- the value ``value`` everywhere on the segment;
    * ``power``    -- ``value * (lo / r)**exponent``, anchored at the left
      endpoint (so the piece takes the value ``value`` at ``lo``);
    * ``ramp``     -- C^1 cubic smoothstep from ``left`` at ``lo`` to
      ``right`` at ``hi``.

    A constant piece is the power law ``value * (lo / r)**0``: its exponent
    must stay 0, and the closed forms below serve both kinds (``0.0**0.0`` is
    1.0, so a plateau from lo = 0 needs no case of its own).  Values are
    non-negative on the whole interval by construction.  Only a constant zero
    piece may extend to +inf (the compact-support tail).
    """

    _fields = ("kind", "lo", "hi", "value", "exponent", "left", "right")

    def __init__(self, kind, lo, hi, value=0.0, exponent=0.0, left=0.0, right=0.0):
        if kind not in (CONSTANT, POWER, RAMP):
            raise ProfileError(f"unknown piece kind {kind!r}")
        if not (lo < hi):
            raise ProfileError(f"empty piece interval [{lo}, {hi})")
        if not math.isfinite(lo):
            raise ProfileError("piece lower endpoint must be finite")
        if math.isinf(hi) and not (kind == CONSTANT and value == 0.0):
            raise ProfileError("only an identically-zero constant piece may reach +inf")
        if kind == CONSTANT:
            if value < 0.0 or not math.isfinite(value):
                raise ProfileError("constant piece value must be finite and >= 0")
            if exponent != 0.0:
                raise ProfileError(f"constant piece exponent must be 0, got {exponent}")
        elif kind == POWER:
            if lo <= 0.0:
                raise ProfileError("power-law piece requires lo > 0")
            if value < 0.0 or not math.isfinite(value):
                raise ProfileError("power-law prefactor must be finite and >= 0")
            if not math.isfinite(exponent):
                raise ProfileError("power-law exponent must be finite")
        else:
            if min(left, right) < 0.0:
                raise ProfileError("ramp endpoint values must be >= 0")
            if not (math.isfinite(left) and math.isfinite(right)):
                raise ProfileError("ramp endpoint values must be finite")
        # One call per field: a loop over _fields builds a piece ~25% slower, and one
        # dict stored as __dict__ drops CPython's inline values, slowing every read.
        _setattr(self, "kind", kind)
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "value", value)
        _setattr(self, "exponent", exponent)
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        if kind == RAMP:
            _setattr(self, "_terms", {})

    @staticmethod
    def constant(value, lo, hi):
        return Piece(CONSTANT, float(lo), float(hi), float(value))

    @staticmethod
    def power(value, exponent, lo, hi):
        return Piece(POWER, float(lo), float(hi), value=float(value), exponent=float(exponent))

    @staticmethod
    def ramp(left, right, lo, hi):
        return Piece(RAMP, float(lo), float(hi), left=float(left), right=float(right))

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def is_zero(self):
        if self.kind == RAMP:
            return self.left == 0.0 and self.right == 0.0
        return self.value == 0.0

    def value_at(self, r):
        """Value of the piece at a point of [lo, hi] (closure included)."""
        if self.kind == CONSTANT:
            return self.value
        if self.kind == POWER:
            return self.value * (self.lo / r) ** self.exponent
        t = (r - self.lo) / (self.hi - self.lo)
        return self.left + (self.right - self.left) * smoothstep(t)

    def left_value(self):
        """Limit of the piece value at lo (from inside)."""
        return self.left if self.kind == RAMP else self.value

    def right_value(self):
        """Limit of the piece value at hi (from inside)."""
        return self.right if self.kind == RAMP else self.value_at(self.hi)

    def _ramp_terms(self, k):
        """(c, deg) pairs with int_lo^r value(s) s^k ds = sum c u**deg / deg, u = r - lo.

        For a ramp only.  Its value is the polynomial left + d (3u^2/w^2 -
        2u^3/w^3) in u, with coefficients a_j; expanding s^k = (lo + u)^k
        gives c = a_j C(k, m) lo^(k-m) and deg = j + m + 1 for every nonzero
        a_j and m = 0..k.  Computed once per order k and kept on the piece.
        c is formed left to right and each term as c * u**deg / deg, summed in
        table order, so the value rounds exactly as the term-by-term sum.
        """
        if k not in self._terms:
            w = self.hi - self.lo
            d = self.right - self.left
            coeffs = (self.left, 0.0, 3.0 * d / w**2, -2.0 * d / w**3)
            binomial = [(math.comb(k, m), self.lo ** (k - m), m + 1) for m in range(k + 1)]
            self._terms[k] = [(aj * b * lo_power, j + deg) for j, aj in enumerate(coeffs)
                              if aj != 0.0 for b, lo_power, deg in binomial]
        return self._terms[k]

    def partial_moment(self, k, r):
        """Exact int_lo^r value(s) * s^k ds, for lo <= r <= hi."""
        if self.kind == RAMP:
            u = r - self.lo
            total = 0.0
            for c, deg in self._ramp_terms(k):
                total += c * u**deg / deg
            return total
        if self.value == 0.0 or r == self.lo:
            return 0.0
        pref = self.value * self.lo**self.exponent
        return pref * power_integral(k - self.exponent, self.lo, r)

    def moment(self, k):
        """Exact int value(r) * r^k dr over the whole piece; a ramp's, for k <= 3,
        (hi - lo) sum_j (alpha_j left + beta_j right) lo^(k-j) hi^j by ``_BERNSTEIN``."""
        if self.kind != RAMP or k not in _BERNSTEIN:
            return self.partial_moment(k, self.hi)  # 0 on a zero piece, the tail included
        lo, hi, left, right = self.lo, self.hi, self.left, self.right
        total = 0.0
        for j, (a, b) in enumerate(_BERNSTEIN[k]):
            total += (a * left + b * right) * lo ** (k - j) * hi**j
        return (hi - lo) * total

    def ramp_rule(self, edges, power=None):
        """int f(value(r), r) dr over a ramp by GL14 on ``edges`` of v in [0, 1], in one loop.

        f is value**beta * r**k for ``power`` = (beta, k), else value r^2 sqrt(1 + r^2).
        v runs from the ramp's smaller end: value = small + D v^2 (3 - 2v), r = lo + w v
        (or hi - w v), so no digit is lost to r - lo on a ramp narrow against its radius.
        """
        small, big = sorted((self.left, self.right))
        w, d = self.hi - self.lo, big - small
        start, step = (self.lo, w) if self.left <= self.right else (self.hi, -w)
        beta, k = power or (None, None)
        sqrt, panels = math.sqrt, []
        for a, b in zip(edges, edges[1:]):
            half, terms = 0.5 * (b - a), []
            for u, weight in _GL14_UNIT:
                v = a + half * u
                value, r = small + d * (v * v * (3.0 - 2.0 * v)), start + step * v
                terms.append(weight * (value * r * r * sqrt(1.0 + r * r) if beta is None
                                       else value**beta * r**k))
            panels.append(half * sum(terms))
        return w * math.fsum(panels)

    def power_moment(self, beta, k):
        """int value(r)**beta * r^k dr over the piece.

        Closed form for constant and power-law pieces; a ramp takes
        ``ramp_rule``.  A one-sided ramp's power D^beta v^(2 beta) (3 - 2v)^beta
        is, at the L^{3/2} norm's beta = 3/2, a polynomial times a power that
        branches half a ramp outside: one panel.  A two-sided ramp's power
        branches near v = +-i sqrt(small/3D): dyadic panels toward the small
        end, the first no wider than sqrt(small/D)/2, stay clear of it.
        A one-sided ramp with 2 beta not a whole number would put a branch
        point on the rule's interval, so it raises ValueError.
        """
        if self.is_zero:
            return 0.0
        if self.kind != RAMP:
            pref = self.value**beta * self.lo ** (beta * self.exponent)
            return pref * power_integral(k - beta * self.exponent, self.lo, self.hi)
        small, big = sorted((self.left, self.right))
        if small == 0.0 and (2.0 * beta) % 1.0:
            raise ValueError(f"power {beta} of a ramp down to 0: 2 * beta must be whole")
        first = 1.0
        if 0.0 < small < big:
            tau = 0.5 * math.sqrt(small) / math.sqrt(big - small)  # small / (big - small) may be 0
            first = min(first, 2.0 ** math.floor(math.log2(tau)))
        return self.ramp_rule([0.0, *panel_edges(first, 1.0, 0.0)], (beta, k))

    def kinetic_weight(self):
        """int sqrt(1+p^2) value(p) p^2 dp over the piece, a momentum piece.

        A plateau from 0 takes ``momentum_energy_moment``; every other piece the
        GL14 rule (on a thin shell a difference of antiderivatives would cancel),
        on ``panel_edges``: ratio 2 for a power law, else max(1, left end) wide.
        """
        if self.is_zero:
            return 0.0
        if self.kind == CONSTANT and self.lo == 0.0:
            return self.value * momentum_energy_moment(self.hi)
        edges = panel_edges(self.lo, self.hi, 0.0 if self.kind == POWER else 1.0)
        if self.kind != RAMP:
            return fixed_rule(lambda p: self.value_at(p) * p * p * math.sqrt(1.0 + p * p),
                              edges)
        # The edges in the ramp rule's coordinate, which runs from the smaller end.
        small_end = self.lo if self.left <= self.right else self.hi
        w = self.hi - self.lo
        return self.ramp_rule(sorted(abs(p - small_end) / w for p in edges))

    def nested(self, enclosed):
        """int value(q) q (enclosed + int_lo^q value(s) s^2 ds) dq over a nonzero piece,
        ``enclosed`` the mass int g s^2 before it: ``enclosed`` times the first moment
        plus the self term (``plateau_self_nested``, ``power_self_nested`` or ``ramp_self_nested``)."""
        lo, hi = self.lo, self.hi
        if self.kind == RAMP:
            return enclosed * self.moment(1) + (hi - lo) ** 2 * ramp_self_nested(
                self.left, self.right, lo, hi)
        n = self.exponent
        pref = self.value * lo**n
        lead = enclosed * power_integral(1.0 - n, lo, hi)
        inner = plateau_self_nested(lo, hi) if n == 0.0 else power_self_nested(n, lo, hi)
        return pref * (lead + pref * inner)


def _check_coverage(pieces, start, end):
    if not pieces:
        raise ProfileError("profile needs at least one piece")
    if pieces[0].lo != start:
        raise ProfileError(f"pieces must start at {start}, got {pieces[0].lo}")
    for a, b in zip(pieces, pieces[1:]):
        if a.hi != b.lo:
            raise ProfileError(f"gap or overlap between pieces at {a.hi} vs {b.lo}")
    if pieces[-1].hi != end:
        raise ProfileError(f"pieces must end at {end}, got {pieces[-1].hi}")


def _evaluator(profile):
    """The profile's value at a point of its domain: right-continuous, closed at the end."""
    starts = [p.lo for p in profile.pieces]
    value_at = [p.value_at for p in profile.pieces]
    end, end_value = profile.pieces[-1].hi, profile.pieces[-1].right_value()

    def value(r):
        if r == end:
            return end_value
        return value_at[bisect.bisect_right(starts, r) - 1](r)

    return value


def _live(profile):
    return [p for p in profile.pieces if not p.is_zero]


def _moment_name(key):
    what = "moment of order {}" if key[0] == "moment" else "power moment ({}, {})"
    return what.format(*key[1:])


def _sum(profile, key):
    """Sum over the nonzero pieces: key ("moment", k) or ("power_moment", beta, k)."""
    try:
        total = math.fsum(map(methodcaller(*key), profile.memo("live", _live)))
        if not math.isfinite(total):  # a product overflowed: a true moment is finite
            raise OverflowError(total)
    except OverflowError as exc:
        name = getattr(profile, "domain_label", "angular")
        raise DegenerateFactorError(
            f"{name} {_moment_name(key)} overflows the float range") from exc
    return total


class _PieceSet(_Value):
    """Shared evaluation/moment machinery over an ordered piece tuple."""

    def memo(self, key, compute):
        """``compute(self)``, computed on first use of ``key`` and kept on the profile."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    @property
    def _value(self):
        """The pointwise evaluator, built once: no range check, so callers keep to the domain."""
        return self.memo("value", _evaluator)

    @property
    def breakpoints(self):
        """Interior piece boundaries (finite)."""
        return tuple(p.lo for p in self.pieces[1:])

    @property
    def has_ramp(self):
        return any(p.kind == RAMP for p in self.pieces)

    def _read(self, key):
        """``_sum(self, key)``, memoized as ``memo`` does; a sum that raises keeps nothing.

        Not ``memo`` with arguments passed on: packing them on every read of
        a fresh profile slowed the floor scan by ~2%.
        """
        cache = self._cache
        if key not in cache:
            cache[key] = _sum(self, key)
        return cache[key]

    def moment(self, k):
        """Exact int g(r) r^k dr over the whole domain, memoized."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return self._read(("moment", k))

    def power_moment(self, beta, k):
        """Exact/deterministic int g(r)**beta r^k dr, memoized."""
        if beta <= 0.0:
            raise ValueError("power must be > 0")
        return self._read(("power_moment", beta, k))


class PiecewiseProfile(_PieceSet):
    """Non-negative piecewise function on [0, inf).

    Pieces cover [0, inf) without gap or overlap; the final piece is the
    identically-zero tail, so every constructible profile has compact
    support and all moments up to order 3 are finite.

    ``domain_label`` records which radial variable the profile lives on
    ("radial-position" or "radial-momentum").
    """

    _fields = ("pieces", "domain_label")

    def __init__(self, pieces, domain_label="radial-position"):
        pieces = tuple(pieces)
        _check_coverage(pieces, 0.0, math.inf)
        if domain_label not in ("radial-position", "radial-momentum"):
            raise ProfileError(f"unknown domain label {domain_label!r}")
        _setattr(self, "pieces", pieces)
        _setattr(self, "domain_label", domain_label)
        _setattr(self, "_cache", {})

    @classmethod
    def from_segments(cls, segments, domain_label="radial-position"):
        """Build a profile from finite segments, appending the zero tail."""
        segments = [s for s in segments if not s.is_zero or math.isfinite(s.hi)]
        if not segments:
            return cls((Piece.constant(0.0, 0.0, math.inf),), domain_label)
        tail_lo = segments[-1].hi
        if math.isfinite(tail_lo):
            segments = segments + [Piece.constant(0.0, tail_lo, math.inf)]
        return cls(tuple(segments), domain_label)

    def __call__(self, r):
        """Evaluate at r >= 0; right-continuous at breakpoints."""
        if not r >= 0.0:
            raise ValueError("radial argument must be >= 0")
        return self._value(r)

    @property
    def support_radius(self):
        """Largest radius below which the profile can be nonzero."""
        for p in reversed(self.pieces):
            if not p.is_zero:
                return p.hi
        return 0.0

    @property
    def smallest_width(self):
        """Smallest finite piece width (mollification feature size)."""
        widths = [p.width for p in self.pieces if math.isfinite(p.hi)]
        if not widths:
            raise ProfileError("profile has no finite piece")
        return min(widths)

    def dilate(self, lam):
        """Profile r -> g(r / lam): support scales by lam, values unchanged."""
        check_positive(lam, "dilation factor", ValueError)
        return self._replace(pieces=[p._replace(lo=lam * p.lo, hi=lam * p.hi)
                                     for p in self.pieces])


class AngularProfile(_PieceSet):
    """Non-negative piecewise function of x = cos(angle) on [-1, 1].

    The canonical case is the sharp cutoff ``chi_[-1, a]`` selecting momenta
    whose angle with the position vector has cosine at most ``a`` (inward
    for a < 0).  Mollified cutoffs carry ramp pieces; power-law pieces are
    not meaningful on this domain and are rejected.
    """

    _fields = ("pieces",)

    def __init__(self, pieces):
        pieces = tuple(pieces)
        _check_coverage(pieces, -1.0, 1.0)
        if any(p.kind == POWER for p in pieces):
            raise ProfileError("angular profiles take constant or ramp pieces only")
        _setattr(self, "pieces", pieces)
        _setattr(self, "_cache", {})

    @classmethod
    def cutoff(cls, a):
        """Sharp cutoff chi_[-1, a] for a in (-1, 1]."""
        a = float(a)
        check_cutoff(a, "cutoff parameter")
        if a == 1.0:
            return cls((Piece.constant(1.0, -1.0, 1.0),))
        return cls((Piece.constant(1.0, -1.0, a), Piece.constant(0.0, a, 1.0)))

    def __call__(self, x):
        if not (-1.0 <= x <= 1.0):
            raise ValueError("angular argument must lie in [-1, 1]")
        return self._value(x)

    @property
    def smallest_width(self):
        return min(p.width for p in self.pieces)

    def moments(self):
        """(m0, m1, m32) = (int L dx, int x L dx, int L^{3/2} dx), exact.

        Raises DegenerateFactorError when m0 = 0 (normalization undefined);
        warns when m0 is positive but tiny.
        """
        m0 = self.moment(0)
        if m0 <= 0.0:
            raise DegenerateFactorError("angular profile integrates to zero")
        moments = m0, self.moment(1), self.power_moment(1.5, 0)
        if m0 < NEAR_DEGENERATE_ANGULAR:
            warnings.warn(
                f"angular profile nearly degenerate (integral {m0:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
        return moments


class SeparableAnsatz(_Value):
    """Phase-space density C * spatial(|q|) * momentum(|p|) * angular(cos).

    The normalization constant is derived so the total mass is 1.  Instances
    are immutable value objects.
    """

    _fields = ("spatial", "momentum", "angular")

    def __init__(self, spatial, momentum, angular):
        _setattr(self, "spatial", spatial)
        _setattr(self, "momentum", momentum)
        _setattr(self, "angular", angular)

    @property
    def norm_constant(self):
        """C with 1/C = 8 pi^2 * ||spatial r^2|| * ||momentum p^2|| * int L."""
        return norm_constant(radial_scale(self.spatial, self.momentum), self.angular.moments()[0])


def check_factor(value, name):
    """``value``, unless it is not finite and positive (DegenerateFactorError)."""
    if value <= 0.0 or not math.isfinite(value):
        raise DegenerateFactorError(f"{name} factor integral is {value}")
    return value


def radial_scale(spatial, momentum):
    """8 pi^2 * ||spatial r^2|| * ||momentum p^2||: 1/C without its angular factor."""
    m2q = check_factor(spatial.moment(2), "spatial")
    return 8.0 * math.pi**2 * m2q * check_factor(momentum.moment(2), "momentum")


def norm_constant(scale, m0):
    """C = 1 / (scale * m0) for ``scale`` from ``radial_scale`` and m0 = int L: unit mass."""
    scale *= m0  # may underflow to 0 or overflow to inf
    c = 1.0 / scale if scale > 0.0 else math.inf
    if not 0.0 < c < math.inf:
        raise DegenerateFactorError(f"normalization constant is {c}")
    return c


def uniform_eta(radius):
    """Indicator of the ball of the given radius (uniform spatial profile)."""
    check_positive(radius, "ball radius")
    return PiecewiseProfile.from_segments([Piece.constant(1.0, 0.0, radius)])


def momentum_ball(p_max):
    """Indicator of the momentum ball |p| <= p_max."""
    check_positive(p_max, "momentum cutoff")
    return PiecewiseProfile.from_segments(
        [Piece.constant(1.0, 0.0, p_max)], domain_label="radial-momentum"
    )


def check_positive(value, name, error=ProfileError, zero_ok=False):
    """``error`` unless ``value`` is finite and positive (or zero, with ``zero_ok``)."""
    if not (0.0 < value < math.inf or zero_ok and value == 0.0):
        bound = ">= 0" if zero_ok else "positive"
        raise error(f"{name} must be finite and {bound}, got {value}")


def check_cutoff(a, name, error=ProfileError):
    """``error`` unless ``a`` lies in (-1, 1], the range of a sharp angular cutoff."""
    if not -1.0 < a <= 1.0:
        raise error(f"{name} must lie in (-1, 1], got {a}")


def check_radii(r1, r2, r3):
    """ProfileError unless the shell radii are finite, positive and ordered."""
    if not (0.0 < r1 <= r2 <= r3 < math.inf):
        raise ProfileError(
            f"radii must be finite with 0 < r1 <= r2 <= r3, got ({r1}, {r2}, {r3})"
        )


def core_halo_eta(r1, r2, r3, halo_value):
    """Unit core on [0, r1] plus a constant halo on [r2, r3] (disjoint shells)."""
    check_radii(r1, r2, r3)
    check_positive(halo_value, "halo value", zero_ok=True)
    segments = [Piece.constant(1.0, 0.0, r1)]
    if r2 > r1:
        segments.append(Piece.constant(0.0, r1, r2))
    if r3 > r2:
        segments.append(Piece.constant(halo_value, r2, r3))
    return PiecewiseProfile.from_segments(segments)


def monotonic_eta(r1, r2, r3, n):
    """Unit core, power-law (r1/r)**n atmosphere on [r1, r2], constant skin to r3.

    Continuous and non-increasing on its support by construction.
    """
    check_radii(r1, r2, r3)
    check_positive(n, "atmosphere exponent")
    segments = [Piece.constant(1.0, 0.0, r1)]
    if r2 > r1:
        segments.append(Piece.power(1.0, n, r1, r2))
    if r3 > r2:
        segments.append(Piece.constant((r1 / r2) ** n, r2, r3))
    return PiecewiseProfile.from_segments(segments)
