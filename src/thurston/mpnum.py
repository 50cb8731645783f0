"""Multiprecision scalars and dense polynomial algebra.

Everything numeric in this package runs through a :class:`PrecisionContext`,
which fixes a working precision in decimal digits and a derived tolerance
``tau = 10**(-digits + GUARD_DIGITS)``.  Contexts are independent values (each
wraps its own mpmath context), so escalating precision mid-computation or
running several computations concurrently never touches shared state.

Polynomials are dense coefficient vectors in the monomial basis, ascending
powers.  Degrees in this problem domain stay small (around twelve), so the
monomial basis with generous precision is preferable to fancier bases.
Evaluation runs Horner's rule on mpmath's raw ``_mpf_`` tuples, with the
same rounding as the mpf object arithmetic, so results are bit-identical.
The one nontrivial numerical primitive is :func:`solve_monotone`: a bracketed
bisection/Newton hybrid that inverts a polynomial on a single monotone lap,
with outward bracket doubling for laps that extend to infinity.  Bracketing
is mandatory here because targets may sit arbitrarily close to critical
values, where the derivative underflows and bare Newton crawls or escapes.
Newton may be warm-started from a point inside the lap, such as a marked
point's position one pull-back earlier; a warm start takes at least one
correction unless it solves the equation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from mpmath.ctx_mp import MPContext
from mpmath.libmp import mpf_add, mpf_mul

GUARD_DIGITS = 3
MIN_DIGITS = 15

# Outward doublings allowed when bracketing a root on an unbounded lap.
BRACKET_DOUBLINGS = 200


class RootBracketError(ArithmeticError):
    """The requested target cannot be bracketed on the given lap."""


@dataclass(frozen=True)
class PrecisionContext:
    """Explicit working precision, in decimal digits.

    All scalar operations performed on values created by this context round
    to ``digits`` significant digits; ``tau`` is the coarse tolerance used
    for value comparisons and solver stopping tests.
    """

    digits: int
    mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise ValueError(f"precision must be at least {MIN_DIGITS} digits, got {self.digits}")
        mp = MPContext()
        mp.dps = self.digits
        object.__setattr__(self, "mp", mp)

    @cached_property
    def tau(self):
        return self.mp.mpf(10) ** (GUARD_DIGITS - self.digits)

    def mpf(self, value):
        """Coerce ints, floats, decimal strings, Fractions and foreign mpfs."""
        if isinstance(value, Fraction):
            return self.mp.mpf(value.numerator) / value.denominator
        return self.mp.mpf(value)

    def equal(self, a, b):
        """Tolerance-based equality at tau, relative to the larger magnitude."""
        a, b = self.mpf(a), self.mpf(b)
        return abs(a - b) <= self.tau * max(1, abs(a), abs(b))

    def format(self, value, digits=None):
        """Decimal-string form of ``value`` at ``digits`` significant digits."""
        return self.mp.nstr(self.mpf(value), digits or self.digits, strip_zeros=True)


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial; ``coefficients[i]`` multiplies ``x**i``."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = list(self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        raw = self._raw_horner
        if raw is not None and type(x) is raw[0]:
            kind, acc, rest = raw
            prec, rounding = kind.context._prec_rounding
            xv = x._mpf_
            for c in rest:
                acc = mpf_add(mpf_mul(acc, xv, prec, rounding), c, prec, rounding)
            out = object.__new__(kind)
            out._mpf_ = acc
            return out
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

    @cached_property
    def _raw_horner(self):
        # Horner on the raw mpf tuples rounds exactly as ``acc * x + c`` does
        # on mpf objects (mpmath rounds at the left operand's context, here
        # always the leading coefficient's) without building an object per
        # operation.  Only when every coefficient and x are mpfs of one
        # context; anything else takes the object loop.
        kind = type(self.coefficients[-1])
        context = getattr(kind, "context", None)
        if not isinstance(context, MPContext) or kind is not context.mpf:
            return None
        if any(type(c) is not kind for c in self.coefficients):
            return None
        lead, *rest = reversed(self.coefficients)
        return kind, lead._mpf_, tuple(c._mpf_ for c in rest)

    def derivative(self) -> "Polynomial":
        """The derivative, built once per polynomial."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((self.coefficients[0] * 0,))
        return Polynomial(tuple(c * (i + 1) for i, c in enumerate(self.coefficients[1:])))


def expand_roots(lead, roots, multiplicities) -> Polynomial:
    """Expand ``lead * prod (x - roots[i])**multiplicities[i]``, unchecked."""
    coeffs = [lead]
    for root, k in zip(roots, multiplicities):
        for _ in range(k):
            shifted = [c * (-root) for c in coeffs] + [coeffs[0] * 0]
            for i, c in enumerate(coeffs):
                shifted[i + 1] += c
            coeffs = shifted
    return Polynomial(tuple(coeffs))


def poly_from_roots(roots, multiplicities, sign, ctx: PrecisionContext) -> Polynomial:
    """Expand ``sign * prod (x - roots[i])**multiplicities[i]``.

    Roots must be strictly increasing; multiplicities are positive integers.
    """
    roots = [ctx.mpf(r) for r in roots]
    if len(roots) != len(multiplicities):
        raise ValueError("roots and multiplicities differ in length")
    if any(k < 1 for k in multiplicities):
        raise ValueError("multiplicities must be positive")
    for a, b in zip(roots, roots[1:]):
        if not a < b:
            raise ValueError("roots must be strictly increasing")
    return expand_roots(ctx.mpf(sign), roots, multiplicities)


def antiderivative(p: Polynomial, base_point, base_value) -> Polynomial:
    """The antiderivative P of p with P(base_point) = base_value."""
    zero = p.coefficients[0] * 0
    coeffs = [zero] + [c / (i + 1) for i, c in enumerate(p.coefficients)]
    raw = Polynomial(tuple(coeffs))
    constant = base_value - raw(base_point)
    return Polynomial((coeffs[0] + constant,) + tuple(coeffs[1:]))


def definite_integral(p: Polynomial, a, b):
    """Integral of p over [a, b] via the exact antiderivative."""
    zero = p.coefficients[0] * 0
    P = antiderivative(p, zero, zero)
    return P(b) - P(a)


def divide_linear(p: Polynomial, root) -> Polynomial:
    """Synthetic division by (x - root); root must actually be a root."""
    coeffs = p.coefficients
    out = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * root
    return Polynomial(tuple(out))


def affine_substitute(p: Polynomial, offset, scale) -> Polynomial:
    """The polynomial x |-> p(offset + scale * x), expanded."""
    zero = p.coefficients[0] * 0
    out = [p.coefficients[-1]]
    for c in reversed(p.coefficients[:-1]):
        nxt = [zero] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v * offset
            nxt[i + 1] += v * scale
        nxt[0] += c
        out = nxt
    return Polynomial(tuple(out))


def solve_monotone(p: Polynomial, target, lo, hi, orientation, ctx: PrecisionContext, start=None):
    """Solve p(x) = target on a monotone lap [lo, hi].

    ``lo``/``hi`` may be None for laps extending to -inf/+inf; the bracket is
    then grown outward from the finite end by doubling steps.  ``orientation``
    is +1 for increasing laps, -1 for decreasing.  The lap may contain
    isolated points of vanishing derivative (higher-order tangencies); the
    result satisfies ``|p(x) - target| <= 10 * tau * max(1, |target|)``.

    Newton starts from ``start`` when it lies strictly inside the bracket
    (a warm start, such as the point's position one pull-back earlier) and
    from the bracket's midpoint otherwise.  A warm start is returned
    unchanged only if its residual is exactly 0; otherwise it takes at
    least one correction even when it already meets the tolerance, so that
    a point which moves less than the tolerance per step still moves.
    """
    target = ctx.mpf(target)
    one = ctx.mp.mpf(1)
    if lo is None and hi is None:
        raise ValueError("at least one lap end must be finite")

    def past_low(v):
        return v <= target if orientation > 0 else v >= target

    def past_high(v):
        return v >= target if orientation > 0 else v <= target

    if lo is None:
        anchor = ctx.mpf(hi)
        step = one
        lo = anchor - step
        for _ in range(BRACKET_DOUBLINGS):
            plo = p(lo)
            if past_low(plo):
                break
            step *= 2
            lo = anchor - step
        else:
            raise RootBracketError("bracket expansion cap reached below the lap")
    else:
        lo = ctx.mpf(lo)
        plo = p(lo)
    if hi is None:
        anchor = lo
        step = one
        hi = anchor + step
        for _ in range(BRACKET_DOUBLINGS):
            phi = p(hi)
            if past_high(phi):
                break
            step *= 2
            hi = anchor + step
        else:
            raise RootBracketError("bracket expansion cap reached above the lap")
    else:
        hi = ctx.mpf(hi)
        phi = p(hi)

    value_tol = 10 * ctx.tau * max(one, abs(target))
    flo = plo - target
    fhi = phi - target
    if abs(flo) <= value_tol:
        return lo
    if abs(fhi) <= value_tol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise RootBracketError(
            f"target {ctx.format(target, 8)} outside lap range "
            f"[{ctx.format(plo, 8)}, {ctx.format(phi, 8)}]"
        )

    dp = p.derivative()
    x = (lo + hi) / 2
    correct = False  # whether x must be corrected before it may be returned
    if start is not None:
        start = ctx.mpf(start)
        if lo < start < hi:
            x, correct = start, True
    for _ in range(300 + 4 * ctx.digits):
        fx = p(x) - target
        if fx == 0 or (abs(fx) <= value_tol and not correct):
            return x
        correct = False
        if (fx > 0) == (fhi > 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        slope = dp(x)
        stepped = False
        if slope != 0:
            candidate = x - fx / slope
            if lo < candidate < hi:
                x = candidate
                stepped = True
        if not stepped:
            x = (lo + hi) / 2
    raise RootBracketError("root refinement failed to meet tolerance")
