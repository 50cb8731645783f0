"""Multiprecision scalars and dense polynomial algebra.

Everything numeric in this package runs through a :class:`PrecisionContext`,
which fixes a working precision in decimal digits and a derived tolerance
``tau = 10**(-digits + GUARD_DIGITS)``.  Contexts of equal digits share one
mpmath context, built on first use and never modified (nothing writes its
``dps`` or ``prec``), so values of equal digits share one mpf type.

Polynomials are dense coefficient vectors in the monomial basis, ascending
powers, in mpfs of one context; degrees stay small (around twelve).  A map
with one critical point is exactly ``value + lead * (x - center)**degree``;
a :class:`PowerMap` evaluates and reframes it in that form and expands it
into a :class:`Polynomial` only when its coefficients are read.

The inner loops run on integer pairs (m, e), the value m * 2**e: Horner's
rule (:func:`pair_horner`, behind ``Polynomial.__call__``), the other
``pair_*`` kernels that the gap map in :mod:`thurston.critvals` builds on,
:func:`affine_substitute` and :func:`solve_monotone`.  Each operation is
exact integer arithmetic rounded once to nearest, ties to even: the same bits
as mpmath's correctly rounded raw operations.  Done in the mpf object code's
order at its precision, every result is bit-identical to it.  Values become
pairs only inside the kernels, where inf and nan are refused.

Two solvers invert a map on a single monotone lap, both to the residual
``10 * tau * max(1, |target|)``: :func:`solve_power` with one n-th root when
there is one critical point, and otherwise :func:`solve_monotone`, a
bisection/Newton hybrid on a bracket that doubles outward on laps extending
to infinity (targets may sit arbitrarily close to critical values, where
the derivative underflows and bare Newton crawls or escapes).  Its Newton
may be warm-started from a point inside the lap, such as a marked point's
position one pull-back earlier; a warm start takes at least one correction
unless it solves the equation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    MPZ, fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int,
    mpf_nthroot, mpf_pow_int, mpf_sqrt, mpf_sub
)

GUARD_DIGITS = 3
MIN_DIGITS = 15
NEWTON_TOL_SHIFT = 6  # the gap-map inversion's residual target is 10**(-digits + shift)

# Outward doublings allowed when bracketing a root on an unbounded lap.
BRACKET_DOUBLINGS = 200

_CONTEXTS = {}  # digits -> the one mpmath context every PrecisionContext shares


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
        mp = _CONTEXTS.get(self.digits)
        if mp is None:
            mp = _CONTEXTS[self.digits] = MPContext()
            mp.dps = self.digits
        object.__setattr__(self, "mp", mp)

    @cached_property
    def tau(self):
        return self.mp.mpf(10) ** (GUARD_DIGITS - self.digits)

    @cached_property
    def solve_tol(self):  # raw 10 * tau, the lap solvers' residual bound for |target| <= 1
        return mpf_mul_int(self.tau._mpf_, 10, *self.mp._prec_rounding)

    @cached_property
    def newton_tol(self):  # the gap-map inversion's residual bound
        return self.mp.mpf(10) ** (NEWTON_TOL_SHIFT - self.digits)

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
    """Dense real polynomial; ``coefficients[i]`` multiplies ``x**i``.  The
    leading one must be an mpf, and the others are coerced into its context."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = list(self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        kind = type(coeffs[-1])
        context = getattr(kind, "context", None)
        if not isinstance(context, MPContext) or kind is not context.mpf:
            raise TypeError("polynomial coefficients must be mpf values")
        if len(set(map(type, coeffs))) > 1:
            coeffs = [c if type(c) is kind else kind(c) for c in coeffs]
        if not all(map(context.isfinite, coeffs)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def lead(self):
        return self.coefficients[-1]

    def __call__(self, x):
        kind, descending = self._raw_horner
        if type(x) is not kind:
            x = kind(x)
        context = kind.context
        return context.make_mpf(to_raw(pair_horner(descending, to_pair(x._mpf_), context.prec)))

    @cached_property
    def _raw_horner(self):
        # Horner on pairs rounds exactly as ``acc * x + c`` does on mpf
        # objects (mpmath rounds at the left operand's context, here the
        # coefficients') without building an object per operation.
        kind = type(self.coefficients[-1])
        return kind, tuple(to_pair(c._mpf_) for c in reversed(self.coefficients))

    def derivative(self) -> "Polynomial":
        """The derivative, built once per polynomial."""
        return self._derivative

    @cached_property
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((self.coefficients[0] * 0,))
        return Polynomial(tuple(c * (i + 1) for i, c in enumerate(self.coefficients[1:])))


@dataclass(frozen=True)
class PowerMap:
    """``value + lead * (x - center)**degree`` in mpfs of one context: a map with one
    critical point that evaluates like a :class:`Polynomial`, whose ``coefficients``
    and ``derivative()`` come from one cached expansion, :attr:`expanded`."""

    center: object
    value: object
    lead: object
    degree: int

    def __call__(self, x):
        kind = type(self.lead)
        if type(x) is not kind:
            x = kind(x)
        prec, rounding = kind.context._prec_rounding
        to_pair(x._mpf_)  # refuses inf and nan
        offset = mpf_sub(x._mpf_, self.center._mpf_, prec, rounding)
        power = mpf_pow_int(offset, self.degree, prec, rounding)
        rise = mpf_mul(self.lead._mpf_, power, prec, rounding)
        out = object.__new__(kind)
        out._mpf_ = mpf_add(self.value._mpf_, rise, prec, rounding)
        return out

    def precompose(self, offset, scale) -> "PowerMap":
        """The map x |-> self(offset + scale * x), in closed form."""
        center = (self.center - offset) / scale
        return PowerMap(center, self.value, self.lead * scale**self.degree, self.degree)

    @cached_property
    def expanded(self) -> Polynomial:
        constant, *rest = expand_roots(self.lead, (self.center,), (self.degree,)).coefficients
        return Polynomial((constant + self.value, *rest))

    @property
    def coefficients(self) -> tuple:
        return self.expanded.coefficients

    def derivative(self) -> Polynomial:
        return self.expanded.derivative()


# ---------------------------------------------------------------- pair arithmetic
# A pair (m, e) is the value m * 2**e, m a signed integer.  Each operation
# forms its exact result in integers and rounds it once, to nearest with ties
# to even, at ``prec`` bits; mpmath's raw operations are correctly rounded too,
# so on operands of at most ``prec`` bits the two agree bit for bit.  Trailing
# zeros stay until :func:`to_raw` strips them, when a value leaves the kernels.


def to_pair(raw):
    """The (signed mantissa, exponent) pair of a finite raw ``_mpf_`` tuple."""
    sign, man, exp, _ = raw
    if not man and exp:  # mpmath's inf, -inf and nan
        raise ValueError("expected a finite value, not inf or nan")
    return (-man if sign else man), exp


def to_raw(pair):
    """The normalized raw ``_mpf_`` tuple of a pair."""
    m, e = pair
    if not m:
        return fzero
    zeros = (m & -m).bit_length() - 1
    man = abs(m) >> zeros
    return int(m < 0), MPZ(man), e + zeros, man.bit_length()


def pair_round(m, e, prec):
    """m * 2**e rounded to ``prec`` bits, to nearest with ties to even."""
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)  # floor, keeping the first dropped bit
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) else t >> 1
        e += n
    return m, e


def pair_mul(a, b, prec):
    return pair_round(a[0] * b[0], a[1] + b[1], prec)


def pair_add(a, b, prec):
    (am, ae), (bm, be) = a, b
    if not (am and bm):
        return pair_round(am or bm, ae if am else be, prec)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    shift = ae - be
    if shift > prec + 4 and be + bm.bit_length() <= min(ae + am.bit_length() - prec - 2, ae):
        # b, below a's last bit and a quarter of its rounding unit, only
        # decides on which side of a the sum lies: one sticky bit stands in.
        return pair_round((am << prec + 4) + (1 if bm > 0 else -1), ae - prec - 4, prec)
    return pair_round((am << shift) + bm, be, prec)


def pair_sub(a, b, prec):
    return pair_add(a, (-b[0], b[1]), prec)


def pair_div(a, b, prec):
    (am, ae), (bm, be) = a, b
    if bm < 0:
        am, bm = -am, -bm
    # a floor quotient of at least prec + 2 bits, then a sticky bit for any remainder
    extra = max(prec + 2 - am.bit_length() + bm.bit_length(), 0)
    q, r = divmod(am << extra, bm)
    if r:
        return pair_round(2 * q + 1, ae - be - extra - 1, prec)
    return pair_round(q, ae - be - extra, prec)


def pair_cmp(a, b):
    """-1, 0 or 1 as a is below, equal to or above b; exact."""
    (am, ae), (bm, be) = a, b
    if am and bm and (am < 0) == (bm < 0):
        top = ae + am.bit_length() - be - bm.bit_length()
        if top:  # the one whose highest bit is higher is larger in magnitude
            return 1 if (top > 0) == (am > 0) else -1
        am, bm = am << max(ae - be, 0), bm << max(be - ae, 0)
    return (am > bm) - (am < bm)


def pair_horner(descending, x, prec):
    """Horner's rule on pairs, leading coefficient first: each ``acc * x + c``
    rounds the product, then the sum, as mpf objects of precision ``prec`` do.
    Zero terms and terms more than ``prec + 4`` bits apart take :func:`pair_add`."""
    xm, xe = x
    terms = iter(descending)
    m, e = next(terms)
    for cm, ce in terms:
        m *= xm
        e += xe
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) else t >> 1
            e += n
        d = e - ce
        if not (m and cm) or d > prec + 4 or d < -prec - 4:
            m, e = pair_add((m, e), (cm, ce), prec)
            continue
        if d >= 0:
            m = (m << d) + cm
            e = ce
        else:
            m += cm << -d
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) else t >> 1
            e += n
    return m, e


def pair_expand_roots(lead, roots, multiplicities, prec) -> list:
    """Ascending coefficients of ``lead * prod (x - roots[i])**multiplicities[i]``."""
    coeffs = [lead]
    for (rm, re), k in zip(roots, multiplicities):
        for _ in range(k):  # new c_i = c_{i-1} - root * c_i
            coeffs = [
                pair_add(pair_mul(c, (-rm, re), prec), low, prec)
                for low, c in zip([(0, 0)] + coeffs, coeffs + [(0, 0)])
            ]
    return coeffs


def pair_divide_linear(coefficients, root, prec) -> list:
    """Synthetic division of ascending coefficients by (x - root), a root: no remainder."""
    out = [coefficients[-1]]
    for c in coefficients[-2:0:-1]:
        out.append(pair_add(c, pair_mul(out[-1], root, prec), prec))
    return out[::-1]


def pair_integral(coefficients, prec) -> list:
    """Ascending coefficients of the antiderivative vanishing at 0."""
    return [(0, 0)] + [pair_div(c, (i + 1, 0), prec) for i, c in enumerate(coefficients)]


def unboxed(kind, values) -> list:
    """Raw tuples of ``values``, coercing any that are not of type ``kind``."""
    return [v._mpf_ if type(v) is kind else kind(v)._mpf_ for v in values]


def expand_roots(lead, roots, multiplicities) -> Polynomial:
    """Expand ``lead * prod (x - roots[i])**multiplicities[i]``, unchecked.

    ``lead`` is an mpf; the roots are coerced into its context.
    """
    context = lead.context
    roots = [to_pair(r) for r in unboxed(type(lead), roots)]
    coeffs = pair_expand_roots(to_pair(lead._mpf_), roots, multiplicities, context.prec)
    return Polynomial(tuple(context.make_mpf(to_raw(c)) for c in coeffs))


def antiderivative(p: Polynomial, base_point, base_value) -> Polynomial:
    """The antiderivative P of p with P(base_point) = base_value, in p's context."""
    context = p.coefficients[0].context
    integral = pair_integral([to_pair(c._mpf_) for c in p.coefficients], context.prec)
    raw = Polynomial(tuple(context.make_mpf(to_raw(c)) for c in integral))
    constant = base_value - raw(base_point)
    return Polynomial((raw.coefficients[0] + constant,) + raw.coefficients[1:])


def affine_substitute(p: Polynomial, offset, scale) -> Polynomial:
    """The polynomial x |-> p(offset + scale * x), expanded.

    ``offset`` and ``scale`` are coerced into the context of p's coefficients.
    """
    kind = type(p.coefficients[0])
    context = kind.context
    prec = context.prec
    offset, scale = (to_pair(v) for v in unboxed(kind, (offset, scale)))
    coeffs = [to_pair(c._mpf_) for c in p.coefficients]
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):  # out * (offset + scale * x) + c
        moved = [(0, 0)] + [pair_mul(v, scale, prec) for v in out]
        out = [pair_add(s, pair_mul(v, offset, prec), prec) for s, v in zip(moved, out + [(0, 0)])]
        out[0] = pair_add(out[0], c, prec)
    return Polynomial(tuple(context.make_mpf(to_raw(v)) for v in out))


def _value_tolerance(target, ctx: PrecisionContext):
    """The lap solvers' residual bound ``10 * tau * max(1, |target|)``, raw."""
    prec, rounding = ctx.mp._prec_rounding
    size = mpf_abs(target, prec, rounding)
    if mpf_gt(size, fone):
        return mpf_mul(ctx.solve_tol, size, prec, rounding)
    return ctx.solve_tol  # 10 * tau * 1 is exact


def solve_monotone(p: Polynomial, target, lo, hi, orientation, ctx: PrecisionContext, start=None):
    """Solve p(x) = target on a monotone lap [lo, hi], or on any bracket where
    p - target changes sign once, as the gap-ratio equation of
    :func:`thurston.critvals.solve_gaps` does.

    ``lo``/``hi`` may be None for laps extending to -inf/+inf; the bracket is
    then grown outward from the finite end by doubling steps.  ``orientation``
    is +1 for increasing laps (and for a sign change from - to +), -1 for
    decreasing.  The lap may contain isolated points of vanishing derivative
    (higher-order tangencies); the result satisfies
    ``|p(x) - target| <= 10 * tau * max(1, |target|)``.

    Newton starts from ``start`` when it lies strictly inside the bracket
    (a warm start, such as the point's position one pull-back earlier) and
    from the bracket's midpoint otherwise.  A warm start is returned
    unchanged only if its residual is exactly 0; otherwise it takes at
    least one correction even when it already meets the tolerance, so that
    a point which moves less than the tolerance per step still moves.
    """
    if lo is None and hi is None:
        raise ValueError("at least one lap end must be finite")
    mp, prec = ctx.mp, ctx.mp.prec
    kind, coefficients = p._raw_horner
    slopes = p.derivative()._raw_horner[1]
    p_prec = kind.context.prec

    def value(q, x):  # at the coefficients' precision, as Polynomial.__call__ evaluates
        return pair_horner(q, pair_round(*x, p_prec), p_prec)

    def box(x):
        return mp.make_mpf(to_raw(x))

    def finite(v):  # refuses inf and nan
        return to_pair(ctx.mpf(v)._mpf_)

    target = finite(target)
    start = None if start is None else finite(start)
    sense = 1 if orientation > 0 else -1

    def grow(anchor, direction, side):
        # the first end anchor + direction * 2**k at which p is past the target, and p there
        for k in range(BRACKET_DOUBLINGS):
            end = pair_add(anchor, (direction, k), prec)
            at = value(coefficients, end)
            if sense * direction * pair_cmp(at, target) >= 0:
                return end, at
        raise RootBracketError(f"bracket expansion cap reached {side} the lap")

    if lo is None:
        lo, plo = grow(finite(hi), -1, "below")
    else:
        lo = finite(lo)
        plo = value(coefficients, lo)
    if hi is None:
        hi, phi = grow(lo, 1, "above")
    else:
        hi = finite(hi)
        phi = value(coefficients, hi)

    value_tol = to_pair(_value_tolerance(to_raw(target), ctx))
    flo = pair_sub(plo, target, prec)
    fhi = pair_sub(phi, target, prec)
    for end, f in ((lo, flo), (hi, fhi)):
        if pair_cmp((abs(f[0]), f[1]), value_tol) <= 0:
            return box(end)
    high_positive = fhi[0] > 0
    if (flo[0] > 0) == high_positive:
        raise RootBracketError(
            f"target {ctx.format(box(target), 8)} outside lap range "
            f"[{ctx.format(box(plo), 8)}, {ctx.format(box(phi), 8)}]"
        )

    m, e = pair_add(lo, hi, prec)
    x = (m, e - 1)  # the midpoint
    correct = False  # whether x must be corrected before it may be returned
    if start is not None and pair_cmp(lo, start) < 0 and pair_cmp(start, hi) < 0:
        x, correct = start, True
    for _ in range(300 + 4 * ctx.digits):
        fx = pair_sub(value(coefficients, x), target, prec)
        if not fx[0] or (not correct and pair_cmp((abs(fx[0]), fx[1]), value_tol) <= 0):
            return box(x)
        correct = False
        lo, hi = (lo, x) if (fx[0] > 0) == high_positive else (x, hi)
        slope = value(slopes, x)
        candidate = pair_sub(x, pair_div(fx, slope, prec), prec) if slope[0] else lo
        if pair_cmp(lo, candidate) < 0 and pair_cmp(candidate, hi) < 0:
            x = candidate  # the Newton step, if it stays strictly inside the bracket
        else:
            m, e = pair_add(lo, hi, prec)
            x = (m, e - 1)
    raise RootBracketError("root refinement failed to meet tolerance")


def solve_power(
    p, target, center, value, side, ctx: PrecisionContext, lo=None, hi=None
):
    """Solve p(x) = target on one side of p's only critical point, in closed form.

    p, a :class:`PowerMap` or a :class:`Polynomial`, must be
    ``value + lead * (x - center)**d`` up to the rounding of its
    coefficients, with d = deg p even, ``lead`` its leading coefficient and
    ``value = p(center)``, which the caller computes once per map.  The
    root is then x = center + side * ((target - value) / lead)**(1/d), one
    n-th root in place of :func:`solve_monotone`'s search; ``side`` is -1
    on the lap left of ``center`` and +1 on the lap right of it.  ``lo`` and
    ``hi``, where given, bound the lap.

    The residual contract is :func:`solve_monotone`'s,
    ``|p(x) - target| <= 10 * tau * max(1, |target|)``.  A target within
    that tolerance of ``value`` returns ``center``; a root beyond ``lo`` or
    ``hi`` returns that end if the end meets the tolerance.  Any other
    target outside the lap's range, on the wrong side of ``value`` or past
    a lap end, raises :class:`RootBracketError`; an infinite or nan
    target, center, value or lead raises ValueError.
    """
    if p.degree % 2:
        raise ValueError(f"closed-form lap inversion needs an even degree, got {p.degree}")
    mp = ctx.mp
    prec, rounding = mp._prec_rounding
    box = mp.make_mpf
    target, center, value, lead = unboxed(mp.mpf, (target, center, value, p.lead))
    for raw in (target, center, value, lead):
        to_pair(raw)  # refuses inf and nan
    value_tol = _value_tolerance(target, ctx)
    rise = mpf_sub(target, value, prec, rounding)
    if mpf_le(mpf_abs(rise, prec, rounding), value_tol):
        return box(center)
    ratio = mpf_div(rise, lead, prec, rounding)
    if mpf_lt(ratio, fzero):
        raise RootBracketError(
            f"target {ctx.format(box(target), 8)} lies beyond the critical value "
            f"{ctx.format(box(value), 8)}"
        )
    if p.degree == 2:
        step = mpf_sqrt(ratio, prec, rounding)  # the common case, 2-3x faster
    else:
        step = mpf_nthroot(ratio, p.degree, prec, rounding)
    x = (mpf_add if side > 0 else mpf_sub)(center, step, prec, rounding)
    for end, outside in ((lo, mpf_lt), (hi, mpf_gt)):
        if end is None:
            continue
        (end,) = unboxed(mp.mpf, (end,))
        if outside(x, end):
            miss = mpf_sub(p(box(end))._mpf_, target, prec, rounding)
            if mpf_le(mpf_abs(miss, prec, rounding), value_tol):
                return box(end)
            raise RootBracketError(
                f"target {ctx.format(box(target), 8)} outside lap range: its root "
                f"{ctx.format(box(x), 8)} lies beyond the lap end {ctx.format(box(end), 8)}"
            )
    return box(x)
