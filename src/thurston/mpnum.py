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
into a :class:`Polynomial` only when its coefficients are read.  The inner
loops run on mpmath's raw ``_mpf_`` tuples through ``mpmath.libmp`` rather
than on mpf objects: Horner's rule (:func:`raw_horner`, the one path behind
``Polynomial.__call__``), root-product expansion, synthetic division,
monomial integration and affine substitution (the ``raw_*`` kernels, which
the gap map in :mod:`thurston.critvals` builds on, and
:func:`affine_substitute`), and :func:`solve_monotone`.  Each kernel does
the operations of the object code in the same order with the same
precision and rounding mode (mpmath rounds ``a op b`` at the left
operand's context, and ``int * mpf`` is ``mpf_mul_int``), so every result
is bit-identical to the object arithmetic; values are boxed back into mpfs
only where they leave a function.

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
    fone, fzero, from_int, mpf_abs, mpf_add, mpf_div, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_mul,
    mpf_mul_int, mpf_neg, mpf_nthroot, mpf_pow_int, mpf_sqrt, mpf_sub
)

GUARD_DIGITS = 3
MIN_DIGITS = 15

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
        out = object.__new__(kind)
        out._mpf_ = raw_horner(descending, x._mpf_, *kind.context._prec_rounding)
        return out

    @cached_property
    def _raw_horner(self):
        # Horner on the raw mpf tuples rounds exactly as ``acc * x + c`` does
        # on mpf objects (mpmath rounds at the left operand's context, here
        # the coefficients') without building an object per operation.
        kind = type(self.coefficients[-1])
        return kind, tuple(c._mpf_ for c in reversed(self.coefficients))

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


def raw_horner(descending, x, prec, rounding):
    """Horner's rule on raw tuples, leading coefficient first.

    Rounds each ``acc * x + c`` as mpf objects of precision ``prec`` do.
    """
    terms = iter(descending)
    acc = next(terms)
    for c in terms:
        acc = mpf_add(mpf_mul(acc, x, prec, rounding), c, prec, rounding)
    return acc


def raw_expand_roots(lead, roots, multiplicities, prec, rounding) -> list:
    """Ascending raw coefficients of ``lead * prod (x - roots[i])**multiplicities[i]``."""
    coeffs = [lead]
    for root, k in zip(roots, multiplicities):
        negated = mpf_neg(root, prec, rounding)
        for _ in range(k):
            shifted = [mpf_mul(c, negated, prec, rounding) for c in coeffs] + [fzero]
            for i, c in enumerate(coeffs):
                shifted[i + 1] = mpf_add(shifted[i + 1], c, prec, rounding)
            coeffs = shifted
    return coeffs


def raw_divide_linear(coefficients, root, prec, rounding) -> list:
    """Synthetic division of ascending raw coefficients by (x - root).

    ``root`` must actually be a root; the remainder is dropped.
    """
    out = [None] * (len(coefficients) - 1)
    acc = coefficients[-1]
    for i in range(len(coefficients) - 2, -1, -1):
        out[i] = acc
        acc = mpf_add(coefficients[i], mpf_mul(acc, root, prec, rounding), prec, rounding)
    return out


def raw_integral(coefficients, prec, rounding) -> list:
    """Ascending raw coefficients of the antiderivative vanishing at 0."""
    return [fzero] + [
        mpf_div(c, from_int(i + 1), prec, rounding) for i, c in enumerate(coefficients)
    ]


def unboxed(kind, values) -> list:
    """Raw tuples of ``values``, coercing any that are not of type ``kind``."""
    return [v._mpf_ if type(v) is kind else kind(v)._mpf_ for v in values]


def expand_roots(lead, roots, multiplicities) -> Polynomial:
    """Expand ``lead * prod (x - roots[i])**multiplicities[i]``, unchecked.

    ``lead`` is an mpf; the roots are coerced into its context.
    """
    context = lead.context
    raw = raw_expand_roots(
        lead._mpf_, unboxed(type(lead), roots), multiplicities, *context._prec_rounding
    )
    return Polynomial(tuple(map(context.make_mpf, raw)))


def antiderivative(p: Polynomial, base_point, base_value) -> Polynomial:
    """The antiderivative P of p with P(base_point) = base_value, in p's context."""
    context = p.coefficients[0].context
    integral = raw_integral([c._mpf_ for c in p.coefficients], *context._prec_rounding)
    coeffs = [context.make_mpf(c) for c in integral]
    raw = Polynomial(tuple(coeffs))
    constant = base_value - raw(base_point)
    return Polynomial((coeffs[0] + constant,) + tuple(coeffs[1:]))


def affine_substitute(p: Polynomial, offset, scale) -> Polynomial:
    """The polynomial x |-> p(offset + scale * x), expanded.

    ``offset`` and ``scale`` are coerced into the context of p's coefficients.
    """
    kind = type(p.coefficients[0])
    context = kind.context
    prec, rounding = context._prec_rounding
    offset, scale = unboxed(kind, (offset, scale))
    coeffs = [c._mpf_ for c in p.coefficients]
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [fzero] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] = mpf_add(nxt[i], mpf_mul(v, offset, prec, rounding), prec, rounding)
            nxt[i + 1] = mpf_add(nxt[i + 1], mpf_mul(v, scale, prec, rounding), prec, rounding)
        nxt[0] = mpf_add(nxt[0], c, prec, rounding)
        out = nxt
    return Polynomial(tuple(map(context.make_mpf, out)))


def _value_tolerance(target, ctx: PrecisionContext):
    """The lap solvers' residual bound ``10 * tau * max(1, |target|)``, raw."""
    prec, rounding = ctx.mp._prec_rounding
    size = mpf_abs(target, prec, rounding)
    return mpf_mul(
        mpf_mul_int(ctx.tau._mpf_, 10, prec, rounding),
        size if mpf_gt(size, fone) else fone,
        prec,
        rounding,
    )


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
    if lo is None and hi is None:
        raise ValueError("at least one lap end must be finite")
    mp = ctx.mp
    prec, rounding = mp._prec_rounding
    box = mp.make_mpf

    def value(q, x):
        # p and p' are evaluated through Polynomial.__call__ on a boxed x.
        return q(box(x))._mpf_

    target = ctx.mpf(target)._mpf_
    past_low, past_high = (mpf_le, mpf_ge) if orientation > 0 else (mpf_ge, mpf_le)

    def grow(anchor, move, past, side):
        # the first end anchor -+ 2**k at which p is past the target, and p there
        step = fone
        for _ in range(BRACKET_DOUBLINGS):
            end = move(anchor, step, prec, rounding)
            at = value(p, end)
            if past(at, target):
                return end, at
            step = mpf_mul_int(step, 2, prec, rounding)
        raise RootBracketError(f"bracket expansion cap reached {side} the lap")

    if lo is None:
        lo, plo = grow(ctx.mpf(hi)._mpf_, mpf_sub, past_low, "below")
    else:
        lo = ctx.mpf(lo)._mpf_
        plo = value(p, lo)
    if hi is None:
        hi, phi = grow(lo, mpf_add, past_high, "above")
    else:
        hi = ctx.mpf(hi)._mpf_
        phi = value(p, hi)

    value_tol = _value_tolerance(target, ctx)
    flo = mpf_sub(plo, target, prec, rounding)
    fhi = mpf_sub(phi, target, prec, rounding)
    if mpf_le(mpf_abs(flo, prec, rounding), value_tol):
        return box(lo)
    if mpf_le(mpf_abs(fhi, prec, rounding), value_tol):
        return box(hi)
    high_positive = mpf_gt(fhi, fzero)
    if mpf_gt(flo, fzero) == high_positive:
        raise RootBracketError(
            f"target {ctx.format(box(target), 8)} outside lap range "
            f"[{ctx.format(box(plo), 8)}, {ctx.format(box(phi), 8)}]"
        )

    dp = p.derivative()
    two = from_int(2)
    x = mpf_div(mpf_add(lo, hi, prec, rounding), two, prec, rounding)
    correct = False  # whether x must be corrected before it may be returned
    if start is not None:
        start = ctx.mpf(start)._mpf_
        if mpf_lt(lo, start) and mpf_lt(start, hi):
            x, correct = start, True
    for _ in range(300 + 4 * ctx.digits):
        fx = mpf_sub(value(p, x), target, prec, rounding)
        if fx == fzero or (mpf_le(mpf_abs(fx, prec, rounding), value_tol) and not correct):
            return box(x)
        correct = False
        if mpf_gt(fx, fzero) == high_positive:
            hi = x
        else:
            lo = x
        slope = value(dp, x)
        stepped = False
        if slope != fzero:
            candidate = mpf_sub(x, mpf_div(fx, slope, prec, rounding), prec, rounding)
            if mpf_lt(lo, candidate) and mpf_lt(candidate, hi):
                x = candidate
                stepped = True
        if not stepped:
            x = mpf_div(mpf_add(lo, hi, prec, rounding), two, prec, rounding)
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
    a lap end, raises :class:`RootBracketError`.
    """
    if p.degree % 2:
        raise ValueError(f"closed-form lap inversion needs an even degree, got {p.degree}")
    mp = ctx.mp
    prec, rounding = mp._prec_rounding
    box = mp.make_mpf
    target, center, value, lead = unboxed(mp.mpf, (target, center, value, p.lead))
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
