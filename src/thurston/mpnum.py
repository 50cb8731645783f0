"""Multiprecision scalars and dense polynomial algebra.

Everything numeric in this package runs through a :class:`PrecisionContext`,
which fixes a working precision in decimal digits and a derived tolerance
``tau = 10**(-digits + GUARD_DIGITS)``.  Contexts of equal digits share one
mpmath context, built on first use and never modified (nothing writes its
``dps`` or ``prec``), so values of equal digits share one mpf type.

Polynomials are dense coefficient vectors in the monomial basis, ascending
powers, in mpfs of one context; degrees stay small (around twelve).  A map
with one critical point is exactly ``value + lead * (x - center)**degree``;
a :class:`PowerMap` evaluates, inverts and reframes it in that form and
expands it into a :class:`Polynomial` only when its coefficients are read,
by the binomial theorem in exact integers, each coefficient rounded once.
Both kinds offer ``preimages`` (the inverse on any of the laps, one or many at
once) and ``frame`` (the framing points A and B and the map
x |-> f(A + (B - A) x)), so callers never ask which kind they hold.

One rounding rule holds for the kernels: each works on integer pairs
(m, e), the value m * 2**e, forms its result exactly in integers and rounds
it once to nearest, ties to even, as mpmath's raw operations round.
``Polynomial.__call__`` is Horner's rule on the coefficients over one common
exponent (kept per polynomial) and x's mantissa, :func:`affine_substitute`
a Taylor shift of the same integers, and ``PowerMap.__call__`` and
:attr:`PowerMap.expanded` the binomial in integers; the gap map and
``critvals.solve_pairs`` (fraction-free elimination) keep the same rule.  So
every such result is correctly rounded, with the same bits on either mpmath
backend.  Between the kernels values stay pairs (``frame``'s B - A and moved
points, and the residual bounds of :func:`scaled_bound`); inf and nan are
refused where values become pairs.

Every other evaluation of a map runs in block fixed point on plain ints
(:func:`block_horner`): x over 2**-(prec + 32), values over 2**unit, 32 bits
below 10 tau and d bits lower per doubling of x's range (:func:`grid_unit`),
each off by at most :func:`grid_error` units.  A ``Polynomial`` keeps its
grid once per precision and width (:meth:`Polynomial.block`); both map
kinds evaluate there by ``on_grid``.

Each map kind inverts itself on a monotone lap by one kernel, behind both its
``frame`` and its ``preimages``, to the residual ``10 * tau * max(1, |target|)``.
A ``PowerMap`` inverts in closed form, by ratios of integer roots on x's grid.
With v the value and rho_t = |t - v|**(1/d) floored there (:func:`iroot`), the
framing points of targets t_0 and t_n give the map
v + sign(lead) (rho_0 + rho_n)**d (x - c)**d with c = rho_0 / (rho_0 + rho_n),
and the framed map carries its framing: the precision, rho_0 and
rho_0 + rho_n.  Its ``preimages`` reads those and takes the root of the
targets on the given laps alone, each pulling back to (rho_0 -+ rho_t) /
(rho_0 + rho_n), - left of c and + right of it, rounded once: the lead's and
the framing scale's d-th roots cancel.  A ``Polynomial`` inverts by
:func:`solve_monotone`, which runs on the map's grid, each evaluation off by at
most (d + 1) 2**(d - 31) times 10 tau.  Warm, from a point inside the lap such
as a marked point's position one pull-back earlier, it is Newton alone; cold,
or should that fail, a bisection/Newton hybrid on a bracket that doubles
outward on laps extending to infinity (targets may sit arbitrarily close to
critical values, where the derivative underflows and bare Newton crawls or
escapes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb as binomial, isqrt

from mpmath.ctx_mp import MPContext
from mpmath.libmp import MPZ, fzero, mpf_mul_int

GUARD_DIGITS = 3
MIN_DIGITS = 15
NEWTON_TOL_SHIFT = 6  # the gap-map inversion's residual target is 10**(-digits + shift)

# Outward doublings allowed when bracketing a root on an unbounded lap.
BRACKET_DOUBLINGS = 200
WARM_NEWTON_STEPS = 12  # a warm lap solve's Newton steps before it falls back to bracketing
_GUARD_BITS = 32  # bits of the value grid below the lap solvers' bound 10 tau

_CONTEXTS = {}  # digits -> the one mpmath context every PrecisionContext shares


class RootBracketError(ArithmeticError):
    """The requested target cannot be bracketed on the given lap."""


class cached(cached_property):
    """``functools.cached_property`` without the lock it takes before Python 3.12."""

    def __get__(self, instance, owner=None):  # only while the instance holds no value
        return self if instance is None else instance.__dict__.setdefault(
            self.attrname, self.func(instance))


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

    @cached
    def tau(self):
        return self.mp.mpf(10) ** (GUARD_DIGITS - self.digits)

    @cached
    def solve_tol(self):  # raw 10 * tau, the lap solvers' residual bound for |target| <= 1
        return mpf_mul_int(self.tau._mpf_, 10, *self.mp._prec_rounding)

    @cached
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
        object.__setattr__(self, "coefficients", tuple(coeffs))
        self._keep(kind, [to_pair(c._mpf_) for c in reversed(coeffs)])  # refuses inf and nan

    def _keep(self, kind, pairs):  # the coefficients as pairs, leading first
        low, ints = over_one_exponent(pairs)
        object.__setattr__(self, "_exact", (kind, low, ints))  # ints over 2**low, leading first
        object.__setattr__(self, "_blocks", {})  # the grids of block()

    @classmethod
    def from_pairs(cls, pairs, context: MPContext) -> "Polynomial":
        """The polynomial with the ascending coefficient ``pairs`` (m, e), each already
        rounded to the precision of ``context``: their integers kept, boxed when first read."""
        pairs = list(pairs)
        while len(pairs) > 1 and not pairs[-1][0]:
            pairs.pop()
        self = object.__new__(cls)
        self._keep(context.mpf, pairs[::-1])
        return self

    def __getattr__(self, name):  # the coefficients of from_pairs, boxed when first read
        if name != "coefficients":
            raise AttributeError(name)
        kind, low, descending = self._exact
        boxed = tuple(kind.context.make_mpf(to_raw((c, low))) for c in reversed(descending))
        object.__setattr__(self, "coefficients", boxed)
        return boxed

    @property
    def degree(self) -> int:
        return len(self._exact[2]) - 1

    def __call__(self, x):
        kind, low, descending = self._exact
        if type(x) is not kind:
            x = kind(x)
        xm, xe = to_pair(x._mpf_)
        if xe >= 0:
            xm, xe = xm << xe, 0
        acc = 0  # p(x) over 2**(low + xe d): Horner on x's mantissa, C_(d-i) times 2**(-xe i)
        for i, c in enumerate(descending):
            acc = acc * xm + (c << -xe * i)
        prec = kind.context.prec
        return kind.context.make_mpf(to_raw(pair_round(acc, low + xe * self.degree, prec)))

    def derivative(self) -> "Polynomial":
        """The derivative, built once per polynomial."""
        return self._derivative

    @cached
    def _derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((self.coefficients[0] * 0,))
        return Polynomial(tuple(c * (i + 1) for i, c in enumerate(self.coefficients[1:])))

    def block(self, ctx: PrecisionContext, wide: int) -> tuple:
        """``(unit, values, slopes)``: the coefficients, leading first, and those of the
        derivative as integers over 2**unit, the value grid of ``ctx`` for
        |x| < 2**(wide + 1) (:func:`grid_unit`); built once per precision and width."""
        key = ctx.digits, wide
        if (grid := self._blocks.get(key)) is None:
            unit, degree = grid_unit(ctx, self.degree, wide), self.degree
            _, low, descending = self._exact
            values = [to_block((c, low), unit) for c in descending]
            slopes = [(degree - i) * c for i, c in enumerate(values[:-1])]
            grid = self._blocks[key] = unit, values, slopes
        return grid

    def on_grid(self, points, ctx: PrecisionContext) -> tuple:
        """``(unit, values, error)``: self at the pairs ``points`` as integers over
        2**unit, by :func:`block_horner` on the grid of the narrowest width holding the
        points, each within ``error`` units of the exact value."""
        xs, shift, wide = x_grid(points, ctx)
        unit, values, _ = self.block(ctx, wide)
        return unit, [block_horner(values, x, shift) for x in xs], grid_error(self.degree, wide)

    def preimages(self, targets, laps, ctx: PrecisionContext, starts) -> list:
        """For each ``laps[j] = (lo, hi, orientation)``, the x with self(x) = ``targets[j]``
        on that lap by :func:`solve_monotone` from ``starts[j]``; None where the lap is None."""
        return [None if lap is None else solve_monotone(self, target, *lap, ctx, start=start)
                for target, lap, start in zip(targets, laps, starts)]

    def frame(self, targets, laps, critical_points, ctx: PrecisionContext, starts) -> tuple:
        """``(framed, moved, A, B)``: A and B, the solutions of self(x) = ``targets[i]`` on
        ``laps[i]`` (the first and the last lap, unbounded outward) by
        :func:`solve_monotone` from ``starts[i]``, the map x |-> self(A + (B - A) x) by
        :func:`affine_substitute`, and the ``critical_points`` carried with it.  Unless
        B > A there is no frame, and the map and its critical points come back as they are."""
        A, B = (solve_monotone(self, target, *lap, ctx, start=start)
                for target, lap, start in zip(targets, laps, starts))
        prec, box, low = ctx.mp.prec, ctx.mp.make_mpf, to_pair(A._mpf_)
        scale = pair_sub(to_pair(B._mpf_), low, prec)  # B - A, rounded once
        if scale[0] <= 0:
            return self, tuple(critical_points), A, B
        moved = tuple(box(to_raw(pair_div(pair_sub(to_pair(p), low, prec), scale, prec)))
                      for p in unboxed(ctx.mp.mpf, critical_points))
        return affine_substitute(self, A, box(to_raw(scale))), moved, A, B


@dataclass(frozen=True)
class PowerMap:
    """``value + lead * (x - center)**degree`` in mpfs of one context: a map with one
    critical point that evaluates like a :class:`Polynomial`, whose ``coefficients``
    come from one cached expansion, :attr:`expanded`, and whose ``derivative()``,
    ``frame`` and ``preimages`` stay in closed form: the derivative is
    ``degree * lead * (x - center)**(degree - 1)``, and ``frame`` and ``preimages``
    invert by the module's one ratio of integer roots.  A map that ``frame`` returns
    carries its ``framing``, the integers its ``preimages`` divide by; it takes no
    part in equality, hashing or repr."""

    center: object
    value: object
    lead: object
    degree: int
    # (prec, rho_0, rho_0 + rho_n) of the map as frame returns it, on x's grid at prec bits
    framing: tuple | None = field(default=None, compare=False, repr=False)

    def __call__(self, x):
        kind, degree = type(self.lead), self.degree
        (xm, xe), (cm, ce), (lead, e_lead), value = map(
            to_pair, unboxed(kind, (x, self.center, self.lead, self.value)))
        low = min(xe, ce)  # x - center is exact over 2**low
        rise = lead * ((xm << xe - low) - (cm << ce - low)) ** degree, e_lead + low * degree
        return kind.context.make_mpf(to_raw(pair_add(value, rise, kind.context.prec)))

    @property
    def _lead_sign(self) -> int:
        return -1 if self.lead._mpf_[0] else 1

    def on_grid(self, points, ctx: PrecisionContext) -> tuple:
        """:meth:`Polynomial.on_grid` in closed form: value + lead * (x - center)**degree
        with x and the center on x's grid, the power exact and the rest rounded once."""
        xs, shift, wide = x_grid(points, ctx)
        degree = self.degree
        unit = grid_unit(ctx, degree, wide)
        center, value, (lead, exponent) = (
            to_pair(v) for v in unboxed(ctx.mp.mpf, (self.center, self.value, self.lead)))
        center, value = to_block(center, -shift), to_block(value, unit)
        exponent -= shift * degree  # of lead * (x - center)**degree on x's grid
        values = [value + to_block((lead * (x - center) ** degree, exponent), unit) for x in xs]
        return unit, values, grid_error(degree, wide)

    def _rises(self, targets, ctx: PrecisionContext) -> tuple:
        """``(shift, rises)``: sign(lead) (t - value) for each target t, on x's grid
        (:func:`x_grid`), and 0 within the residual bound of the value.  A target beyond
        the critical value raises :class:`RootBracketError`; an odd degree, or an
        infinite or nan target or value, raises ValueError."""
        if self.degree % 2:
            raise ValueError(f"closed-form lap inversion needs an even degree, got {self.degree}")
        (value, *points), shift, _ = x_grid(
            [to_pair(v) for v in unboxed(ctx.mp.mpf, (self.value, *targets))], ctx)
        one, bound, sign = 1 << shift, to_block(to_pair(ctx.solve_tol), -shift), self._lead_sign
        rises = []
        for point, target in zip(points, targets):
            rise = sign * (point - value)
            if abs(rise) <= (bound if abs(point) <= one else bound * abs(point) >> shift):
                rise = 0
            elif rise < 0:
                raise RootBracketError(f"target {ctx.format(target, 8)} lies beyond the "
                                       f"critical value {ctx.format(self.value, 8)}")
            rises.append(rise)
        return shift, rises

    def frame(self, targets, laps, critical_points, ctx: PrecisionContext, starts) -> tuple:
        """:meth:`Polynomial.frame` by the module's ratio of integer roots, so ``laps``,
        ``critical_points`` and ``starts`` go unused: A left of the center and B right
        of it, center -+ (|t - value| / |lead|)**(1/degree) floored on x's grid, and the
        map and its moved center from the roots rho_0, rho_n of the two targets, each
        rounded once.  Unless rho_0 + rho_n > 0, A = B and the map comes back as it is."""
        prec, box = ctx.mp.prec, ctx.mp.make_mpf
        shift, rises = self._rises(targets, ctx)
        degree, (lead, exponent) = self.degree, to_pair(self.lead._mpf_)
        center = to_block(to_pair(self.center._mpf_), -shift)
        k = shift * (degree - 1) - exponent  # rise / |lead| on x's grid is rise 2**k / |lead|
        a, b = (iroot((rise << max(k, 0)) // (abs(lead) << max(-k, 0)), degree) for rise in rises)
        A, B = (box(to_raw(pair_round(x, -shift, prec))) for x in (center - a, center + b))
        low, high = (iroot(rise << shift * (degree - 1), degree) for rise in rises)
        total = low + high
        if not total:
            return self, (self.center,), A, B
        framed = PowerMap(box(to_raw(pair_div((low, 0), (total, 0), prec))), self.value,
                          box(to_raw(pair_round(self._lead_sign * total**degree,
                                                -shift * degree, prec))), degree,
                          (prec, low, total))
        return framed, (framed.center,), A, B

    def preimages(self, targets, laps, ctx: PrecisionContext, starts) -> list:
        """:meth:`Polynomial.preimages` by the module's ratio of integer roots, for a map
        as :meth:`frame` returns it, so ``starts`` go unused: its laps end at 0, its
        center and 1, and it carries rho_0 and rho_0 + rho_n from its framing.  Only the
        targets on given laps are read, one integer root each.

        The residual contract is :func:`solve_monotone`'s: a target within the bound of
        ``value`` returns the center, and a root past 0 or 1 that lap end, coerced into
        ctx, if the end meets the bound.  No root crosses the center.  Any other root
        past 0 or 1, or a target beyond the critical value, raises
        :class:`RootBracketError`; an odd degree, an infinite or nan target or value, or
        a map without a framing at the precision of ctx raises ValueError.
        """
        prec, box, degree = ctx.mp.prec, ctx.mp.make_mpf, self.degree
        given = [j for j, lap in enumerate(laps) if lap is not None]
        shift, rises = self._rises([targets[j] for j in given], ctx)
        if self.framing is None or self.framing[0] != prec:
            raise ValueError(f"closed-form lap inversion needs a map framed at {prec} bits")
        _, low, total = self.framing
        up, sign = shift * (degree - 1), self._lead_sign
        points = [None] * len(laps)
        for j, rise in zip(given, rises):
            (lo, hi, orientation), target = laps[j], targets[j]
            x = low + orientation * sign * iroot(rise << up, degree)  # the root times rho_0 + rho_n
            point = box(to_raw(pair_div((x, 0), (total, 0), prec)))
            if not 0 <= x <= total:  # past 0 or 1; no root crosses the center
                end, goal = ctx.mpf(lo if x < 0 else hi), to_pair(ctx.mpf(target)._mpf_)
                miss, at = pair_sub(to_pair(self(end)._mpf_), goal, prec)
                if pair_lt(scaled_bound(to_pair(ctx.solve_tol), goal, prec), (abs(miss), at)):
                    raise RootBracketError(
                        f"target {ctx.format(target, 8)} outside lap range: its root "
                        f"{ctx.format(point, 8)} lies beyond the lap end {ctx.format(end, 8)}"
                    )
                point = end
            points[j] = point
        return points

    @cached
    def expanded(self) -> Polynomial:
        """``value + lead * (x - center)**degree`` by the binomial theorem: each
        coefficient exact in integers, the value added to the constant, rounded once."""
        kind = type(self.lead)
        (lead, e_lead), (center, e_center), (value, e_value) = (
            to_pair(v) for v in unboxed(kind, (self.lead, self.center, self.value)))
        degree, prec = self.degree, kind.context.prec
        terms = [(lead * binomial(degree, i) * (-center) ** (degree - i),
                  e_lead + e_center * (degree - i)) for i in range(degree + 1)]
        terms[0] = pair_add(terms[0], (value, e_value), prec)
        return Polynomial(tuple(kind.context.make_mpf(to_raw(pair_round(m, e, prec)))
                                for m, e in terms))

    @property
    def coefficients(self) -> tuple:
        return self.expanded.coefficients

    def derivative(self) -> "PowerMap":
        return PowerMap(self.center, 0 * self.value, self.degree * self.lead, self.degree - 1)


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


def pair_add(a, b, prec):
    """a + b, exact, rounded once."""
    (am, ae), (bm, be) = a, b
    low = min(ae, be)
    return pair_round((am << ae - low) + (bm << be - low), low, prec)


def pair_sub(a, b, prec):
    """a - b, exact, rounded once."""
    return pair_add(a, (-b[0], b[1]), prec)


def pair_lt(a, b) -> bool:
    """a < b, exact."""
    low = min(a[1], b[1])
    return (a[0] << a[1] - low) < (b[0] << b[1] - low)


def scaled_bound(bound, value, prec):
    """The residual bound ``bound`` * max(1, |value|) of pairs, rounded once: ``bound``
    itself while |value| <= 1."""
    (m, e), (vm, ve) = bound, value
    return pair_round(m * abs(vm), e + ve, prec) if pair_lt((1, 0), (abs(vm), ve)) else bound


def over_one_exponent(pairs) -> tuple:
    """``(low, ints)``: the values of ``pairs`` as integers over 2**low, low the least
    exponent of a nonzero one (0 if none is)."""
    low = min((e for m, e in pairs if m), default=0)
    return low, [m << e - low if m else 0 for m, e in pairs]


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


def unboxed(kind, values) -> list:
    """Raw tuples of ``values``, coercing any that are not of type ``kind``."""
    return [v._mpf_ if type(v) is kind else kind(v)._mpf_ for v in values]


def affine_substitute(p: Polynomial, offset, scale) -> Polynomial:
    """The polynomial x |-> p(offset + scale * x), each coefficient exact, rounded once.

    With p's coefficients C_i over 2**low and offset = o 2**-t (t >= 0), p(offset +
    scale x) = 2**(low - t d) P(o + 2**t scale x), where P(w) = sum C_i 2**(t (d - i)) w**i
    has integer coefficients: P is shifted by o (a Taylor shift in integers), and its
    coefficient of w**k times (2**t scale)**k is that of x**k.  ``offset`` and
    ``scale`` are coerced into the context of p's coefficients.
    """
    kind, low, descending = p._exact
    prec, degree = kind.context.prec, p.degree
    (om, oe), (sm, se) = (to_pair(v) for v in unboxed(kind, (offset, scale)))
    if oe >= 0:
        om, oe = om << oe, 0
    shifted = [c << -oe * i for i, c in enumerate(descending)][::-1]  # P, ascending
    for i in range(degree):
        for j in reversed(range(i, degree)):
            shifted[j] += om * shifted[j + 1]
    return Polynomial.from_pairs([pair_round(c * sm**k, low + oe * (degree - k) + se * k, prec)
                                  for k, c in enumerate(shifted)], kind.context)


def to_block(pair, unit) -> int:
    """The integer nearest the value of ``pair`` over ``2**unit`` (a tie rounds up)."""
    m, e = pair
    if e >= unit:
        return m << (e - unit)
    return (m + (1 << (unit - e - 1))) >> (unit - e)


def grid_unit(ctx: PrecisionContext, degree: int, wide: int) -> int:
    """The exponent of the value grid for maps of ``degree`` on |x| < 2**(wide + 1):
    ``_GUARD_BITS`` bits below the lap solvers' bound 10 tau, less ``degree * wide``."""
    _, _, exp, bits = ctx.solve_tol
    return exp + bits - 1 - _GUARD_BITS - degree * wide


def grid_error(degree: int, wide: int) -> int:
    """Units of :func:`grid_unit` by which :func:`block_horner` may miss a map's value:
    at most 1.5 (degree + 1) max(1, |x|)**degree, and |x| < 2**(wide + 1)."""
    return (degree + 1) << (degree * (wide + 1) + 1)


def x_grid(points, ctx: PrecisionContext) -> tuple:
    """``(xs, shift, wide)``: the pairs ``points`` as integers over 2**-shift, shift =
    prec + ``_GUARD_BITS``, and the least wide >= 0 with all |x| < 2**(wide + 1)."""
    shift = ctx.mp.prec + _GUARD_BITS
    xs = [to_block(p, -shift) for p in points]
    return xs, shift, max(0, (max(map(abs, xs)) >> shift).bit_length() - 1)


def iroot(n, d: int):
    """The floor of the d-th root of the integer n >= 0, exact: ``isqrt`` for even d,
    halving d, and integer Newton from above otherwise."""
    if d % 2 == 0:
        return isqrt(n) if d == 2 else iroot(isqrt(n), d // 2)
    if d == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)  # above the root
    while (y := ((d - 1) * x + n // x ** (d - 1)) // d) < x:
        x = y
    return x


def block_horner(descending, x, shift):
    """Horner's rule on integer coefficients of one grid, leading first, and the
    integer x * 2**shift: ``acc * x >> shift`` plus each next coefficient."""
    acc = 0
    for c in descending:
        acc = (acc * x >> shift) + c
    return acc


def solve_monotone(p: Polynomial, target, lo, hi, orientation, ctx: PrecisionContext, start=None):
    """Solve p(x) = target on a monotone lap [lo, hi] (None for an end at -inf or
    +inf), or on any bracket where p - target changes sign once, as the
    gap-ratio equation of :func:`thurston.critvals.solve_gaps` does.
    ``orientation`` is +1 for increasing laps (and for a sign change from - to
    +), -1 for decreasing.  The lap may contain isolated points of vanishing
    derivative (higher-order tangencies); the result satisfies
    ``|p(x) - target| <= 10 * tau * max(1, |target|)``, and a lap end that
    meets it is returned as the caller's own value.

    Warm, from a ``start`` strictly inside the lap (such as the point's
    position one pull-back earlier), it checks the finite ends, then runs
    Newton alone on the narrowest grid holding them and the start, which it
    corrects unless its grid residual is 0 or the correction is below its
    last bit, so that a slow point still moves.  An iterate that leaves the
    lap or that grid, a slope of the wrong sign, or ``WARM_NEWTON_STEPS``
    steps short of the bound hand over to the cold solve: Newton with
    bisection on a bracket (grown by doubling from the finite end of an
    unbounded lap) from ``start`` if inside it, else from the midpoint.

    In block fixed point, x is an integer over 2**(prec + 32), rounded to
    ``prec`` bits; the coefficients C_i, the target and the bound are integers
    over 2**E, 32 bits below 10 tau (p's :meth:`Polynomial.block`), and p' has
    coefficients i * C_i.  Horner is then within 1.5 (d + 1) max(1, |x|)**d
    units of 2**E; E drops d bits per doubling of the grid's width, and the
    residual test allows for the (d + 1) 2**(d + 1) units left, so the exact
    residual meets the bound.
    """
    if lo is None and hi is None:
        raise ValueError("at least one lap end must be finite")
    mp, prec = ctx.mp, ctx.mp.prec
    shift = prec + _GUARD_BITS  # the fractional bits of x

    def own(v):  # v as an mpf of ctx (the caller's own if it is one), and on x's grid
        v = v if type(v) is mp.mpf else ctx.mpf(v)
        return v, to_block(to_pair(v._mpf_), -shift)  # to_pair refuses inf and nan

    def fit(x):  # x rounded to prec significant bits, to nearest
        n = x.bit_length() - prec
        return (x + (1 << (n - 1))) >> n << n if n > 0 else x

    target = own(target)[0]
    start = None if start is None else own(start)[1]
    tm, te = to_pair(target._mpf_)
    bound = scaled_bound(to_pair(ctx.solve_tol), (tm, te), prec)  # 10 tau max(1, |target|)
    lo, hi = (None if end is None else own(end) for end in (lo, hi))
    sense = 1 if orientation > 0 else -1

    def value_grid(wide):  # coefficients, slopes, target, allowed residual; |x| < 2**(wide + 1)
        unit, values, slopes = p.block(ctx, wide)
        allowed = to_block(bound, unit) - grid_error(p.degree, wide)
        return values, slopes, to_block((tm, te), unit), allowed

    if start is not None:  # warm: Newton alone, on the narrowest grid holding start and ends
        finite = [end for end in (lo, hi) if end is not None]
        wide = max(0, (max(abs(start), *(abs(at) for _, at in finite)) >> shift).bit_length() - 1)
        limit = 1 << shift + wide + 1  # |x| < limit on that grid
        low, high = -limit if lo is None else lo[1], limit if hi is None else hi[1]
        if low < start < high:
            values, slopes, goal, allowed = value_grid(wide)
            for end, at in finite:
                if abs(block_horner(values, at, shift) - goal) <= allowed:
                    return end
            x, correct = start, True
            for _ in range(WARM_NEWTON_STEPS):
                fx = block_horner(values, x, shift) - goal
                if not fx or (not correct and abs(fx) <= allowed):
                    return mp.make_mpf(to_raw((x, -shift)))
                correct, slope = False, block_horner(slopes, x, shift)
                newton = fit(x - (fx << shift) // slope) if sense * slope > 0 else low
                if newton == x and abs(fx) <= allowed:  # the correction is below x's last bit
                    return mp.make_mpf(to_raw((x, -shift)))
                if not low < newton < high:  # off the lap or the grid, or a wrong-signed slope
                    break
                x = newton

    values, slopes, goal, allowed = value_grid(0)

    def grow(anchor, direction, side):
        # the first end anchor + direction * 2**k at which p is past the target
        for k in range(BRACKET_DOUBLINGS):
            end = pair_add(to_pair(anchor._mpf_), (direction, k), prec)
            if sense * direction * (block_horner(values, to_block(end, -shift), shift) - goal) >= 0:
                return own(mp.make_mpf(to_raw(end)))
        raise RootBracketError(f"bracket expansion cap reached {side} the lap")

    lo, low = grow(hi[0], -1, "below") if lo is None else lo
    hi, high = grow(lo, 1, "above") if hi is None else hi
    if (wide := (max(-low, high) >> shift).bit_length() - 1) > 0:
        values, slopes, goal, allowed = value_grid(wide)

    flo, fhi = (block_horner(values, end, shift) - goal for end in (low, high))
    for end, f in ((lo, flo), (hi, fhi)):
        if abs(f) <= allowed:
            return end
    high_positive = fhi > 0
    if (flo > 0) == high_positive:
        raise RootBracketError(f"target {ctx.format(target, 8)} outside lap range "
                               f"[{ctx.format(p(lo), 8)}, {ctx.format(p(hi), 8)}]")

    correct = start is not None and low < start < high  # a warm start must be corrected
    x = start if correct else fit(low + high >> 1)  # else the midpoint
    for _ in range(300 + 4 * ctx.digits):
        fx = block_horner(values, x, shift) - goal
        if not fx or (not correct and abs(fx) <= allowed):
            return mp.make_mpf(to_raw((x, -shift)))
        correct = False
        low, high = (low, x) if (fx > 0) == high_positive else (x, high)
        slope = block_horner(slopes, x, shift)
        newton = fit(x - (fx << shift) // slope) if slope else low
        if newton == x and abs(fx) <= allowed:  # the correction is below x's last bit
            return mp.make_mpf(to_raw((x, -shift)))
        x = newton if low < newton < high else fit(low + high >> 1)  # else bisect
    raise RootBracketError("root refinement failed to meet tolerance")
