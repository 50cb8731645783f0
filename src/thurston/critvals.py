"""Polynomials with prescribed critical values.

Fix r distinct critical points with multiplicities k_1..k_r (as roots of the
derivative) and normalize the derivative to be monic and centered, so the
points are determined by their consecutive gaps delta_1..delta_{r-1} via
``sum k_i c_i = 0``.  The map

    Phi: (delta_1, ..., delta_{r-1})  |->  (s_1, ..., s_{r-1}),

where ``s_i = |integral of g over [c_i, c_{i+1}]|`` with
``g(x) = prod (x - c_i)**k_i``, sends gaps between critical points to gaps
between consecutive critical values.  It is a diffeomorphism of the open
positive orthant onto itself and homogeneous of degree ``1 + sum(k_i)``
(the total degree of the antiderivative), so inverting it reduces
"construct a polynomial with these critical values" to a well-behaved
root-finding problem.  :func:`realize_critical_values` takes the values as
a plain sequence, in the order of the critical points.

With two critical points Phi is the Beta integral s = delta**(K+1) B(k_1, k_2),
K = k_1 + k_2 and B(a, b) = a! b! / (a + b + 1)!, so the gap is one (K+1)-th
root.  With three, the same Beta integrals give s_i = delta_2**(K+1) P_i(u)
in the gap ratio u = delta_1/delta_2 (:func:`ratio_polynomials`): u is the
one root of (s_2/s_1) P_1 = P_2 in [0, 1], on the mirror image x -> -x if it
lies beyond 1, and delta_2 one more root.  With more, damped Newton starts
from the Euler predictor of a nearby inversion with the same multiplicities
(:func:`predicted_start`), as the pull-back has from one step to the next.
Without a prediction, or should Newton from it stall or meet a singular
Jacobian, Newton runs once from the Chebyshev gap pattern rescaled by
homogeneity (:func:`chebyshev_init`).  Phi is translation invariant, so
Jacobian column j sums Phi's derivatives in the points right of gap j; the
(r-1) x (r-1) Newton systems are solved by Bareiss elimination on plain lists.

Phi, its Jacobian, the centered points and the realized map come from one
exact integer expansion per :class:`PhiProblem` (``PhiProblem._exact``):
with the gaps scaled to integers, the points and the monic product are
integers, every value is a quotient of exact integers, and :func:`pair_div`
rounds it once to nearest.  So each value is correctly rounded, a small
value gap to its own relative precision, and so are the Newton systems'
solutions (:func:`solve_pairs`, fraction-free elimination).  Between these
kernels values stay pairs, each rounded once as mpmath would: the residual
Phi - s, the damped candidate g - 2**-k d, the Euler predictor and the
realized map's coefficients, which it checks on its block grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Optional

from mpmath.libmp import fzero, mpf_abs, mpf_mul_int, mpf_nthroot, mpf_sub

from .mpnum import (
    Polynomial, PowerMap, PrecisionContext, cached, over_one_exponent, pair_add, pair_div,
    pair_lt, pair_round, pair_sub, solve_monotone, to_block, to_pair, to_raw, unboxed
)

NEWTON_MAX_ITERATIONS = 200
NEWTON_MAX_HALVINGS = 60


class NewtonStalled(ArithmeticError):
    """Damped Newton could not reduce the residual further."""


class SingularJacobian(ArithmeticError):
    """The derivative matrix of Phi was numerically singular."""


class RealizationError(ArithmeticError):
    """The constructed polynomial failed to reproduce the requested values."""


@dataclass(frozen=True)
class PhiProblem:
    """Gaps between distinct critical points, with their multiplicities."""

    gaps: tuple
    multiplicities: tuple

    def __post_init__(self):
        gaps = tuple(self.gaps)
        mults = tuple(int(k) for k in self.multiplicities)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "multiplicities", mults)
        if len(gaps) != len(mults) - 1:
            raise ValueError("need exactly one gap less than there are critical points")
        if any(k < 1 for k in mults):
            raise ValueError("multiplicities must be positive")
        kind = type(gaps[0]) if gaps else None
        if gaps and kind is not getattr(getattr(kind, "context", None), "mpf", None):
            raise TypeError("gaps must be mpf values")
        if not all(not g[0] and g[1] for g in unboxed(kind, gaps)):  # raw sign tests
            raise ValueError("gaps must be positive")

    @property
    def r(self) -> int:
        return len(self.multiplicities)

    @cached
    def _exact(self) -> tuple:
        """The problem in integers, y = K x / 2**E: ``(context, E, C, h, D, LH)``.

        E is the least exponent of the gaps, G_i = delta_i / 2**E and
        K = sum k_i.  The points C_0 = -sum_i G_i (k_{i+1} + ... + k_r) and
        C_{i+1} = C_i + K G_i are K c_i / 2**E, h = prod (y - C_i)**k_i
        (ascending, degree K) has g(x) = (2**E / K)**K h(y), D[j] = L / (j + 1) for
        L = lcm(1..K+1), and LH is L times h's antiderivative from 0, at the C_i.
        """
        context = type(self.gaps[0]).context
        low, gaps = over_one_exponent([to_pair(g) for g in unboxed(context.mpf, self.gaps)])
        mults = self.multiplicities
        total = sum(mults)
        points = [-sum(g * sum(mults[i + 1:]) for i, g in enumerate(gaps))]
        for g in gaps:
            points.append(points[-1] + total * g)
        h = [1]
        for point, k in zip(points, mults):
            for _ in range(k):  # h * (y - point)
                h = [a - point * b for a, b in zip([0] + h, h + [0])]
        divisors = _antiderivative_divisors(total)
        return context, low, points, h, divisors, _integral_values(h, points, divisors)


@lru_cache(maxsize=None)
def _antiderivative_divisors(degree) -> tuple:
    """L / (j + 1) for j = 0..degree, L = lcm(1..degree + 1) first."""
    return tuple(lcm(*range(1, degree + 2)) // (j + 1) for j in range(degree + 1))


def _integral_values(q, points, divisors) -> list:
    """L times the antiderivative of the integer polynomial ``q`` vanishing at 0, at the
    integer ``points``, given L / (j + 1) for j < len(q) (:func:`_antiderivative_divisors`)."""
    descending = [d * c for d, c in zip(divisors, q)][::-1]
    values = []
    for y in points:
        acc = 0
        for c in descending:
            acc = acc * y + c
        values.append(acc * y)
    return values


def _rounded(context, pair):
    return context.make_mpf(to_raw(pair))


def centered_points(problem: PhiProblem) -> tuple:
    """Critical points with the prescribed gaps and sum k_i c_i = 0, each c_i = C_i 2**E / K
    rounded once."""
    context, low, points, h, _, _ = problem._exact
    total = (len(h) - 1, 0)
    return tuple(_rounded(context, pair_div((c, low), total, context.prec)) for c in points)


def _interval_sign(mults, i) -> int:
    # sign of the monic product between points i and i+1: one flip per root
    # (with multiplicity) lying to the right.
    return 1 if sum(mults[i + 1:]) % 2 == 0 else -1


def phi(problem: PhiProblem) -> tuple:
    """Value gaps s_i = |integral over [c_i, c_{i+1}] of the monic product|, each
    |LH(C_{i+1}) - LH(C_i)| 2**(E (K+1)) / (K**(K+1) L) rounded once."""
    context, low, _, h, divisors, values = problem._exact
    degree = len(h) - 1
    below = (degree ** (degree + 1) * divisors[0], 0)
    return tuple(_rounded(context, pair_div((abs(b - a), low * (degree + 1)), below, context.prec))
                 for a, b in zip(values, values[1:]))


def phi_jacobian(problem: PhiProblem) -> tuple:
    """Exact partial derivatives ds_i / ddelta_j, each rounded once, as nested tuples.

    Phi is translation invariant, so widening gap j moves exactly the points
    c_m with m > j.  Moving c_m perturbs the integrand by
    ``-k_m * g(x)/(x - c_m)``, a polynomial, and the boundary terms vanish
    because g is zero at both endpoints.  So column j integrates
    ``sum_{m > j} k_m h / (y - C_m)``, the quotients exact in integers and
    summed right to left, as Phi integrates h, over 2**(E K) / (K**K L).
    """
    mults, r = problem.multiplicities, problem.r
    context, low, points, h, divisors, _ = problem._exact
    degree = len(h) - 1
    below, exponent = (degree ** degree * divisors[0], 0), low * degree
    summed = [0] * degree
    columns = [None] * (r - 1)
    for j in reversed(range(r - 1)):
        root, quotient = points[j + 1], [h[-1]]  # h / (y - root), leading first
        for c in h[-2:0:-1]:
            quotient.append(c + root * quotient[-1])
        summed = [a + mults[j + 1] * b for a, b in zip(summed, reversed(quotient))]
        ends = _integral_values(summed, points, divisors)
        columns[j] = tuple(
            _rounded(context, pair_div((-_interval_sign(mults, i) * (ends[i + 1] - ends[i]),
                                        exponent), below, context.prec))
            for i in range(r - 1)
        )
    return tuple(zip(*columns))


@lru_cache(maxsize=None)
def _chebyshev_pattern(multiplicities, ctx: PrecisionContext) -> tuple:
    """The Chebyshev gap pattern in ``ctx`` and the sum of Phi over it."""
    mp, r = ctx.mp, len(multiplicities)
    scale = 2 / mp.mpf(4) ** (mp.mpf(1) / r)
    pattern = tuple(
        abs(scale * (mp.cos((j + 1) * mp.pi / (r + 1)) - mp.cos(j * mp.pi / (r + 1))))
        for j in range(1, r)
    )
    return pattern, sum(phi(PhiProblem(pattern, multiplicities)))


def chebyshev_init(multiplicities, ctx: PrecisionContext, s) -> tuple:
    """Starting gaps for the inversion of Phi at the value gaps ``s``.

    Gap pattern of the critical points of the degree r+1 first-kind
    Chebyshev polynomial, r = len(multiplicities) (scaled by 2/4**(1/r)),
    then scaled by t, with t**(1 + sum(k)) = sum(s) / sum(Phi(pattern)): Phi
    is homogeneous of that degree, so the components of Phi at the start sum
    to sum(s).  The pattern and its Phi are worked out once per
    multiplicities and precision.
    """
    if len(multiplicities) < 2:
        raise ValueError("need at least two distinct critical points")
    mp = ctx.mp
    pattern, total = _chebyshev_pattern(tuple(int(k) for k in multiplicities), ctx)
    ratio = sum(ctx.mpf(v) for v in s) / total
    t = ratio ** (mp.mpf(1) / (1 + sum(multiplicities)))
    return tuple(t * g for g in pattern)


@dataclass(frozen=True)
class InversionResult:
    gaps: tuple
    iterations: int
    residuals: tuple  # max-norm residual after each accepted step
    targets: tuple = ()  # the value gaps solved for
    jacobian: Optional[tuple] = field(default=None, compare=False, repr=False)  # last solved with
    problem: Optional[PhiProblem] = field(default=None, compare=False, repr=False)  # the final one


def _checked_targets(s, multiplicities, ctx):
    kind = ctx.mp.mpf
    s = tuple(v if type(v) is kind else ctx.mpf(v) for v in s)
    mults = tuple(int(k) for k in multiplicities)
    if len(s) != len(mults) - 1:
        raise ValueError("need exactly one value gap less than there are critical points")
    if not all(not v._mpf_[0] and v._mpf_[1] for v in s):
        raise ValueError("value gaps must be positive")
    return s, mults


def _residual(problem, targets, ctx) -> tuple:
    """``(res, norm)``: Phi - s as pairs, each rounded once, and its max-norm."""
    (values,) = _pairs([phi(problem)], ctx)
    res = [pair_sub(v, t, ctx.mp.prec) for v, t in zip(values, targets)]
    low = min(e for _, e in res)
    return res, (max(abs(m) << e - low for m, e in res), low)


def _pairs(rows, ctx: PrecisionContext) -> list:
    """Rows of mpfs (or of values ctx coerces) as rows of pairs."""
    return [[to_pair(v) for v in unboxed(ctx.mp.mpf, row)] for row in rows]


def solve_linear(rows, rhs, ctx: PrecisionContext) -> list:
    """Solve ``rows @ x = rhs`` in mpfs, by :func:`solve_pairs`."""
    *rows, rhs = _pairs((*rows, rhs), ctx)
    return [_rounded(ctx.mp, x) for x in solve_pairs(rows, rhs, ctx.mp.prec)]


def solve_pairs(rows, rhs, prec) -> list:
    """Solve ``rows @ x = rhs`` on pairs by fraction-free (Bareiss) elimination with
    partial pivoting, exact on the entries as integers over one exponent, each
    component x_i = (det x_i) / det rounded once to ``prec`` bits.

    The exact pivot j is M_j / M_(j-1), the ratio of consecutive leading minors; one
    no larger than ``||rows||_1 * eps`` (mpmath's test for a numerically singular
    matrix, on exact pivots) raises :class:`SingularJacobian`.
    """
    n = len(rhs)
    scale, a = over_one_exponent([v for row in rows for v in row])
    low, b = over_one_exponent(rhs)
    a = [a[i * n:(i + 1) * n] + [b[i]] for i in range(n)]  # over 2**scale and 2**low
    norm = max(sum(abs(row[j]) for row in a) for j in range(n))
    previous = 1  # M_(j-1)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))  # the first largest
        a[j], a[p] = a[p], a[j]
        top = a[j]
        if abs(top[j]) << prec - 1 <= norm * abs(previous):  # eps = 2**(1 - prec)
            raise SingularJacobian("matrix is numerically singular")
        for row in a[j + 1:]:
            row[j + 1:] = [(v * top[j] - row[j] * t) // previous
                           for v, t in zip(row[j + 1:], top[j + 1:])]
        previous = top[j]
    x = [0] * n  # det x, with det = M_(n-1) = previous
    for i in reversed(range(n)):
        row = a[i]
        x[i] = (row[n] * previous - sum(row[k] * x[k] for k in range(i + 1, n))) // row[i]
    return [pair_div((v, low - scale), (previous, 0), prec) for v in x]


def invert_phi(s, multiplicities, ctx: PrecisionContext, initial=None) -> InversionResult:
    """Solve Phi(gaps) = s by damped Newton from ``initial`` gaps.

    ``initial`` defaults to the Chebyshev start.  Steps are halved whenever
    they would push a gap out of the positive orthant or fail to shrink the
    max-norm residual; exhausting the damping budget raises
    :class:`NewtonStalled`.  A given start is corrected at least once, even
    when its residual already meets the tolerance; a step that meets it is
    accepted without having to shrink the residual, which at the rounding
    floor it may not.  The Chebyshev start is not forced.
    """
    s, mults = _checked_targets(s, multiplicities, ctx)
    if initial is None:
        gaps = chebyshev_init(mults, ctx, s)
    else:
        gaps = tuple(ctx.mpf(g) for g in initial)
    prec, box = ctx.mp.prec, ctx.mp.make_mpf
    targets, tol = [to_pair(v._mpf_) for v in s], to_pair(ctx.newton_tol._mpf_)
    problem = PhiProblem(gaps, mults)
    res, norm = _residual(problem, targets, ctx)
    trace = [box(to_raw(norm))]
    jacobian, pairs = None, [to_pair(g._mpf_) for g in gaps]
    for iteration in range(NEWTON_MAX_ITERATIONS):
        if not pair_lt(tol, norm) and (iteration or initial is None):
            return InversionResult(tuple(gaps), iteration, tuple(trace), s, jacobian, problem)
        jacobian = phi_jacobian(problem)
        step = solve_pairs(_pairs(jacobian, ctx), res, prec)
        for k in range(NEWTON_MAX_HALVINGS):  # the candidate g - 2**-k d, rounded once
            candidate = [pair_sub(g, (m, e - k), prec) for g, (m, e) in zip(pairs, step)]
            if any(m <= 0 for m, _ in candidate):  # a gap left the positive orthant
                continue
            trial = PhiProblem(tuple(box(to_raw(g)) for g in candidate), mults)
            cres, cnorm = _residual(trial, targets, ctx)
            if pair_lt(cnorm, norm) or not pair_lt(tol, cnorm):
                gaps, pairs, problem, res, norm = trial.gaps, candidate, trial, cres, cnorm
                trace.append(box(to_raw(norm)))
                break
        else:
            raise NewtonStalled(f"residual stuck at {ctx.format(box(to_raw(norm)), 6)}")
    raise NewtonStalled(f"no convergence in {NEWTON_MAX_ITERATIONS} iterations")


def predicted_start(previous: InversionResult, s, ctx: PrecisionContext) -> Optional[tuple]:
    """The Euler predictor ``previous.gaps + J**-1 (s - previous.targets)`` in ``ctx``, J =
    ``previous.jacobian``; None without J (an inversion that met the tolerance at its
    Chebyshev start keeps none), if J is singular or if it leaves the orthant.  ``ctx``
    may hold more digits than the context ``previous`` was found in."""
    if previous.jacobian is None:
        return None
    prec, (now, then, gaps) = ctx.mp.prec, _pairs((s, previous.targets, previous.gaps), ctx)
    change = [pair_sub(v, t, prec) for v, t in zip(now, then)]
    try:
        step = solve_pairs(_pairs(previous.jacobian, ctx), change, prec)
    except SingularJacobian:
        return None
    start = [pair_add(g, d, prec) for g, d in zip(gaps, step)]
    return tuple(map(ctx.mp.make_mpf, map(to_raw, start))) if all(m > 0 for m, _ in start) else None


def _beta(a, b) -> Fraction:  # B(a, b), the integral of t**a (1 - t)**b over [0, 1]
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 1))


def _beta_root(value, a, b, ctx: PrecisionContext):
    """The delta > 0 with delta**(a + b + 1) B(a, b) = value, by one correctly rounded root."""
    prec, rounding = ctx.mp._prec_rounding
    scaled = mpf_mul_int(value._mpf_, (a + b + 1) * comb(a + b, a), prec, rounding)  # / B(a, b)
    return ctx.mp.make_mpf(mpf_nthroot(scaled, a + b + 1, prec, rounding))


@lru_cache(maxsize=None)
def ratio_polynomials(multiplicities, ctx: PrecisionContext) -> tuple:
    """Ascending coefficients in ``ctx`` of P1(u) / u**(k1 + k2 + 1) and of P2(u), both over
    B(k1 + k2, k3) so that P2(0) = 1, then P1(1) and P2(1); see :func:`solve_gaps`."""
    k1, k2, k3 = multiplicities
    scale = _beta(k1 + k2, k3)
    exact = ([comb(k3, j) * _beta(k1, k2 + j) / scale for j in range(k3 + 1)],
             [comb(k1, i) * _beta(k1 + k2 - i, k3) / scale for i in range(k1 + 1)])
    return (*(tuple(ctx.mpf(c) for c in p) for p in exact), *(ctx.mpf(sum(p)) for p in exact))


@lru_cache(maxsize=None)
def _head_polynomial(multiplicities, ctx: PrecisionContext) -> Polynomial:
    """P2 of :func:`ratio_polynomials` as a :class:`Polynomial`."""
    return Polynomial(ratio_polynomials(multiplicities, ctx)[1])


def solve_gaps(s, multiplicities, ctx: PrecisionContext, previous=None) -> InversionResult:
    """Gaps with Phi(gaps) = s, by the route the module docstring gives for r.

    ``previous``, the inversion of nearby value gaps for the same
    multiplicities, starts the search: for r = 3 at its gap ratio (the
    equation is scaled so that its residual bound leaves s_1 off by at most
    about 10 tau relative); for r >= 4 at :func:`predicted_start`, with at
    least one Newton correction.  Without ``previous`` or a prediction from
    it, or should that Newton stall or meet a singular Jacobian, Newton runs
    once from the Chebyshev start, and its errors propagate.
    """
    s, mults = _checked_targets(s, multiplicities, ctx)
    if len(mults) == 2:
        gaps = (_beta_root(s[0], *mults, ctx),)
        return InversionResult(gaps, 0, (), s, problem=PhiProblem(gaps, mults))
    if len(mults) == 3:  # u = delta_1 / delta_2 in [0, 1], on x or on -x
        _, _, tail_at_1, head_at_1 = ratio_polynomials(mults, ctx)
        mirrored = s[0] * head_at_1 > s[1] * tail_at_1
        (s1, s2), (k1, k2, k3) = (s[::-1], mults[::-1]) if mirrored else (s, mults)
        tail, head, _, _ = ratio_polynomials((k1, k2, k3), ctx)
        zero, ratio = ctx.mp.mpf(0), s2 / s1
        equation = Polynomial((*(-c for c in head), *(zero,) * k2, *(ratio * c for c in tail)))
        start = None if previous is None else previous.gaps[mirrored] / previous.gaps[not mirrored]
        u = solve_monotone(equation, zero, zero, 1, 1, ctx, start=start)
        second = _beta_root(s2 / _head_polynomial((k1, k2, k3), ctx)(u), k1 + k2, k3, ctx)
        gaps = (second, u * second) if mirrored else (u * second, second)
        return InversionResult(gaps, 0, (), s, problem=PhiProblem(gaps, mults))
    if previous is not None and (start := predicted_start(previous, s, ctx)) is not None:
        try:
            return invert_phi(s, mults, ctx, initial=start)
        except (NewtonStalled, SingularJacobian):
            pass
    return invert_phi(s, mults, ctx)


@dataclass(frozen=True)
class RealizedMap:
    """A polynomial (a :class:`PowerMap` if r = 1) with its centered critical points."""

    polynomial: Polynomial | PowerMap
    critical_points: tuple
    inversion: InversionResult


def realize_critical_values(
    values,
    multiplicities,
    last_lap_orientation: int,
    ctx: PrecisionContext,
    previous: Optional[InversionResult] = None,
) -> RealizedMap:
    """The polynomial (unique up to affine precomposition) whose critical
    values, in order, are ``values``.

    The derivative is ``sigma * prod (x - c_i)**k_i`` with sigma the
    orientation of the final lap; the value differences must alternate
    consistently with the lap orientations that sigma and the multiplicity
    parities dictate.  ``previous``, the inversion behind a map with the
    same multiplicities and nearby values, warm-starts the gap inversion
    (see :func:`solve_gaps`).
    """
    mults = tuple(int(k) for k in multiplicities)
    kind = ctx.mp.mpf
    values = tuple(v if type(v) is kind else ctx.mpf(v) for v in values)
    if not values:
        raise ValueError("need at least one critical value")
    sigma = 1 if last_lap_orientation > 0 else -1
    r = len(values)
    if len(mults) != r:
        raise ValueError("one multiplicity per critical value required")

    if r == 1:
        # the antiderivative of sigma * x**k through (0, v)
        zero, degree = ctx.mp.mpf(0), mults[0] + 1
        f = PowerMap(zero, values[0], ctx.mp.mpf(sigma) / degree, degree)
        return RealizedMap(f, (zero,), InversionResult((), 0, ()))

    prec, rounding = ctx.mp._prec_rounding
    raw = [v._mpf_ for v in values]
    gaps = []
    for i in range(r - 1):
        diff = mpf_sub(raw[i + 1], raw[i], prec, rounding)
        if diff == fzero:
            raise ValueError(f"critical values {i} and {i + 1} coincide")
        if (-1 if diff[0] else 1) != sigma * _interval_sign(mults, i):
            raise ValueError(
                "critical value differences are inconsistent with the lap orientations"
            )
        gaps.append(ctx.mp.make_mpf(mpf_abs(diff, prec, rounding)))

    inversion = solve_gaps(gaps, mults, ctx, previous)
    problem = inversion.problem
    points = centered_points(problem)
    f = _realized_map(problem, sigma, raw[0])

    # f at its critical points on its value grid, less the grid's error
    unit, got, error = f.on_grid(points, ctx)
    for value, at in zip(map(to_pair, raw), got):
        miss = abs(at - to_block(value, unit))
        if miss > to_block(_realization_bound(value, ctx), unit) - error:
            raise RealizationError(
                "constructed map misses a prescribed critical value by "
                f"{ctx.format(_rounded(ctx.mp, (miss, unit)), 6)}"
            )
    return RealizedMap(f, points, inversion)


def _realization_bound(value, ctx: PrecisionContext) -> tuple:
    """100 newton_tol max(1, |value|) for the pair ``value``, each product rounded once."""
    (m, e), (vm, ve), prec = to_pair(ctx.newton_tol._mpf_), value, ctx.mp.prec
    m, e = pair_round(100 * m, e, prec)
    return pair_round(m * abs(vm), e + ve, prec) if pair_lt((1, 0), (abs(vm), ve)) else (m, e)


def _realized_map(problem: PhiProblem, sigma: int, value) -> Polynomial:
    """f with f' = sigma * g, g the problem's monic product, and f(c_0) = ``value`` (raw):
    the coefficient of x**(j+1) is sigma h_j 2**(E (K-j)) / (K**(K-j) (j+1)), and the
    constant term value - sigma LH(C_0) 2**(E (K+1)) / (K**(K+1) L), each rounded once."""
    context, low, _, h, divisors, values = problem._exact
    prec, degree = context.prec, len(h) - 1
    below = degree ** (degree + 1) * divisors[0]
    (vm, ve), shift = to_pair(value), low * (degree + 1)
    base = min(ve, shift)
    constant = ((vm * below << ve - base) - (sigma * values[0] << shift - base), base)
    coefficients = [pair_div(constant, (below, 0), prec)] + [
        pair_div((sigma * c, low * (degree - j)), (degree ** (degree - j) * (j + 1), 0), prec)
        for j, c in enumerate(h)
    ]
    return Polynomial.from_pairs(coefficients, context)
