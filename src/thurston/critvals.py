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
root-finding problem.

With two critical points Phi is the Beta integral s = delta**(K+1) B(k_1, k_2),
K = k_1 + k_2 and B(a, b) = a! b! / (a + b + 1)!, so the gap is one (K+1)-th
root.  With three, the same Beta integrals give s_i = delta_2**(K+1) P_i(u)
in the gap ratio u = delta_1/delta_2 (:func:`ratio_polynomials`): u is the
one root of (s_2/s_1) P_1 = P_2 in [0, 1], on the mirror image x -> -x if it
lies beyond 1, and delta_2 one more root.  With more, damped Newton starts
from the Chebyshev gap pattern rescaled by homogeneity, or from the Euler
predictor of a nearby inversion with the same multiplicities
(:func:`predicted_start`), as the pull-back has from one step to the next.
Should it stall or meet a singular Jacobian, path lifting
(:func:`continuation_invert`) takes over; it needs only the Jacobian to stay
invertible, which it does on the whole positive orthant.  Phi is translation
invariant, so Jacobian column j sums Phi's derivatives in the points right
of gap j; the (r-1) x (r-1) Newton systems are solved by Gaussian
elimination on plain lists.

Phi, its Jacobian and the elimination run on the correctly rounded integer
pairs of :mod:`thurston.mpnum`, in the operation order and precision of the
mpf-object oracles in the tests, so every value is bit-identical to them:
the centered points, the monic product (cached per :class:`PhiProblem` for
Phi and the Jacobian at the same gaps), the divisions, integrals, Horner
evaluations and column sums, and every pivot and elimination step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import Optional

from mpmath.ctx_mp import MPContext
from mpmath.libmp import mpf_mul_int, mpf_nthroot

from .mpnum import (
    Polynomial, PowerMap, PrecisionContext, antiderivative, pair_add, pair_cmp,
    pair_div, pair_divide_linear, pair_expand_roots, pair_horner, pair_integral, pair_mul,
    pair_round, pair_sub, solve_monotone, to_pair, to_raw, unboxed
)

NEWTON_MAX_ITERATIONS = 200
NEWTON_MAX_HALVINGS = 60
CONTINUATION_STEPS = 64
CONTINUATION_MAX_REFINEMENTS = 20


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
        for g in gaps:
            if not g > 0:
                raise ValueError("gaps must be positive")

    @property
    def r(self) -> int:
        return len(self.multiplicities)

    def total_degree(self) -> int:
        return 1 + sum(self.multiplicities)

    @cached_property
    def _centered(self):
        """The first gap's context and precision, and the centered points as pairs."""
        kind = type(self.gaps[0])
        context = getattr(kind, "context", None)
        if not isinstance(context, MPContext) or kind is not context.mpf:
            raise TypeError("gaps must be mpf values")
        prec = context.prec
        gaps = [to_pair(g) for g in unboxed(kind, self.gaps)]
        mults = self.multiplicities
        first = (0, 0)
        for i, gap in enumerate(gaps):  # first = -sum_i gap_i * (k_{i+1} + ... + k_r)
            first = pair_sub(first, pair_mul(gap, (sum(mults[i + 1:]), 0), prec), prec)
        points = [pair_div(first, (sum(mults), 0), prec)]
        for gap in gaps:
            points.append(pair_add(points[-1], gap, prec))
        return context, prec, points

    @cached_property
    def _monic(self) -> list:
        """Ascending coefficients (pairs) of g, the monic product over the
        points; Phi and its Jacobian at the same gaps share it."""
        _, prec, points = self._centered
        return pair_expand_roots((1, 0), points, self.multiplicities, prec)


def centered_points(problem: PhiProblem) -> tuple:
    """Critical points with the prescribed gaps and sum k_i c_i = 0."""
    context, _, points = problem._centered
    return tuple(context.make_mpf(to_raw(p)) for p in points)


def _interval_sign(mults, i) -> int:
    # sign of the monic product between points i and i+1: one flip per root
    # (with multiplicity) lying to the right.
    return 1 if sum(mults[i + 1:]) % 2 == 0 else -1


def _integrals(q, points, prec) -> list:
    """Values at ``points`` of the antiderivative of ``q`` vanishing at 0."""
    descending = pair_integral(q, prec)[::-1]
    return [pair_horner(descending, p, prec) for p in points]


def phi(problem: PhiProblem) -> tuple:
    """Value gaps s_i = |integral over [c_i, c_{i+1}] of the monic product|."""
    context, prec, points = problem._centered
    values = _integrals(problem._monic, points, prec)
    gaps = (pair_sub(b, a, prec) for a, b in zip(values, values[1:]))
    return tuple(context.make_mpf(to_raw((abs(m), e))) for m, e in gaps)


def phi_jacobian(problem: PhiProblem) -> tuple:
    """Exact partial derivatives ds_i / ddelta_j, as nested tuples.

    Phi is translation invariant, so widening gap j moves exactly the points
    c_m with m > j.  Moving c_m perturbs the integrand by
    ``-k_m * g(x)/(x - c_m)``, a polynomial, and the boundary terms vanish
    because g is zero at both endpoints; column j is the running sum of
    these terms' integrals over m > j, accumulated right to left.
    """
    mults = problem.multiplicities
    r = problem.r
    context, prec, points = problem._centered
    g = problem._monic
    column = [(0, 0)] * (r - 1)
    columns = [None] * (r - 1)
    for j in reversed(range(r - 1)):
        m = j + 1
        ends = _integrals(pair_divide_linear(g, points[m], prec), points, prec)
        for i in range(r - 1):
            diff = pair_sub(ends[i + 1], ends[i], prec)
            term = pair_mul(diff, (-_interval_sign(mults, i) * mults[m], 0), prec)
            column[i] = pair_add(column[i], term, prec)
        columns[j] = tuple(context.make_mpf(to_raw(v)) for v in column)
    return tuple(zip(*columns))


def chebyshev_init(r: int, multiplicities, ctx: PrecisionContext, s) -> tuple:
    """Starting gaps for the inversion of Phi at the value gaps ``s``.

    Gap pattern of the critical points of the degree r+1 first-kind
    Chebyshev polynomial (scaled by 2/4**(1/r)), then rescaled by
    homogeneity so that the components of Phi sum to sum(s).
    """
    if r < 2:
        raise ValueError("need at least two distinct critical points")
    mp = ctx.mp
    scale = 2 / mp.mpf(4) ** (mp.mpf(1) / r)
    raw = tuple(
        abs(scale * (mp.cos((j + 1) * mp.pi / (r + 1)) - mp.cos(j * mp.pi / (r + 1))))
        for j in range(1, r)
    )
    problem = PhiProblem(raw, tuple(multiplicities))
    ratio = sum(ctx.mpf(v) for v in s) / sum(phi(problem))
    factor = ratio ** (mp.mpf(1) / problem.total_degree())
    return tuple(factor * g for g in raw)


@dataclass(frozen=True)
class InversionResult:
    gaps: tuple
    iterations: int
    residuals: tuple  # max-norm residual after each accepted step
    targets: tuple = ()  # the value gaps solved for
    jacobian: Optional[tuple] = field(default=None, compare=False, repr=False)  # last solved with
    problem: Optional[PhiProblem] = field(default=None, compare=False, repr=False)  # the final one


def _checked_targets(s, multiplicities, ctx):
    s = tuple(ctx.mpf(v) for v in s)
    if any(not v > 0 for v in s):
        raise ValueError("value gaps must be positive")
    return s, tuple(int(k) for k in multiplicities)


def _residual(problem, s):
    values = phi(problem)
    res = [v - t for v, t in zip(values, s)]
    return res, max(abs(x) for x in res)


def solve_linear(rows, rhs, ctx: PrecisionContext) -> list:
    """Solve ``rows @ x = rhs`` by Gaussian elimination with partial pivoting.

    A pivot no larger than ``||rows||_1 * eps`` (mpmath's own test for a
    numerically singular matrix) raises :class:`SingularJacobian`.
    """
    mp = ctx.mp
    prec = mp.prec
    n = len(rhs)
    a = [[to_pair(v) for v in unboxed(mp.mpf, list(row) + [b])] for row, b in zip(rows, rhs)]
    norm = None
    for j in range(n):
        column = pair_round(abs(a[0][j][0]), a[0][j][1], prec)
        for i in range(1, n):
            column = pair_add(column, (abs(a[i][j][0]), a[i][j][1]), prec)
        if norm is None or pair_cmp(column, norm) > 0:
            norm = column
    tol = pair_mul(norm, to_pair(mp.eps._mpf_), prec)
    for j in range(n):
        p, pivot = j, (abs(a[j][j][0]), a[j][j][1])
        for i in range(j + 1, n):
            size = (abs(a[i][j][0]), a[i][j][1])
            if pair_cmp(size, pivot) > 0:
                p, pivot = i, size
        if pair_cmp(pivot, tol) <= 0:
            raise SingularJacobian("matrix is numerically singular")
        a[j], a[p] = a[p], a[j]
        top = a[j]
        for i in range(j + 1, n):
            row = a[i]
            factor = pair_div(row[j], top[j], prec)
            for k in range(j + 1, n + 1):
                row[k] = pair_sub(row[k], pair_mul(factor, top[k], prec), prec)
    x = [None] * n
    for i in reversed(range(n)):
        acc = a[i][n]
        for k in range(i + 1, n):
            acc = pair_sub(acc, pair_mul(a[i][k], x[k], prec), prec)
        x[i] = pair_div(acc, a[i][i], prec)
    return [mp.make_mpf(to_raw(v)) for v in x]


def invert_phi(
    s, multiplicities, ctx: PrecisionContext, initial=None, min_iterations=0
) -> InversionResult:
    """Solve Phi(gaps) = s by damped Newton from ``initial`` gaps.

    ``initial`` defaults to the Chebyshev start.  Steps are halved whenever
    they would push a gap out of the positive orthant or fail to shrink the
    max-norm residual; exhausting the damping budget raises
    :class:`NewtonStalled`, at which point callers fall back to
    :func:`continuation_invert`.  The first ``min_iterations`` steps are
    taken even when the residual already meets the tolerance; a step that
    meets it is then accepted without having to shrink the residual, which
    at the rounding floor it may not.
    """
    s, mults = _checked_targets(s, multiplicities, ctx)
    if initial is None:
        gaps = chebyshev_init(len(mults), mults, ctx, s)
    else:
        gaps = tuple(ctx.mpf(g) for g in initial)
    tol = ctx.newton_tol
    problem = PhiProblem(gaps, mults)
    res, norm = _residual(problem, s)
    trace = [norm]
    jacobian = None
    for iteration in range(NEWTON_MAX_ITERATIONS):
        if norm <= tol and iteration >= min_iterations:
            return InversionResult(tuple(gaps), iteration, tuple(trace), s, jacobian, problem)
        jacobian = phi_jacobian(problem)
        step = solve_linear(jacobian, res, ctx)
        damping = ctx.mp.mpf(1)
        for _ in range(NEWTON_MAX_HALVINGS):
            candidate = tuple(g - damping * d for g, d in zip(gaps, step))
            try:
                trial = PhiProblem(candidate, mults)
            except ValueError:  # a gap left the positive orthant
                damping /= 2
                continue
            cres, cnorm = _residual(trial, s)
            if cnorm < norm or cnorm <= tol:
                gaps, problem, res, norm = candidate, trial, cres, cnorm
                trace.append(norm)
                break
            damping /= 2
        else:
            raise NewtonStalled(f"residual stuck at {ctx.format(norm, 6)}")
    raise NewtonStalled(f"no convergence in {NEWTON_MAX_ITERATIONS} iterations")


def continuation_invert(s, multiplicities, ctx: PrecisionContext) -> InversionResult:
    """Invert Phi by lifting the straight path from the start values to s.

    Classical fourth-order Runge-Kutta with fixed steps integrates
    ``dx/dt = Phi'(x)^{-1} (s - Phi(x0))``; if any stage leaves the positive
    orthant the step size is halved and integration restarts.  The endpoint
    is polished by :func:`invert_phi`, so both routes meet one residual
    contract.
    """
    s, mults = _checked_targets(s, multiplicities, ctx)
    start = chebyshev_init(len(mults), mults, ctx, s)
    y0 = phi(PhiProblem(start, mults))
    rhs = [b - a for a, b in zip(y0, s)]

    class _LeftOrthant(Exception):
        pass

    def field(x):
        if any(not g > 0 for g in x):
            raise _LeftOrthant
        return solve_linear(phi_jacobian(PhiProblem(tuple(x), mults)), rhs, ctx)

    steps = CONTINUATION_STEPS
    for _ in range(CONTINUATION_MAX_REFINEMENTS + 1):
        x = list(start)
        h = ctx.mp.mpf(1) / steps
        try:
            for _ in range(steps):
                k1 = field(x)
                k2 = field([xi + h / 2 * ki for xi, ki in zip(x, k1)])
                k3 = field([xi + h / 2 * ki for xi, ki in zip(x, k2)])
                k4 = field([xi + h * ki for xi, ki in zip(x, k3)])
                x = [
                    xi + h / 6 * (a + 2 * b + 2 * c + d)
                    for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
                ]
                if any(not g > 0 for g in x):
                    raise _LeftOrthant
        except _LeftOrthant:
            steps *= 2
            continue
        break
    else:
        raise NewtonStalled("path lifting kept leaving the positive orthant")
    return invert_phi(s, mults, ctx, initial=x)


def rescaled_start(previous: InversionResult, s, multiplicities, ctx: PrecisionContext) -> tuple:
    """``previous.gaps`` scaled by t, with t**(1 + sum(k)) = sum(s) / sum(previous.targets).

    By homogeneity the scaled gaps solve the scaled targets exactly, so
    they are close to the solution for s when s is close to a multiple of
    ``previous.targets``.  The gaps are coerced into ``ctx``, which may
    hold more digits than the context they were found in.
    """
    ratio = sum(ctx.mpf(v) for v in s) / sum(ctx.mpf(v) for v in previous.targets)
    t = ratio ** (ctx.mp.mpf(1) / (1 + sum(multiplicities)))
    return tuple(t * ctx.mpf(g) for g in previous.gaps)


def predicted_start(previous: InversionResult, s, ctx: PrecisionContext) -> Optional[tuple]:
    """The Euler predictor ``previous.gaps + J**-1 (s - previous.targets)`` in ``ctx``, J =
    ``previous.jacobian``; None without J, if J is singular or if it leaves the orthant."""
    if previous.jacobian is None:
        return None
    change = [ctx.mpf(v) - ctx.mpf(t) for v, t in zip(s, previous.targets)]
    try:
        step = solve_linear(previous.jacobian, change, ctx)
    except SingularJacobian:
        return None
    start = tuple(ctx.mpf(g) + d for g, d in zip(previous.gaps, step))
    return start if all(g > 0 for g in start) else None


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


def solve_gaps(s, multiplicities, ctx: PrecisionContext, previous=None) -> InversionResult:
    """Gaps with Phi(gaps) = s, by the route the module docstring gives for r.

    ``previous``, the inversion of nearby value gaps for the same
    multiplicities, starts the search: for r = 3 at its gap ratio (the
    equation is scaled so that its residual bound leaves s_1 off by at most
    about 10 tau relative); for r >= 4 at :func:`predicted_start`, else
    :func:`rescaled_start`, with at least one Newton correction.
    """
    if len(multiplicities) == 2:
        s, (k1, k2) = _checked_targets(s, multiplicities, ctx)
        gaps = (_beta_root(s[0], k1, k2, ctx),)
        return InversionResult(gaps, 0, (), s, problem=PhiProblem(gaps, (k1, k2)))
    if len(multiplicities) == 3:  # u = delta_1 / delta_2 in [0, 1], on x or on -x
        s, mults = _checked_targets(s, multiplicities, ctx)
        _, _, tail_at_1, head_at_1 = ratio_polynomials(mults, ctx)
        mirrored = s[0] * head_at_1 > s[1] * tail_at_1
        (s1, s2), (k1, k2, k3) = (s[::-1], mults[::-1]) if mirrored else (s, mults)
        tail, head, _, _ = ratio_polynomials((k1, k2, k3), ctx)
        zero, ratio = ctx.mp.mpf(0), s2 / s1
        equation = Polynomial((*(-c for c in head), *(zero,) * k2, *(ratio * c for c in tail)))
        start = None if previous is None else previous.gaps[mirrored] / previous.gaps[not mirrored]
        u = solve_monotone(equation, zero, zero, 1, 1, ctx, start=start)
        second = _beta_root(s2 / Polynomial(head)(u), k1 + k2, k3, ctx)
        gaps = (second, u * second) if mirrored else (u * second, second)
        return InversionResult(gaps, 0, (), s, problem=PhiProblem(gaps, mults))
    try:
        if previous is None:
            return invert_phi(s, multiplicities, ctx)
        start = (predicted_start(previous, s, ctx)
                 or rescaled_start(previous, s, multiplicities, ctx))
        return invert_phi(s, multiplicities, ctx, initial=start, min_iterations=1)
    except (NewtonStalled, SingularJacobian):
        return continuation_invert(s, multiplicities, ctx)


@dataclass(frozen=True)
class CriticalValueSpec:
    """Prescribed values v_1..v_r at the distinct critical points, in order."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("need at least one critical value")

    @property
    def r(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RealizedMap:
    """A polynomial (a :class:`PowerMap` if r = 1) with its centered critical points."""

    polynomial: Polynomial | PowerMap
    critical_points: tuple
    gaps: tuple
    inversion: InversionResult


def realize_critical_values(
    spec: CriticalValueSpec,
    multiplicities,
    last_lap_orientation: int,
    ctx: PrecisionContext,
    previous: Optional[InversionResult] = None,
) -> RealizedMap:
    """The polynomial (unique up to affine precomposition) with these values.

    The derivative is ``sigma * prod (x - c_i)**k_i`` with sigma the
    orientation of the final lap; the value differences must alternate
    consistently with the lap orientations that sigma and the multiplicity
    parities dictate.  ``previous``, the inversion behind a map with the
    same multiplicities and nearby values, warm-starts the gap inversion
    (see :func:`solve_gaps`).
    """
    mults = tuple(int(k) for k in multiplicities)
    values = tuple(ctx.mpf(v) for v in spec.values)
    sigma = 1 if last_lap_orientation > 0 else -1
    r = len(values)
    if len(mults) != r:
        raise ValueError("one multiplicity per critical value required")

    if r == 1:
        # the antiderivative of sigma * x**k through (0, v)
        zero, degree = ctx.mp.mpf(0), mults[0] + 1
        f = PowerMap(zero, values[0], ctx.mp.mpf(sigma) / degree, degree)
        return RealizedMap(f, (zero,), (), InversionResult((), 0, ()))

    for i in range(r - 1):
        diff = values[i + 1] - values[i]
        if diff == 0:
            raise ValueError(f"critical values {i} and {i + 1} coincide")
        expected = sigma * _interval_sign(mults, i)
        if (1 if diff > 0 else -1) != expected:
            raise ValueError(
                "critical value differences are inconsistent with the lap orientations"
            )

    inversion = solve_gaps(
        [abs(values[i + 1] - values[i]) for i in range(r - 1)], mults, ctx, previous
    )
    problem = inversion.problem  # sigma * its cached monic product is f', exactly
    points = centered_points(problem)
    g = Polynomial(tuple(ctx.mp.make_mpf(to_raw((sigma * m, e))) for m, e in problem._monic))
    f = antiderivative(g, points[0], values[0])

    check_tol = 100 * ctx.newton_tol
    for point, value in zip(points, values):
        if abs(f(point) - value) > check_tol * max(1, abs(value)):
            raise RealizationError(
                "constructed map misses a prescribed critical value by "
                f"{ctx.format(abs(f(point) - value), 6)}"
            )
    return RealizedMap(f, points, inversion.gaps, inversion)
