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

The inversion runs damped Newton from a Chebyshev-flavored starting point
(gap pattern of the critical points of a first-kind Chebyshev polynomial,
rescaled by homogeneity so the largest value gap is exactly 1).  When the
caller holds the inversion of a nearby problem with the same multiplicities,
as the pull-back iteration does from one step to the next, Newton starts
instead from those gaps rescaled by homogeneity: scaling the gaps by t
scales Phi by t**(1 + sum(k_i)), so t is chosen to match the sum of the
value gaps.  Such a warm start always takes at least one Newton correction,
whose full step is accepted once its residual meets the tolerance, even at
the rounding floor.  Should Newton ever stall, a path-lifting integrator
follows the straight segment from the Chebyshev start's values to the
requested ones and polishes the endpoint with the same damped Newton; that
route only needs the Jacobian to stay invertible, which it does on the
whole positive orthant.  The Newton systems are only (r-1) x (r-1), so they
are solved by Gaussian elimination on plain lists.

Phi, its Jacobian and the elimination run on mpmath's raw ``_mpf_`` tuples:
the centered points, the monic product (expanded once per
:class:`PhiProblem` and shared by Phi and the Jacobian at the same gaps),
the synthetic divisions, integrals and Horner evaluations, and every
pivot and elimination step.  They do the object arithmetic's operations in
the same order at the same precision and rounding, so every value is
bit-identical to it, and only the results are boxed back into mpfs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    fone, fzero, from_int, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_mul, mpf_mul_int,
    mpf_neg, mpf_sub
)

from .mpnum import (
    Polynomial, PowerMap, PrecisionContext, antiderivative, expand_roots, raw_divide_linear,
    raw_expand_roots, raw_horner, raw_integral, unboxed
)

NEWTON_TOL_SHIFT = 6  # residual target is 10**(-digits + shift)
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
        """The first gap's mpf context, its precision and rounding, and the
        centered points as raw tuples; other gaps are coerced into it."""
        kind = type(self.gaps[0])
        context = getattr(kind, "context", None)
        if not isinstance(context, MPContext) or kind is not context.mpf:
            raise TypeError("gaps must be mpf values")
        prec, rounding = context._prec_rounding
        gaps = unboxed(kind, self.gaps)
        mults = self.multiplicities
        first = fzero
        for i, gap in enumerate(gaps):
            weight = mpf_mul_int(gap, sum(mults[i + 1:]), prec, rounding)
            first = mpf_sub(first, weight, prec, rounding)
        points = [mpf_div(first, from_int(sum(mults)), prec, rounding)]
        for gap in gaps:
            points.append(mpf_add(points[-1], gap, prec, rounding))
        return context, prec, rounding, points

    @cached_property
    def _monic(self) -> list:
        """Raw ascending coefficients of g, the monic product over the points;
        Phi and its Jacobian at the same gaps share it."""
        _, prec, rounding, points = self._centered
        return raw_expand_roots(fone, points, self.multiplicities, prec, rounding)


def centered_points(problem: PhiProblem) -> tuple:
    """Critical points with the prescribed gaps and sum k_i c_i = 0."""
    context, _, _, points = problem._centered
    return tuple(map(context.make_mpf, points))


def _interval_sign(mults, i) -> int:
    # sign of the monic product between points i and i+1: one flip per root
    # (with multiplicity) lying to the right.
    return 1 if sum(mults[i + 1:]) % 2 == 0 else -1


def _integrals(q, points, prec, rounding) -> list:
    """Values at ``points`` of the antiderivative of ``q`` vanishing at 0."""
    descending = raw_integral(q, prec, rounding)[::-1]
    return [raw_horner(descending, p, prec, rounding) for p in points]


def phi(problem: PhiProblem) -> tuple:
    """Value gaps s_i = |integral over [c_i, c_{i+1}] of the monic product|."""
    context, prec, rounding, points = problem._centered
    values = _integrals(problem._monic, points, prec, rounding)
    return tuple(
        context.make_mpf(mpf_abs(mpf_sub(b, a, prec, rounding), prec, rounding))
        for a, b in zip(values, values[1:])
    )


def phi_jacobian(problem: PhiProblem) -> tuple:
    """Exact partial derivatives ds_i / ddelta_j, as nested tuples.

    Differentiation passes through the centered points: moving critical point
    c_m perturbs the integrand by ``-k_m * g(x)/(x - c_m)``, a polynomial, and
    the boundary terms vanish because g is zero at both endpoints.
    """
    mults = problem.multiplicities
    r = problem.r
    K = sum(mults)
    context, prec, rounding, points = problem._centered
    g = problem._monic

    # d(signed integral over interval i) / d(point m)
    dS = [[None] * r for _ in range(r - 1)]
    for mi in range(r):
        q = raw_divide_linear(g, points[mi], prec, rounding)
        ends = _integrals(q, points, prec, rounding)
        for i in range(r - 1):
            diff = mpf_sub(ends[i + 1], ends[i], prec, rounding)
            dS[i][mi] = mpf_mul_int(diff, -mults[mi], prec, rounding)

    # d(point m) / d(gap j): gaps move every point right of them, and the
    # centering constraint shifts the whole configuration back.
    dc = []
    for j in range(r - 1):
        shift = mpf_div(from_int(sum(mults[j + 1:])), from_int(K), prec, rounding)
        right, left = mpf_sub(fone, shift, prec, rounding), mpf_neg(shift, prec, rounding)
        dc.append([right if mi > j else left for mi in range(r)])
    rows = []
    for i in range(r - 1):
        sign = _interval_sign(mults, i)
        row = []
        for j in range(r - 1):
            acc = fzero
            for mi in range(r):
                acc = mpf_add(acc, mpf_mul(dS[i][mi], dc[j][mi], prec, rounding), prec, rounding)
            row.append(context.make_mpf(mpf_mul_int(acc, sign, prec, rounding)))
        rows.append(tuple(row))
    return tuple(rows)


def chebyshev_init(r: int, multiplicities, ctx: PrecisionContext) -> tuple:
    """Starting gaps for the Newton inversion.

    Gap pattern of the critical points of the degree r+1 first-kind
    Chebyshev polynomial (scaled by 2/4**(1/r)), then rescaled by
    homogeneity so that the largest component of Phi equals one.
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
    peak = max(phi(problem))
    factor = (1 / peak) ** (mp.mpf(1) / problem.total_degree())
    return tuple(factor * g for g in raw)


@dataclass(frozen=True)
class InversionResult:
    gaps: tuple
    iterations: int
    residuals: tuple  # max-norm residual after each accepted step
    targets: tuple = ()  # the value gaps solved for


def _newton_tolerance(ctx: PrecisionContext):
    return ctx.mp.mpf(10) ** (NEWTON_TOL_SHIFT - ctx.digits)


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
    prec, rounding = mp._prec_rounding
    n = len(rhs)
    a = [unboxed(mp.mpf, list(row) + [b]) for row, b in zip(rows, rhs)]
    norm = None
    for j in range(n):
        column = mpf_abs(a[0][j], prec, rounding)
        for i in range(1, n):
            column = mpf_add(column, mpf_abs(a[i][j], prec, rounding), prec, rounding)
        if norm is None or mpf_gt(column, norm):
            norm = column
    tol = mpf_mul(norm, mp.eps._mpf_, prec, rounding)
    for j in range(n):
        p, pivot = j, mpf_abs(a[j][j], prec, rounding)
        for i in range(j + 1, n):
            size = mpf_abs(a[i][j], prec, rounding)
            if mpf_gt(size, pivot):
                p, pivot = i, size
        if mpf_le(pivot, tol):
            raise SingularJacobian("matrix is numerically singular")
        a[j], a[p] = a[p], a[j]
        top = a[j]
        for i in range(j + 1, n):
            row = a[i]
            factor = mpf_div(row[j], top[j], prec, rounding)
            for k in range(j + 1, n + 1):
                row[k] = mpf_sub(row[k], mpf_mul(factor, top[k], prec, rounding), prec, rounding)
    x = [None] * n
    for i in reversed(range(n)):
        acc = a[i][n]
        for k in range(i + 1, n):
            acc = mpf_sub(acc, mpf_mul(a[i][k], x[k], prec, rounding), prec, rounding)
        x[i] = mpf_div(acc, a[i][i], prec, rounding)
    return [mp.make_mpf(v) for v in x]


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
        gaps = chebyshev_init(len(mults), mults, ctx)
    else:
        gaps = tuple(ctx.mpf(g) for g in initial)
    tol = _newton_tolerance(ctx)
    problem = PhiProblem(gaps, mults)
    res, norm = _residual(problem, s)
    trace = [norm]
    for iteration in range(NEWTON_MAX_ITERATIONS):
        if norm <= tol and iteration >= min_iterations:
            return InversionResult(tuple(gaps), iteration, tuple(trace), s)
        step = solve_linear(phi_jacobian(problem), res, ctx)
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
    start = chebyshev_init(len(mults), mults, ctx)
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


def solve_gaps(s, multiplicities, ctx: PrecisionContext, previous=None) -> InversionResult:
    """Newton inversion with the continuation fallback.

    ``previous`` is the inversion of nearby value gaps for the same
    multiplicities; when given, Newton starts from its rescaled gaps and
    takes at least one correction, instead of starting from the Chebyshev
    point.
    """
    try:
        if previous is None:
            return invert_phi(s, multiplicities, ctx)
        start = rescaled_start(previous, s, multiplicities, ctx)
        return invert_phi(s, multiplicities, ctx, initial=start, min_iterations=1)
    except NewtonStalled:
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
    problem = PhiProblem(inversion.gaps, mults)
    points = centered_points(problem)
    g = expand_roots(points[0] * 0 + sigma, points, mults)
    f = antiderivative(g, points[0], values[0])

    check_tol = 100 * _newton_tolerance(ctx)
    for point, value in zip(points, values):
        if abs(f(point) - value) > check_tol * max(1, abs(value)):
            raise RealizationError(
                "constructed map misses a prescribed critical value by "
                f"{ctx.format(abs(f(point) - value), 6)}"
            )
    return RealizedMap(f, points, inversion.gaps, inversion)
