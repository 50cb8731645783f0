"""The raw-tuple and integer kernels against exact arithmetic.

One rule holds for every kernel that computes a value: it forms the exact
result in integers and rounds it once, to nearest.  So the gap map, its
Jacobian, the centered points, the realized map, the expansion of a power
map, ``affine_substitute`` and ``solve_linear`` must each have the
``_mpf_`` tuple of the exact value, worked out here in Fractions, rounded
once to nearest at the context's precision.  A linear system is singular
exactly when an exact pivot of Gaussian elimination with partial pivoting
is at most ``||rows||_1 * eps``.

``solve_monotone`` and ``fit_error`` run on a block fixed-point grid
instead, so they are held to agreement: ``fit_error`` to within the grid's
stated bound of the exact value, and ``solve_monotone`` to the same
outcome, the same exception type and message on failure, and on success two
roots inside the lap that both meet the residual bound and whose values
differ by at most twice it.  An exact warm start, and a lap end that meets
the bound, come back bit for bit.
"""

from fractions import Fraction
from math import comb as binomial, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest, to_rational

from thurston import combinatorics as comb
from thurston import critvals, mpnum, pullback
from thurston._table import ROWS

# ---------------------------------------------------------------- oracles


def horner(coefficients, x):
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * x + c
    return acc


def antiderivative(coefficients, base_point, base_value):
    zero = coefficients[0] * 0
    coeffs = [zero] + [c / (i + 1) for i, c in enumerate(coefficients)]
    constant = base_value - horner(coeffs, base_point)
    return [coeffs[0] + constant] + coeffs[1:]


def exact(v):
    """The value of an mpf as a Fraction."""
    return Fraction(*to_rational(v._mpf_))


def exact_at(p, x):
    """p(x) in exact rational arithmetic."""
    return sum(exact(c) * exact(x) ** i for i, c in enumerate(p.coefficients))


def rounded(ctx, value: Fraction):
    """``value`` rounded once to nearest at the precision of ctx."""
    raw = from_rational(value.numerator, value.denominator, ctx.mp.prec, round_nearest)
    return ctx.mp.make_mpf(raw)


def exact_points(problem):
    mults, gaps = problem.multiplicities, [exact(g) for g in problem.gaps]
    points = [-sum(g * sum(mults[i + 1:]) for i, g in enumerate(gaps)) / sum(mults)]
    for gap in gaps:
        points.append(points[-1] + gap)
    return points


def exact_product(roots, multiplicities):
    """Ascending coefficients of prod (x - roots[i])**multiplicities[i], as Fractions."""
    coeffs = [Fraction(1)]
    for root, k in zip(roots, multiplicities):
        for _ in range(k):
            coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def exact_integral(coeffs, a, b):
    return sum(c * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(coeffs))


def exact_phi(problem):
    points = exact_points(problem)
    g = exact_product(points, problem.multiplicities)
    return [abs(exact_integral(g, a, b)) for a, b in zip(points, points[1:])]


def exact_jacobian(problem):
    """ds_i / ddelta_j = -sign_i sum_{m > j} k_m * integral over [c_i, c_{i+1}] of g / (x - c_m)."""
    mults, r = problem.multiplicities, problem.r
    points = exact_points(problem)
    quotients = [exact_product(points, [k - (i == m) for i, k in enumerate(mults)])
                 for m in range(r)]
    return [[-critvals._interval_sign(mults, i) * sum(
                mults[m] * exact_integral(quotients[m], points[i], points[i + 1])
                for m in range(j + 1, r))
             for j in range(r - 1)] for i in range(r - 1)]


def exact_solve(rows, rhs, ctx):
    """rows @ x = rhs by Gaussian elimination with partial pivoting in Fractions, each
    component rounded once; an exact pivot no larger than ||rows||_1 eps is singular."""
    n = len(rhs)
    a = [[exact(v) for v in row] + [exact(b)] for row, b in zip(rows, rhs)]
    tol = max(sum(abs(a[i][j]) for i in range(n)) for j in range(n)) * exact(ctx.mp.eps)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))
        if abs(a[p][j]) <= tol:
            raise critvals.SingularJacobian("matrix is numerically singular")
        a[j], a[p] = a[p], a[j]
        for i in range(j + 1, n):
            factor = a[i][j] / a[j][j]
            for k in range(j + 1, n + 1):
                a[i][k] -= factor * a[j][k]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
    return [rounded(ctx, v) for v in x]


def solve_monotone(p, target, lo, hi, orientation, ctx, start=None):
    target = ctx.mpf(target)
    one = ctx.mp.mpf(1)

    def past_low(v):
        return v <= target if orientation > 0 else v >= target

    def past_high(v):
        return v >= target if orientation > 0 else v <= target

    if lo is None:
        anchor = ctx.mpf(hi)
        step = one
        lo = anchor - step
        for _ in range(mpnum.BRACKET_DOUBLINGS):
            plo = horner(p.coefficients, lo)
            if past_low(plo):
                break
            step *= 2
            lo = anchor - step
        else:
            raise mpnum.RootBracketError("bracket expansion cap reached below the lap")
    else:
        lo = ctx.mpf(lo)
        plo = horner(p.coefficients, lo)
    if hi is None:
        anchor = lo
        step = one
        hi = anchor + step
        for _ in range(mpnum.BRACKET_DOUBLINGS):
            phi = horner(p.coefficients, hi)
            if past_high(phi):
                break
            step *= 2
            hi = anchor + step
        else:
            raise mpnum.RootBracketError("bracket expansion cap reached above the lap")
    else:
        hi = ctx.mpf(hi)
        phi = horner(p.coefficients, hi)

    value_tol = 10 * ctx.tau * max(one, abs(target))
    flo = plo - target
    fhi = phi - target
    if abs(flo) <= value_tol:
        return lo
    if abs(fhi) <= value_tol:
        return hi
    if (flo > 0) == (fhi > 0):
        # the message reports p at the lap ends as evaluation gives it, the
        # exact value rounded once: near a root Horner's rounding shows
        plo, phi = (rounded(ctx, exact_at(p, end)) for end in (lo, hi))
        raise mpnum.RootBracketError(
            f"target {ctx.format(target, 8)} outside lap range "
            f"[{ctx.format(plo, 8)}, {ctx.format(phi, 8)}]"
        )

    dp = p.derivative()
    x = (lo + hi) / 2
    correct = False
    if start is not None:
        start = ctx.mpf(start)
        if lo < start < hi:
            x, correct = start, True
    for _ in range(300 + 4 * ctx.digits):
        fx = horner(p.coefficients, x) - target
        if fx == 0 or (abs(fx) <= value_tol and not correct):
            return x
        correct = False
        if (fx > 0) == (fhi > 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        slope = horner(dp.coefficients, x)
        stepped = False
        if slope != 0:
            candidate = x - fx / slope
            if lo < candidate < hi:
                x = candidate
                stepped = True
        if not stepped:
            x = (lo + hi) / 2
    raise mpnum.RootBracketError("root refinement failed to meet tolerance")


# ---------------------------------------------------------------- helpers


def same(got, want):
    """Bit-identical mpfs (or nested tuples/lists of them)."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got._mpf_ == want._mpf_


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except ArithmeticError as exc:
        return "raised", (type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if got[0] == "ok":
        assert same(got[1], want[1])
    else:
        assert got[1] == want[1]


digits = st.sampled_from([40, 80])
# Gaps spread over several decades, as the iteration produces them.
gap = st.builds(lambda m, e: Fraction(m, 1000) * Fraction(10) ** e,
                st.integers(1, 9999), st.integers(-8, 1))


@st.composite
def phi_problems(draw):
    ctx = mpnum.PrecisionContext(draw(digits))
    r = draw(st.integers(2, 6))
    mults = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    gaps = draw(st.lists(gap, min_size=r - 1, max_size=r - 1))
    # ctx.mpf rounds a fraction, so the gaps carry full-length mantissas
    return ctx, critvals.PhiProblem(tuple(ctx.mpf(g) for g in gaps), tuple(mults))


# ---------------------------------------------------------------- gap map


@given(phi_problems())
@settings(max_examples=150, deadline=None)
def test_gap_map_is_bit_identical(case):
    # each value is the exact one rounded once
    ctx, problem = case
    assert same(critvals.centered_points(problem),
                tuple(rounded(ctx, v) for v in exact_points(problem)))
    assert same(critvals.phi(problem), tuple(rounded(ctx, v) for v in exact_phi(problem)))
    assert same(critvals.phi_jacobian(problem),
                tuple(tuple(rounded(ctx, v) for v in row) for row in exact_jacobian(problem)))


def test_tiny_value_gap_keeps_its_relative_accuracy():
    # Phi(1, 1e-30) with multiplicities (1, 1, 1): s_2 is about 1.7e-91.  Taken
    # as a difference of rounded antiderivative values at the points, it came
    # out as 0 at 40 digits, which solve_gaps refuses as a non-positive gap.
    ctx = mpnum.PrecisionContext(40)
    problem = critvals.PhiProblem((ctx.mpf(1), ctx.mpf("1e-30")), (1, 1, 1))
    s = critvals.phi(problem)
    assert s[1] > 0
    assert same(s, tuple(rounded(ctx, v) for v in exact_phi(problem)))


@given(phi_problems(), st.lists(gap, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_newton_system_solve_is_bit_identical(case, rhs):
    ctx, problem = case
    rows = critvals.phi_jacobian(problem)
    rhs = [ctx.mpf(v) for v in rhs[: len(rows)]]
    assert_same_outcome(outcome(critvals.solve_linear, rows, rhs, ctx),
                        outcome(exact_solve, rows, rhs, ctx))


entry = st.fractions(-10, 10, max_denominator=1000)


@given(digits, st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_linear_solve_is_bit_identical(digit_count, n, data):
    # Dense matrices, some with a row that is a multiple of another (exactly
    # singular) or a column scaled down to a negligible pivot.
    ctx = mpnum.PrecisionContext(digit_count)
    rows = [[ctx.mpf(data.draw(entry)) for _ in range(n)] for _ in range(n)]
    kind = data.draw(st.sampled_from(["dense", "dependent", "negligible"]))
    if kind == "dependent" and n > 1:
        factor = ctx.mpf(data.draw(entry))
        rows[-1] = [factor * v for v in rows[0]]
    elif kind == "negligible":
        tiny = ctx.mpf(10) ** -(digit_count + 5)
        for row in rows:
            row[-1] *= tiny
    rhs = [ctx.mpf(data.draw(entry)) for _ in range(n)]
    assert_same_outcome(outcome(critvals.solve_linear, rows, rhs, ctx),
                        outcome(exact_solve, rows, rhs, ctx))


@pytest.mark.parametrize("rows", [
    [[0]],
    [[1, 2], [2, 4]],
    [[1, 0], ["1e-50", 0]],
    [[1, 0], [0, "1e-50"]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
])
def test_singular_matrices_raise_the_same_error(rows):
    ctx = mpnum.PrecisionContext(40)
    rows = [[ctx.mpf(v) for v in row] for row in rows]
    rhs = [ctx.mp.mpf(1)] * len(rows)
    got = outcome(critvals.solve_linear, rows, rhs, ctx)
    assert got[0] == "raised"
    assert_same_outcome(got, outcome(exact_solve, rows, rhs, ctx))


# ---------------------------------------------------------------- lap solver


@st.composite
def lap_problems(draw):
    """p with p' = sign (x - a)**k1 (x - b)**k2, one of its three laps, a
    target and a start.  The target lies inside the lap's range, or beyond
    it, where it cannot be bracketed; the start lies anywhere near the lap,
    its ends and the outside included, or is absent (a cold start)."""
    ctx = mpnum.PrecisionContext(draw(digits))
    a = Fraction(draw(st.integers(-40, 0)), 10)
    b = a + Fraction(draw(st.integers(1, 40)), 10)
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sign = draw(st.sampled_from([-1, 1]))
    dp = mpnum.Polynomial(tuple(rounded(ctx, sign * c) for c in exact_product((a, b), (k1, k2))))
    p = mpnum.Polynomial(tuple(antiderivative(
        list(dp.coefficients), ctx.mpf(draw(entry)), ctx.mpf(draw(entry)))))
    a, b = ctx.mpf(a), ctx.mpf(b)
    lap = draw(st.sampled_from(["below", "middle", "above"]))
    t = ctx.mpf(draw(st.fractions(0, 1)))
    inside = draw(st.booleans())
    if lap == "middle":
        # the lap between the critical points, or part of it: a lap may
        # also end where the derivative does not vanish
        shrink = st.sampled_from([0, Fraction(1, 3)])
        lo, hi = a + draw(shrink) * (b - a), b - draw(shrink) * (b - a)
        orientation = 1 if p(hi) > p(lo) else -1
        top, bottom = max(p(lo), p(hi)), min(p(lo), p(hi))
        target = p(lo) + t * (p(hi) - p(lo)) if inside else top + (1 + t) * (top - bottom)
        end = lo
    else:
        # an unbounded lap: from its finite end, p moves by ``outward`` times
        # a positive amount
        lo, hi, end = (None, a, a) if lap == "below" else (b, None, b)
        orientation = 1 if dp(a - 1 if lap == "below" else b + 1) > 0 else -1
        outward = orientation if lap == "above" else -orientation
        reach = ctx.mpf(10) ** draw(st.integers(-3, 3)) * (1 + t)
        target = p(end) + (outward if inside else -outward) * reach
    start = draw(st.one_of(
        st.none(),
        st.fractions(-1, 2).map(lambda s: end + ctx.mpf(s) * (b - a)),
    ))
    return inside, (p, target, lo, hi, orientation, ctx), start


def cubic_lap(target, start):
    """x**3 - 3x on its decreasing lap [-1, 1], as :func:`lap_problems` draws a case."""
    ctx = mpnum.PrecisionContext(40)
    p = mpnum.Polynomial(tuple(ctx.mpf(c) for c in (0, -3, 0, 1)))
    return True, (p, ctx.mpf(target), ctx.mpf(-1), ctx.mpf(1), -1, ctx), ctx.mpf(start)


def flat_end_lap():
    """p with p' = -(x + 2)**3 (x + 2/5) and p(0) = 0, as :func:`lap_problems` draws it,
    on its lap below -2 with a target beyond it: the exact p(-2) is 0 but for the
    coefficients' rounding, and Horner's differs from it in its leading digit."""
    ctx = mpnum.PrecisionContext(40)
    dp = [rounded(ctx, -c) for c in exact_product((Fraction(-2), Fraction(-2, 5)), (3, 1))]
    p = mpnum.Polynomial(tuple(antiderivative(dp, ctx.mp.mpf(0), ctx.mp.mpf(0))))
    end = ctx.mpf(-2)
    return False, (p, p(end) - 1, None, end, -1, ctx), None


def exact_residual(p, x, target):
    """p(x) - target in exact rational arithmetic."""
    return exact_at(p, x) - exact(target)


@given(lap_problems())
@example(cubic_lap(Fraction(-11, 8), Fraction(1, 2)))  # an exact warm start
@example(cubic_lap(Fraction(2) - Fraction(1, 10**37), Fraction(1, 2)))  # the lap end -1
@example(flat_end_lap())  # an end value that cancels to its last digits
@settings(max_examples=300, deadline=None)
def test_lap_solve_agrees_with_the_object_solver(case):
    inside, args, start = case
    p, target, lo, hi, _, ctx = args
    got = outcome(mpnum.solve_monotone, *args, start=start)
    want = outcome(solve_monotone, *args, start=start)
    assert got[0] == want[0] == ("ok" if inside else "raised")
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    (x, oracle), target = (got[1], want[1]), ctx.mpf(target)
    bound = 10 * ctx.tau * max(1, abs(target))
    for root in (x, oracle):
        assert (lo is None or lo <= root) and (hi is None or root <= hi)
        assert abs(p(root) - target) <= bound
    assert abs(p(x) - p(oracle)) <= 2 * bound
    if any(abs(p(end) - target) <= bound for end in (lo, hi) if end is not None):
        assert same(x, oracle)
    elif None not in (lo, hi, start) and lo < start < hi and not exact_residual(p, start, target):
        assert same(x, oracle) and same(x, start)


def test_unbracketable_targets_raise_the_same_error():
    ctx = mpnum.PrecisionContext(40)
    square = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(0), ctx.mp.mpf(1)))
    for target, lo, hi, orientation in [(2, 0, 1, 1), (-1, 0, None, 1), (-1, None, 0, -1)]:
        got = outcome(mpnum.solve_monotone, square, target, lo, hi, orientation, ctx)
        assert got[0] == "raised"
        assert_same_outcome(got, outcome(solve_monotone, square, target, lo, hi, orientation, ctx))


# ---------------------------------------------------------------- affine substitution


@given(digits, st.integers(0, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_affine_substitution_is_bit_identical(digit_count, degree, data):
    ctx = mpnum.PrecisionContext(digit_count)
    coeffs = [ctx.mpf(data.draw(entry)) for _ in range(degree)]
    coeffs.append(ctx.mpf(data.draw(entry.filter(bool))))
    offset, scale = ctx.mpf(data.draw(entry)), ctx.mpf(data.draw(entry.filter(bool)))
    got = mpnum.affine_substitute(mpnum.Polynomial(tuple(coeffs)), offset, scale)
    # the coefficient of x**k in sum_i c_i (offset + scale x)**i
    o, t = exact(offset), exact(scale)
    want = [sum(exact(c) * binomial(i, k) * o ** (i - k) for i, c in enumerate(coeffs[k:], k))
            * t**k
            for k in range(degree + 1)]
    assert got.degree == degree
    assert same(got.coefficients, tuple(rounded(ctx, c) for c in want))


@given(digits, st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_power_map_expands_exactly_rounded_once(digit_count, degree, data):
    # value + lead (x - center)**degree by the binomial theorem, each coefficient
    # the exact one rounded once
    ctx = mpnum.PrecisionContext(digit_count)
    center, value = (ctx.mpf(data.draw(entry)) for _ in range(2))
    lead = ctx.mpf(data.draw(entry.filter(bool)))
    f = mpnum.PowerMap(center, value, lead, degree)
    want = [exact(lead) * binomial(degree, i) * (-exact(center)) ** (degree - i)
            for i in range(degree + 1)]
    want[0] += exact(value)
    assert same(f.expanded.coefficients, tuple(rounded(ctx, c) for c in want))


# ---------------------------------------------------------------- fit


def exact_value(f, x: Fraction) -> Fraction:
    if isinstance(f, mpnum.PowerMap):
        return exact(f.value) + exact(f.lead) * (x - exact(f.center)) ** f.degree
    return sum(exact(c) * x ** i for i, c in enumerate(f.coefficients))


@given(digits, st.integers(0, 7), st.integers(2, 6), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_fit_error_is_within_its_grid_bound(digit_count, degree, n, power, data):
    # A dense polynomial or a PowerMap (degree 2-7), against the exact eps:
    # within (error + 1/2) sqrt(n + 1) 2**unit / n, plus one unit in its last place.
    ctx = mpnum.PrecisionContext(digit_count)
    if power:
        center, value, lead = (ctx.mpf(data.draw(entry)) for _ in range(3))
        f = mpnum.PowerMap(center, value, lead, max(degree, 2))
    else:
        coeffs = [ctx.mpf(data.draw(entry)) for _ in range(degree)]
        coeffs.append(ctx.mpf(data.draw(entry.filter(bool))))
        f = mpnum.Polynomial(tuple(coeffs))
    images = data.draw(st.lists(st.integers(0, n), min_size=n + 1, max_size=n + 1))
    c = comb.Combinatorics(tuple(images), (1,) * (n + 1))
    inner = sorted(data.draw(st.lists(st.fractions(0, 1), min_size=n - 1, max_size=n - 1)))
    points = (ctx.mp.mpf(0), *map(ctx.mpf, inner), ctx.mp.mpf(1))
    core = frozenset(data.draw(st.sets(st.integers(0, n))))
    eps, eps_core = pullback.fit_error(c, f, pullback.MarkedConfiguration(points), ctx, core)
    assert same(eps, pullback.fit_error(c, f, pullback.MarkedConfiguration(points), ctx))
    unit, _, error = f.on_grid(points, ctx)
    x = [exact(p) for p in points]
    squares = [(exact_value(f, x[j]) - x[c.m[j]]) ** 2 for j in range(n + 1)]
    for got, total in ((eps, sum(squares)), (eps_core, sum(squares[j] for j in core))):
        got = exact(got)  # isqrt(n) + 1 >= sqrt(n + 1)
        slack = (Fraction(2 * error + 1, 2) * Fraction(2) ** unit * (isqrt(n) + 1) / n
                 + got * Fraction(2) ** (1 - ctx.mp.prec))
        assert max(got - slack, 0) ** 2 <= total / n**2 <= (got + slack) ** 2


# ---------------------------------------------------------------- realization


@st.composite
def realizations(draw):
    """Critical values whose differences alternate as sigma and the
    multiplicities demand, spaced as Phi spaces them at moderate gaps."""
    ctx = mpnum.PrecisionContext(draw(digits))
    r = draw(st.integers(3, 5))
    mults = tuple(draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    sigma = draw(st.sampled_from([-1, 1]))
    gaps = [ctx.mpf(draw(st.fractions(Fraction(1, 10), 2))) for _ in range(r - 1)]
    values = [ctx.mpf(draw(entry))]
    for i, s in enumerate(critvals.phi(critvals.PhiProblem(tuple(gaps), mults))):
        values.append(values[-1] + sigma * critvals._interval_sign(mults, i) * s)
    return ctx, mults, sigma, tuple(values)


@given(realizations())
@settings(max_examples=60, deadline=None)
def test_realized_map_is_the_expanded_product_bit_for_bit(case):
    # f' = sigma * g for the inversion's final gaps and f(c_0) = values[0],
    # with the exact critical points; each coefficient rounded once
    ctx, mults, sigma, values = case
    realized = critvals.realize_critical_values(values, mults, sigma, ctx)
    points = exact_points(critvals.PhiProblem(realized.inversion.gaps, mults))
    assert same(realized.critical_points, tuple(rounded(ctx, p) for p in points))
    integral = [Fraction(0)] + [sigma * c / (j + 1)
                                for j, c in enumerate(exact_product(points, mults))]
    integral[0] = exact(values[0]) - sum(c * points[0] ** i for i, c in enumerate(integral))
    assert same(realized.polynomial.coefficients, tuple(rounded(ctx, c) for c in integral))


@pytest.mark.parametrize("text", dict.fromkeys(row.combinatorics for row in ROWS))
def test_framing_from_the_previous_map_agrees_with_a_cold_one(text):
    # the first steps of a run, framing each map with and without the
    # previous step's A and B as starts
    c, ctx = comb.parse(text), mpnum.PrecisionContext(40)
    x = pullback.init_configuration(c, ctx)
    previous = None
    for _ in range(4):
        realized = pullback.mapmake(c, x, ctx, previous)
        f = realized.polynomial
        cold = pullback.normalize(c, realized, ctx)
        warm = pullback.normalize(c, realized, ctx, previous)
        bound = 10 * ctx.tau
        for end, index in (("frame_low", 0), ("frame_high", c.n)):
            target = 0 if c.m[index] == 0 else 1
            a, b = getattr(cold, end), getattr(warm, end)
            assert abs(f(a) - target) <= bound and abs(f(b) - target) <= bound
            assert abs(a - b) <= bound * max(1, abs(a))
        x = pullback.pullback_step(c, warm, x, ctx)
        previous = warm


# ---------------------------------------------------------------- pairs between the kernels
# Each operation below once ran on mpf objects and now runs on integer pairs,
# rounded where the mpf operation rounded; the mpf expression it replaced is
# the oracle, and the two must agree bit for bit.


def detect_collapse_on_mpfs(x, threshold):
    groups = []
    for j, (a, b) in enumerate(zip(x.points, x.points[1:])):
        if b - a < threshold:
            if groups and groups[-1][-1] == j:
                groups[-1].append(j + 1)
            else:
                groups.append([j, j + 1])
    return tuple(tuple(g) for g in groups)


def ulps(ctx, value, k):
    """``value`` moved by k units in its last place at the precision of ctx."""
    m, e = mpnum.to_pair(value._mpf_)
    n = ctx.mp.prec - m.bit_length()
    return ctx.mp.make_mpf(mpnum.to_raw(((m << n) + k, e - n)))


@given(digits, st.fractions(Fraction(1, 10**12), Fraction(1, 100)),
       st.lists(st.sampled_from(["at", "below", "above", "equal", "tiny", "wide"]),
                min_size=1, max_size=8),
       st.integers(0, 200), st.fractions(Fraction(1, 10**6), Fraction(1, 10)))
@example(40, Fraction(1, 1000), ["tiny", "at", "equal", "below", "above"], 50, Fraction(1, 10))
@settings(max_examples=200, deadline=None)
def test_collapse_detection_rounds_each_gap_once(digit_count, threshold, kinds, tiny, wide):
    # Gaps at the threshold, one ulp either side of it, equal points, a gap far
    # below it and a wide one, summed up in mpfs: after the tiny point 2**-(prec +
    # tiny), the rounded gap b - a can equal the threshold while the exact one
    # lies below it.
    ctx = mpnum.PrecisionContext(digit_count)
    threshold = ctx.mpf(threshold)
    gaps = {"at": threshold, "below": ulps(ctx, threshold, -1), "above": ulps(ctx, threshold, 1),
            "equal": ctx.mp.mpf(0), "tiny": ctx.mpf(2) ** -(ctx.mp.prec + tiny),
            "wide": ctx.mpf(wide)}
    points = [ctx.mp.mpf(0)]
    for kind in kinds:
        points.append(points[-1] + gaps[kind])
    x = pullback.MarkedConfiguration((*points, ctx.mp.mpf(1)))
    assert pullback.detect_collapse(x, threshold) == detect_collapse_on_mpfs(x, threshold)


@given(digits, st.lists(st.tuples(st.integers(1, 2**20), st.integers(1, 400)), max_size=6),
       st.integers(-1, 6), st.integers(-1, 1))
@settings(max_examples=200, deadline=None)
def test_configuration_order_check_is_exact(digit_count, inner, swap, nudge):
    # points m 2**-e of mixed exponents, sorted, then possibly moved by an ulp
    # or swapped with the next one: refused exactly when some b < a
    ctx = mpnum.PrecisionContext(digit_count)
    points = [ctx.mp.mpf(0), *sorted(ctx.mpf(Fraction(m, 2**e)) for m, e in inner), ctx.mp.mpf(1)]
    if 0 < swap < len(points) - 1:
        points[swap] = ulps(ctx, points[swap], nudge)
        if swap < len(points) - 2:
            points[swap], points[swap + 1] = points[swap + 1], points[swap]
    unsorted = any(b < a for a, b in zip(points, points[1:]))
    try:
        pullback.MarkedConfiguration(tuple(points))
    except ValueError as exc:
        assert unsorted and "sorted" in str(exc)
    else:
        assert not unsorted


@given(digits, st.data())
@settings(max_examples=100, deadline=None)
def test_frame_moves_points_as_the_mpf_expression(digit_count, data):
    # p' = (x - a)(x - b), framed on its outer laps at 0 and 1 with its critical
    # values straddling 1/2; the carried points, of any exponent, move as
    # (c - A) / (B - A) and the map is affine_substitute(p, A, B - A)
    ctx = mpnum.PrecisionContext(digit_count)
    a = Fraction(data.draw(st.integers(-40, 0)), 10)
    b = a + Fraction(data.draw(st.integers(1, 40)), 10)
    dp = mpnum.Polynomial(tuple(rounded(ctx, c) for c in exact_product((a, b), (1, 1))))
    coeffs = antiderivative(list(dp.coefficients), ctx.mp.mpf(0), ctx.mp.mpf(0))
    middle = (horner(coeffs, ctx.mpf(a)) + horner(coeffs, ctx.mpf(b))) / 2
    p = mpnum.Polynomial((coeffs[0] - middle + ctx.mpf(Fraction(1, 2)), *coeffs[1:]))
    carried = tuple(ctx.mpf(data.draw(st.one_of(entry, gap))) for _ in range(data.draw(
        st.integers(0, 4))))
    laps = ((None, ctx.mpf(a), 1), (ctx.mpf(b), None, 1))
    framed, moved, A, B = p.frame((0, 1), laps, carried, ctx, (None, None))
    assert A < B
    assert same(moved, tuple((c - A) / (B - A) for c in carried))
    assert same(framed.coefficients, mpnum.affine_substitute(p, A, B - A).coefficients)


@given(digits, st.one_of(entry, gap, st.sampled_from([Fraction(1), Fraction(-1)])),
       st.integers(-1, 1))
@settings(max_examples=200, deadline=None)
def test_realization_bound_is_the_mpf_expression(digit_count, value, nudge):
    # 100 newton_tol max(1, |v|), at |v| = 1, an ulp either side of it and far from it
    ctx = mpnum.PrecisionContext(digit_count)
    v = ulps(ctx, ctx.mpf(value), nudge) if value else ctx.mp.mpf(0)
    got = critvals._realization_bound(mpnum.to_pair(v._mpf_), ctx)
    want = 100 * ctx.newton_tol * max(1, abs(v))
    assert mpnum.to_raw(got) == want._mpf_


@given(digits, gap, entry, st.integers(0, critvals.NEWTON_MAX_HALVINGS - 1))
@settings(max_examples=200, deadline=None)
def test_damped_newton_candidate_is_the_mpf_expression(digit_count, g, d, k):
    # invert_phi's candidate g - 2**-k d, the damping halved k times from 1
    ctx = mpnum.PrecisionContext(digit_count)
    g, d = ctx.mpf(g), ctx.mpf(d)
    damping = ctx.mp.mpf(1)
    for _ in range(k):
        damping /= 2
    (m, e), prec = mpnum.to_pair(d._mpf_), ctx.mp.prec
    got = mpnum.pair_sub(mpnum.to_pair(g._mpf_), (m, e - k), prec)
    assert mpnum.to_raw(got) == (g - damping * d)._mpf_
