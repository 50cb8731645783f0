"""The raw-tuple kernels against the object arithmetic they replace.

The oracles below are the mpf-object versions of ``solve_monotone``,
``centered_points``, ``phi``, ``phi_jacobian``, ``solve_linear``,
``affine_substitute`` and ``fit_error``, with the object polynomial helpers they relied on.  The raw kernels must do the same
operations in the same order with the same rounding, so every output must
have the same ``_mpf_`` tuple, and every failure the same exception type and
message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thurston import combinatorics as comb
from thurston import critvals, mpnum, pullback

# ---------------------------------------------------------------- oracles


def horner(coefficients, x):
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * x + c
    return acc


def expand_roots(lead, roots, multiplicities):
    coeffs = [lead]
    for root, k in zip(roots, multiplicities):
        for _ in range(k):
            shifted = [c * (-root) for c in coeffs] + [coeffs[0] * 0]
            for i, c in enumerate(coeffs):
                shifted[i + 1] += c
            coeffs = shifted
    return coeffs


def antiderivative(coefficients, base_point, base_value):
    zero = coefficients[0] * 0
    coeffs = [zero] + [c / (i + 1) for i, c in enumerate(coefficients)]
    constant = base_value - horner(coeffs, base_point)
    return [coeffs[0] + constant] + coeffs[1:]


def divide_linear(coeffs, root):
    out = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * root
    return out


def centered_points(problem):
    mults = problem.multiplicities
    K = sum(mults)
    first = problem.gaps[0] * 0
    for i, gap in enumerate(problem.gaps):
        first -= gap * sum(mults[i + 1:])
    first /= K
    points = [first]
    for gap in problem.gaps:
        points.append(points[-1] + gap)
    return tuple(points)


def phi(problem):
    points = centered_points(problem)
    zero = points[0] * 0
    g = expand_roots(zero + 1, points, problem.multiplicities)
    G = antiderivative(g, zero, zero)
    values = [horner(G, p) for p in points]
    return tuple(abs(values[i + 1] - values[i]) for i in range(problem.r - 1))


def phi_jacobian(problem):
    mults = problem.multiplicities
    r = problem.r
    points = centered_points(problem)
    zero = points[0] * 0
    g = expand_roots(zero + 1, points, mults)
    column = [zero] * (r - 1)
    columns = [None] * (r - 1)
    for j in reversed(range(r - 1)):
        m = j + 1
        Q = antiderivative(divide_linear(g, points[m]), zero, zero)
        ends = [horner(Q, p) for p in points]
        for i in range(r - 1):
            weight = -critvals._interval_sign(mults, i) * mults[m]
            column[i] = column[i] + (ends[i + 1] - ends[i]) * weight
        columns[j] = tuple(column)
    return tuple(zip(*columns))


def solve_linear(rows, rhs, ctx):
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    tol = max(sum(abs(a[i][j]) for i in range(n)) for j in range(n)) * ctx.mp.eps
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
        acc = a[i][n]
        for k in range(i + 1, n):
            acc -= a[i][k] * x[k]
        x[i] = acc / a[i][i]
    return x


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


def affine_substitute(coefficients, offset, scale):
    zero = coefficients[0] * 0
    out = [coefficients[-1]]
    for c in reversed(coefficients[:-1]):
        nxt = [zero] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v * offset
            nxt[i + 1] += v * scale
        nxt[0] += c
        out = nxt
    return out


def fit_error(c, f, points, ctx):
    total = ctx.mp.mpf(0)
    for j in range(c.n + 1):
        diff = f(points[j]) - points[c.m[j]]
        total += diff * diff
    return ctx.mp.sqrt(total) / c.n


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
                st.integers(1, 9999), st.integers(-4, 1))


@st.composite
def phi_problems(draw):
    ctx = mpnum.PrecisionContext(draw(digits))
    r = draw(st.integers(2, 5))
    mults = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    gaps = draw(st.lists(gap, min_size=r - 1, max_size=r - 1))
    # ctx.mpf rounds a fraction, so the gaps carry full-length mantissas
    return ctx, critvals.PhiProblem(tuple(ctx.mpf(g) for g in gaps), tuple(mults))


# ---------------------------------------------------------------- gap map


@given(phi_problems())
@settings(max_examples=150, deadline=None)
def test_gap_map_is_bit_identical(case):
    _, problem = case
    assert same(critvals.centered_points(problem), centered_points(problem))
    assert same(critvals.phi(problem), phi(problem))
    assert same(critvals.phi_jacobian(problem), phi_jacobian(problem))


@given(phi_problems(), st.lists(gap, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_newton_system_solve_is_bit_identical(case, rhs):
    ctx, problem = case
    rows = phi_jacobian(problem)
    rhs = [ctx.mpf(v) for v in rhs[: len(rows)]]
    assert_same_outcome(outcome(critvals.solve_linear, rows, rhs, ctx),
                        outcome(solve_linear, rows, rhs, ctx))


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
                        outcome(solve_linear, rows, rhs, ctx))


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
    assert_same_outcome(got, outcome(solve_linear, rows, rhs, ctx))


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
    dp = mpnum.expand_roots(
        ctx.mpf(draw(st.sampled_from([-1, 1]))), (ctx.mpf(a), ctx.mpf(b)), (k1, k2)
    )
    p = mpnum.antiderivative(dp, ctx.mpf(draw(entry)), ctx.mpf(draw(entry)))
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


@given(lap_problems())
@settings(max_examples=300, deadline=None)
def test_lap_solve_is_bit_identical(case):
    inside, args, start = case
    got = outcome(mpnum.solve_monotone, *args, start=start)
    assert got[0] == ("ok" if inside else "raised")
    assert_same_outcome(got, outcome(solve_monotone, *args, start=start))


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
    want = affine_substitute(coeffs, offset, scale)
    assert got.degree == degree
    assert same(got.coefficients, want)


# ---------------------------------------------------------------- fit


@given(digits, st.integers(0, 7), st.integers(2, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_fit_error_is_bit_identical(digit_count, degree, n, data):
    ctx = mpnum.PrecisionContext(digit_count)
    coeffs = [ctx.mpf(data.draw(entry)) for _ in range(degree)]
    coeffs.append(ctx.mpf(data.draw(entry.filter(bool))))
    f = mpnum.Polynomial(tuple(coeffs))
    images = data.draw(st.lists(st.integers(0, n), min_size=n + 1, max_size=n + 1))
    c = comb.Combinatorics(tuple(images), (1,) * (n + 1))
    inner = sorted(data.draw(st.lists(st.fractions(0, 1), min_size=n - 1, max_size=n - 1)))
    points = (ctx.mp.mpf(0), *map(ctx.mpf, inner), ctx.mp.mpf(1))
    got = pullback.fit_error(c, f, pullback.MarkedConfiguration(points), ctx)
    assert same(got, fit_error(c, f, points, ctx))
