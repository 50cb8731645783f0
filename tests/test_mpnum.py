"""Precision contexts, polynomial algebra, and the lap solvers."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thurston import mpnum

X = sympy.symbols("x")


def ctx40():
    return mpnum.PrecisionContext(40)


def sympy_coeffs(expr):
    """Ascending coefficient list of a sympy polynomial, as Fractions."""
    poly = sympy.Poly(sympy.expand(expr), X)
    return [Fraction(str(c)) for c in reversed(poly.all_coeffs())]


def from_roots(roots, multiplicities, sign, ctx):
    """``sign * prod (x - roots[i])**multiplicities[i]`` in ``ctx``, multiplied out one
    factor at a time on mpf objects."""
    coeffs = [ctx.mpf(sign)]
    for root, k in zip(roots, multiplicities):
        for _ in range(k):  # times (x - root)
            coeffs = [low - ctx.mpf(root) * c for low, c in zip([0] + coeffs, coeffs + [0])]
    return mpnum.Polynomial(tuple(coeffs))


def antiderivative(p, base_point, base_value):
    """The antiderivative of the Polynomial p through (base_point, base_value)."""
    coeffs = [p.coefficients[0] * 0] + [c / (i + 1) for i, c in enumerate(p.coefficients)]
    constant = base_value - mpnum.Polynomial(tuple(coeffs))(base_point)
    return mpnum.Polynomial((coeffs[0] + constant, *coeffs[1:]))


def integral(p, a, b):
    """Integral of p over [a, b] through its antiderivative."""
    zero = p.coefficients[0] * 0
    P = antiderivative(p, zero, zero)
    return P(b) - P(a)


def assert_poly_equals(ctx, p, expr, tol="1e-30"):
    expected = sympy_coeffs(expr)
    got = list(p.coefficients) + [ctx.mp.mpf(0)] * (len(expected) - (p.degree + 1))
    assert len(got) >= len(expected)
    for g, e in zip(got, expected + [Fraction(0)] * (len(got) - len(expected))):
        assert abs(g - ctx.mpf(e)) <= ctx.mpf(tol)


# ---------------------------------------------------------------- context

def test_context_tau_and_minimum():
    ctx = mpnum.PrecisionContext(30)
    assert ctx.tau == ctx.mp.mpf(10) ** -27
    with pytest.raises(ValueError):
        mpnum.PrecisionContext(14)


def test_format_and_equal():
    ctx = mpnum.PrecisionContext(30)
    assert ctx.format(ctx.mp.mpf(1) / 3, 10) == "0.3333333333"
    assert ctx.equal(1, 1 + ctx.mp.mpf("1e-40"))
    assert not ctx.equal(1, 1 + ctx.mp.mpf("1e-20"))


def test_fresh_context_coerces_foreign_values():
    ctx = ctx40()
    finer = mpnum.PrecisionContext(80)
    assert finer.digits == 80 and ctx.digits == 40
    # values from the old context participate in the new one
    assert finer.mpf(ctx.mp.mpf(1) / 4) == finer.mp.mpf(1) / 4


def test_fraction_coercion():
    ctx = ctx40()
    assert ctx.mpf(Fraction(1, 4)) == ctx.mp.mpf(1) / 4


# ---------------------------------------------------------------- polynomials

def exact(value) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(value._mpf_))


def rounded(kind, value: Fraction):
    """``value`` rounded once to nearest at the precision of the mpf type ``kind``."""
    raw = mpmath.libmp.from_rational(value.numerator, value.denominator, kind.context.prec, "n")
    return kind.context.make_mpf(raw)


def exact_value(p, x):
    """p at x, exact in Fractions and rounded once: the reference for Polynomial.__call__,
    with x first coerced into the coefficients' context."""
    kind = type(p.coefficients[-1])
    x = exact(kind(x))
    return rounded(kind, sum(exact(c) * x**i for i, c in enumerate(p.coefficients)))


@given(st.sampled_from([40, 80]),
       st.lists(st.fractions(-1000, 1000, max_denominator=10**6), min_size=1, max_size=8),
       st.fractions(-50, 50, max_denominator=10**6))
@settings(max_examples=200, deadline=None)
def test_evaluation_is_the_exact_value_rounded_once(digits, coeffs, x):
    ctx = mpnum.PrecisionContext(digits)
    p = mpnum.Polynomial(tuple(ctx.mpf(c) for c in coeffs))
    for point in (ctx.mpf(x), ctx.mp.mpf(1) / 3, -ctx.mp.mpf(0), ctx.mpf("1e-30")):
        got, want = p(point), exact_value(p, point)
        assert type(got) is type(want) and got._mpf_ == want._mpf_


def test_evaluation_coerces_other_types():
    # Every argument is coerced into the coefficients' context before evaluation.
    ctx, finer = ctx40(), mpnum.PrecisionContext(80)
    p = mpnum.Polynomial((ctx.mp.mpf(1) / 3, ctx.mp.mpf(2) / 7, ctx.mp.mpf(-5) / 11))
    kind = type(ctx.mp.mpf(0))
    # ints and floats convert exactly
    for x in (3, 0.25, -7):
        got, want = p(x), exact_value(p, x)
        assert type(got) is type(want) is kind and got._mpf_ == want._mpf_
    # a foreign-context x is first rounded into the polynomial's context
    x = finer.mp.mpf(1) / 9
    got = p(x)
    assert type(got) is kind and got._mpf_ == p(ctx.mp.mpf(x))._mpf_
    # coefficients are coerced into the leading coefficient's context
    mixed = mpnum.Polynomial((finer.mp.mpf(1) / 3, 2, ctx.mp.mpf(1)))
    assert all(type(c) is kind for c in mixed.coefficients)
    assert mixed.coefficients[0] == ctx.mp.mpf(1) / 3
    # a leading coefficient that is not an mpf is refused
    for coeffs in ((1, 2, 3), (Fraction(1, 3), 0, Fraction(1, 2)), (ctx.mp.mpf(1), 2.0)):
        with pytest.raises(TypeError):
            mpnum.Polynomial(coeffs)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_non_finite_values_are_refused(bad):
    # mpmath stores inf and nan with a zero mantissa, which integer pair
    # arithmetic would read as 0: p(inf) must not come out as p(0).
    ctx = ctx40()
    bad = ctx.mp.mpf(bad)
    with pytest.raises(ValueError, match="finite"):
        mpnum.Polynomial((bad, ctx.mp.mpf(1)))
    with pytest.raises(ValueError, match="finite"):
        mpnum.Polynomial((ctx.mp.mpf(1), ctx.mp.mpf(0), bad))
    p = square(ctx)
    with pytest.raises(ValueError, match="finite"):
        p(bad)
    for target, lo, hi, start in ((bad, 0, 2, None), (1, bad, 2, None), (1, 0, bad, None),
                                  (1, 0, None, bad)):
        with pytest.raises(ValueError, match="finite"):
            mpnum.solve_monotone(p, target, lo, hi, 1, ctx, start=start)
    # the one-critical-point path: 1 - 2 x**2, framed by its zeros (frame reads the
    # framing targets), and its closed-form roots once framed
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    f = mpnum.PowerMap(zero, one, -2 * one, 2)
    with pytest.raises(ValueError, match="finite"):
        f(bad)
    for targets in ((zero, bad), (bad, zero)):
        with pytest.raises(ValueError, match="finite"):
            f.frame(targets, None, (zero,), ctx, (None, None))
    g = f.frame((zero, zero), None, (zero,), ctx, (None, None))[0]
    with pytest.raises(ValueError, match="finite"):
        g.preimages((bad,), ((zero, g.center, 1),), ctx, (None,))


def test_caches_leave_equality_hash_and_repr_alone():
    ctx = ctx40()
    coeffs = (ctx.mp.mpf(1) / 3, ctx.mp.mpf(2), ctx.mp.mpf(-5))
    p, fresh = mpnum.Polynomial(coeffs), mpnum.Polynomial(coeffs)
    before = (repr(p), hash(p))
    p(ctx.mp.mpf(2))
    assert p.derivative() is p.derivative()
    assert p == fresh and (repr(p), hash(p)) == before == (repr(fresh), hash(fresh))
    other = mpnum.PrecisionContext(40)
    before = (repr(ctx), hash(ctx))
    assert ctx.tau is ctx.tau
    assert ctx == other and (repr(ctx), hash(ctx)) == before == (repr(other), hash(other))


def test_context_caches_its_tolerances():
    ctx, other = ctx40(), mpnum.PrecisionContext(40)
    before = (repr(ctx), hash(ctx))
    prec, rounding = ctx.mp._prec_rounding
    assert ctx.solve_tol is ctx.solve_tol and ctx.newton_tol is ctx.newton_tol
    assert ctx.solve_tol == mpmath.libmp.mpf_mul_int(ctx.tau._mpf_, 10, prec, rounding)
    assert ctx.newton_tol == ctx.mp.mpf(10) ** (mpnum.NEWTON_TOL_SHIFT - 40)
    # 10 * tau * max(1, |target|) needs no product while |target| <= 1
    bound = mpnum.to_pair(ctx.solve_tol)
    assert mpnum.scaled_bound(bound, mpnum.to_pair(ctx.mpf("0.5")._mpf_), prec) is bound
    assert ctx == other and (repr(ctx), hash(ctx)) == before == (repr(other), hash(other))


def test_contexts_of_equal_digits_share_one_mpmath_context():
    ctx, same, finer = ctx40(), mpnum.PrecisionContext(40), mpnum.PrecisionContext(80)
    assert ctx.mp is same.mp and ctx.mp is not finer.mp
    assert (ctx.mp.dps, finer.mp.dps) == (40, 80)
    assert type(ctx.mpf(1)) is type(same.mpf(2)) is not type(finer.mpf(1))


def test_from_roots_simple():
    ctx = ctx40()
    p = from_roots((0, 1), (1, 1), 1, ctx)
    assert_poly_equals(ctx, p, X**2 - X)


def test_from_roots_double_root():
    ctx = ctx40()
    p = from_roots((1,), (2,), 1, ctx)
    assert_poly_equals(ctx, p, X**2 - 2 * X + 1)


def test_from_roots_with_sign_and_antiderivative():
    ctx = ctx40()
    p = from_roots((Fraction(1, 4), 1), (1, 2), -1, ctx)
    expr = -(X - sympy.Rational(1, 4)) * (X - 1) ** 2
    assert_poly_equals(ctx, p, expr)
    P = antiderivative(p, ctx.mp.mpf(0), ctx.mp.mpf(0))
    assert_poly_equals(ctx, P, sympy.integrate(expr, X))


def test_definite_integrals():
    ctx = ctx40()
    x_poly = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(1)))
    assert ctx.equal(integral(x_poly, 0, 1), ctx.mpf(Fraction(1, 2)))

    p = from_roots((0, 1), (1, 1), 1, ctx)
    expected = Fraction(str(sympy.integrate(X * (X - 1), (X, 0, 1))))
    assert ctx.equal(integral(p, 0, 1), ctx.mpf(expected))
    assert expected == Fraction(-1, 6)

    p = from_roots((0, 1, 2), (1, 1, 1), 1, ctx)
    expected = Fraction(str(sympy.integrate(X * (X - 1) * (X - 2), (X, 0, 1))))
    assert ctx.equal(integral(p, 0, 1), ctx.mpf(expected))
    assert expected == Fraction(1, 4)


def test_definite_integral_antisymmetry():
    ctx = ctx40()
    p = from_roots((0, Fraction(1, 3), 1), (2, 1, 1), -1, ctx)
    a, b = ctx.mp.mpf(1) / 7, ctx.mp.mpf(5) / 7
    assert ctx.equal(integral(p, a, b), -integral(p, b, a))


@given(st.lists(st.integers(0, 50), min_size=2, max_size=5, unique=True),
       st.lists(st.integers(1, 3), min_size=2, max_size=5),
       st.sampled_from([-1, 1]))
@settings(max_examples=50, deadline=None)
def test_from_roots_vanishes_at_roots(roots, mults, sign):
    roots = sorted(roots)
    mults = (mults * 5)[: len(roots)]
    ctx = ctx40()
    p = from_roots([Fraction(r, 10) for r in roots], mults, sign, ctx)
    scale = max(abs(c) for c in p.coefficients)
    for r in roots:
        point = ctx.mpf(Fraction(r, 10))
        bound = ctx.tau * scale * max(ctx.mp.mpf(1), abs(point)) ** p.degree
        assert abs(p(point)) <= bound
    assert (p.coefficients[-1] > 0) == (sign > 0)


# ---------------------------------------------------------------- solver

def test_solve_square():
    ctx = ctx40()
    p = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(0), ctx.mp.mpf(1)))
    root = mpnum.solve_monotone(p, ctx.mpf(Fraction(1, 4)), 0, 1, 1, ctx)
    assert ctx.equal(root, ctx.mp.mpf(1) / 2)


def test_solve_cubic_middle_lap():
    ctx = ctx40()
    p = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(6), ctx.mp.mpf(-15), ctx.mp.mpf(10)))
    # decreasing middle lap between the critical points (5 -+ sqrt(5))/10
    lo = (5 - ctx.mp.sqrt(5)) / 10
    hi = (5 + ctx.mp.sqrt(5)) / 10
    root = mpnum.solve_monotone(p, ctx.mp.mpf(1) / 2, lo, hi, -1, ctx)
    assert ctx.equal(root, ctx.mp.mpf(1) / 2)


def test_solve_flat_root_on_extended_lap():
    # k*x*(1-x)^3 with k = 256/27: solving for value 0 on the final lap must
    # land on the flat triple root at x = 1, with the lap open to +inf.
    ctx = ctx40()
    base = from_roots((0, 1), (1, 3), -1, ctx)
    k = ctx.mp.mpf(256) / 27
    p = mpnum.Polynomial(tuple(k * c for c in base.coefficients))
    assert ctx.equal(p(ctx.mp.mpf(1) / 4), 1)
    root = mpnum.solve_monotone(p, ctx.mp.mpf(0), ctx.mp.mpf(1) / 4, None, -1, ctx)
    assert abs(root - 1) < ctx.mpf("1e-11")
    assert abs(p(root)) <= 10 * ctx.tau


def test_solve_reports_unbracketable_target():
    ctx = ctx40()
    p = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(0), ctx.mp.mpf(1)))
    with pytest.raises(mpnum.RootBracketError):
        mpnum.solve_monotone(p, ctx.mp.mpf(2), 0, 1, 1, ctx)


@given(st.integers(-40, 0), st.integers(1, 40), st.fractions(0, 1),
       st.one_of(st.none(), st.fractions(0, 1)))
@settings(max_examples=100, deadline=None)
def test_solve_residual_contract(a10, b10, t, s):
    # p increasing before a and after b, decreasing in between; solve on the
    # decreasing lap for a target interpolated between the lap's values,
    # cold or from a start anywhere in the lap, its ends included.
    ctx = ctx40()
    a, b = ctx.mpf(Fraction(a10, 10)), ctx.mpf(Fraction(b10, 10))
    dp = from_roots((Fraction(a10, 10), Fraction(b10, 10)), (1, 1), 1, ctx)
    p = antiderivative(dp, ctx.mp.mpf(0), ctx.mp.mpf(0))
    target = p(b) + ctx.mpf(t) * (p(a) - p(b))
    start = None if s is None else a + ctx.mpf(s) * (b - a)
    root = mpnum.solve_monotone(p, target, a, b, -1, ctx, start=start)
    assert a <= root <= b
    assert abs(p(root) - target) <= 10 * ctx.tau * max(1, abs(target))


def square(ctx):
    return mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(0), ctx.mp.mpf(1)))


def count_evaluations(monkeypatch):
    """Points at which solve_monotone evaluates p or p' from now on."""
    points = []
    horner = mpnum.block_horner

    def counted(descending, x, shift):
        points.append(mpmath.mp.make_mpf(mpnum.to_raw((x, -shift))))
        return horner(descending, x, shift)

    monkeypatch.setattr(mpnum, "block_horner", counted)
    return points


@pytest.mark.parametrize("start", [None, 0, 2, -1, 3, 7])
def test_solve_start_outside_lap_is_cold(start):
    # x^2 = 1/3 on [0, 2]: a start that is not strictly inside the lap is
    # ignored, and the result is bit-identical to the cold solve
    ctx = ctx40()
    target = ctx.mp.mpf(1) / 3
    cold = mpnum.solve_monotone(square(ctx), target, 0, 2, 1, ctx)
    got = mpnum.solve_monotone(square(ctx), target, 0, 2, 1, ctx, start=start)
    assert got._mpf_ == cold._mpf_


def test_solve_warm_start_takes_a_correction(monkeypatch):
    # 1/2 + 1e-39 already meets the residual tolerance for x^2 = 1/4, but a
    # warm start must still be corrected: one Newton step lands on 1/2
    ctx = ctx40()
    start = ctx.mpf(Fraction(1, 2)) + ctx.mpf("1e-39")
    p = square(ctx)
    assert abs(p(start) - ctx.mpf(Fraction(1, 4))) <= 10 * ctx.tau
    points = count_evaluations(monkeypatch)
    root = mpnum.solve_monotone(p, ctx.mpf(Fraction(1, 4)), 0, 2, 1, ctx, start=start)
    assert root == ctx.mpf(Fraction(1, 2)) and root != start
    assert len(points) > 3  # both lap ends, the start, then the correction


def test_solve_exact_warm_start_is_returned(monkeypatch):
    ctx = ctx40()
    points = count_evaluations(monkeypatch)
    start = ctx.mpf(Fraction(1, 2))
    root = mpnum.solve_monotone(square(ctx), ctx.mpf(Fraction(1, 4)), 0, 2, 1, ctx, start=start)
    assert root == start
    assert points[2:] == [start]  # after the lap ends, only the start


def test_map_from_pairs_boxes_its_coefficients_when_first_read():
    # 3/2 + 20 x**2 with a zero x term and a zero top pair, which is dropped
    ctx = ctx40()
    p = mpnum.Polynomial.from_pairs([(3, -1), (0, 5), (5, 2), (0, 7)], ctx.mp)
    assert "coefficients" not in vars(p) and p.degree == 2
    assert p(ctx.mp.mpf(2)) == ctx.mpf(Fraction(163, 2))
    assert p.coefficients == (ctx.mpf(Fraction(3, 2)), 0, 20)
    assert all(type(c) is ctx.mp.mpf for c in p.coefficients)
    assert p == mpnum.Polynomial(p.coefficients) and not hasattr(p, "roots")


def cubic_plus_linear(ctx):
    return mpnum.Polynomial(tuple(ctx.mpf(c) for c in (0, 1, 0, 1)))  # x**3 + x


def assert_lap_root(p, root, target, lo, hi, ctx):
    """``root`` lies in the lap [lo, hi] and meets the lap solvers' residual bound,
    as the cold solve's root does."""
    cold = mpnum.solve_monotone(p, target, lo, hi, 1, ctx)
    bound = 10 * ctx.tau * max(1, abs(ctx.mpf(target)))
    for x in (root, cold):
        assert (lo is None or lo <= x) and (hi is None or x <= hi)
        assert abs(p(x) - target) <= bound


def test_warm_solve_on_an_unbounded_lap_doubles_no_bracket(monkeypatch):
    # x**3 + x = 1 on [0, inf) from 0.7: the lap end, then Newton alone, all
    # on the grid of |x| < 2; bracketing would first evaluate 0 + 1
    ctx = ctx40()
    p, target, start = cubic_plus_linear(ctx), ctx.mp.mpf(1), ctx.mpf("0.7")
    points = count_evaluations(monkeypatch)
    root = mpnum.solve_monotone(p, target, 0, None, 1, ctx, start=start)
    assert points[:3] == [0, start, start] and all(abs(x) < 1 for x in points)
    assert len(points) <= 2 + 2 * mpnum.WARM_NEWTON_STEPS
    assert_lap_root(p, root, target, 0, None, ctx)


def test_warm_solve_falls_back_when_an_iterate_leaves_the_grid(monkeypatch):
    # x**3 + x = 100 from 0.5: the first Newton step lands near 57, outside the
    # grid of |x| < 2 that holds the start and the lap end 0, so the solve
    # brackets the root by doubling from 0
    ctx = ctx40()
    p, target = cubic_plus_linear(ctx), ctx.mp.mpf(100)
    points = count_evaluations(monkeypatch)
    root = mpnum.solve_monotone(p, target, 0, None, 1, ctx, start=ctx.mpf("0.5"))
    assert 57 not in [int(x) for x in points] and max(points) >= 4
    assert_lap_root(p, root, target, 0, None, ctx)


def test_warm_solve_falls_back_on_a_slope_of_the_wrong_sign(monkeypatch):
    # x**3 - x = 1/2 on [-2, 2], where p - 1/2 changes sign once (at 1.19): the
    # slope at the start 0 is -1, so the bracketed search takes over and
    # evaluates the lap ends again
    ctx = ctx40()
    p = mpnum.Polynomial(tuple(ctx.mpf(c) for c in (0, -1, 0, 1)))
    target, lo, hi = ctx.mpf(Fraction(1, 2)), ctx.mpf(-2), ctx.mpf(2)
    points = count_evaluations(monkeypatch)
    root = mpnum.solve_monotone(p, target, lo, hi, 1, ctx, start=ctx.mp.mpf(0))
    assert points[:4] == [lo, hi, 0, 0] and points[4:6] == [lo, hi]
    assert_lap_root(p, root, target, lo, hi, ctx)


def test_warm_solve_falls_back_at_its_step_cap(monkeypatch):
    # x**5 = 1e-30 on [-1, 1]: near the tangency at 0 Newton converges
    # linearly, x -> 4x/5, and from 1/2 needs about 60 steps to reach 1e-6; after
    # the cap the bracketed search evaluates the lap ends again
    ctx = ctx40()
    p = mpnum.Polynomial((ctx.mp.mpf(0),) * 5 + (ctx.mp.mpf(1),))
    target, lo, hi = ctx.mpf("1e-30"), ctx.mpf(-1), ctx.mpf(1)
    points = count_evaluations(monkeypatch)
    root = mpnum.solve_monotone(p, target, lo, hi, 1, ctx, start=ctx.mpf(Fraction(1, 2)))
    cap = 2 + 2 * mpnum.WARM_NEWTON_STEPS  # the ends, then a value and a slope per step
    assert points[cap:cap + 2] == [lo, hi]
    assert_lap_root(p, root, target, lo, hi, ctx)


@pytest.mark.parametrize("degree", [3, 7])
@pytest.mark.parametrize("side", [-1, 1])
def test_solve_far_root_on_an_unbounded_lap(degree, side):
    # x**d + x = target far out on the lap from 0 toward side * inf: the
    # bracket doubles at least 10 times, and the residual still meets its
    # bound relative to the target
    ctx = mpnum.PrecisionContext(80)
    p = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(1)) + (ctx.mp.mpf(0),) * (degree - 2)
                         + (ctx.mp.mpf(1),))
    target = side * ctx.mpf(3000) ** degree
    lo, hi = (0, None) if side > 0 else (None, 0)
    root = mpnum.solve_monotone(p, target, lo, hi, 1, ctx)
    assert abs(root) >= 2**10
    assert abs(p(root) - target) <= 10 * ctx.tau * abs(target)


@given(st.sampled_from([15, 40, 80]), st.integers(0, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_block_evaluation_error_bound(digits, degree, data):
    # On the lap solver's grids, Horner in block fixed point lies within
    # 1.5 (d + 1) max(1, |x|)**d units of the exact value of p at x
    ctx = mpnum.PrecisionContext(digits)
    spread = st.builds(lambda m, e: Fraction(m, 1000) * Fraction(10) ** e,
                       st.integers(-9999, 9999), st.integers(-30, 30))
    coefficients = [ctx.mpf(data.draw(spread)) for _ in range(degree + 1)]
    x = ctx.mpf(data.draw(st.fractions(-256, 256, max_denominator=10**6)))
    shift = ctx.mp.prec + mpnum._GUARD_BITS
    bound = mpnum.to_pair(ctx.solve_tol)
    unit = bound[1] + bound[0].bit_length() - 1 - mpnum._GUARD_BITS
    descending = [mpnum.to_block(mpnum.to_pair(c._mpf_), unit) for c in reversed(coefficients)]
    got = mpnum.block_horner(descending, mpnum.to_block(mpnum.to_pair(x._mpf_), -shift), shift)
    want = sum(exact(c) * exact(x) ** i for i, c in enumerate(coefficients))
    error = abs(got * Fraction(2) ** unit - want) / Fraction(2) ** unit  # in grid units
    assert error <= Fraction(3, 2) * (degree + 1) * max(1, abs(exact(x))) ** degree


# ---------------------------------------------------------------- pair arithmetic

PAIR_PRECS = [53, 136, 269, 1000]  # 15, 40 and 80 digits, and a long one


@st.composite
def unrounded(draw):
    """(prec, m, e): m * 2**e exact, with ties of either parity, a carry
    to 2**prec, and mantissas that need no rounding."""
    prec = draw(st.sampled_from(PAIR_PRECS))
    n = draw(st.integers(-prec, 2 * prec))  # bits to drop
    q = draw(st.integers(1, 2**prec - 1) | st.just(2**prec - 1))
    if n <= 0:
        m = q >> -n or 1
    else:
        q = q & ~1 | draw(st.integers(0, 1))
        half = 1 << (n - 1)
        low = draw(st.sampled_from([0, half, half - 1, half + 1]) | st.integers(0, 2 * half - 1))
        m = (q << n) + low
    return prec, draw(st.sampled_from([1, -1])) * m, draw(st.integers(-3000, 3000))


@given(unrounded())
@settings(max_examples=400, deadline=None)
def test_pair_rounding_matches_mpmath(case):
    prec, m, e = case
    want = mpmath.libmp.normalize(int(m < 0), abs(m), e, abs(m).bit_length(), prec, "n")
    assert mpnum.to_raw(mpnum.pair_round(m, e, prec)) == want


@st.composite
def operands(draw):
    """(prec, a, b): raw tuples of at most prec bits, b free, near -a or a
    (cancellation, exactly 0 included), or more than prec + 4 bits above or
    below a, with their pairs padded by trailing zeros as rounding leaves them."""
    prec = draw(st.sampled_from(PAIR_PRECS))

    def signed_mantissa():
        return draw(st.sampled_from([1, -1])) * draw(st.integers(1, 2**prec - 1))

    ma, ea = signed_mantissa(), draw(st.integers(-3 * prec, 3 * prec))
    a = mpmath.libmp.from_man_exp(ma, ea, prec, "n")
    relation = draw(st.sampled_from(["free", "near", "far"]))
    if relation == "free":
        mb, eb = signed_mantissa(), draw(st.integers(-3 * prec, 3 * prec))
    elif relation == "near":
        mb, eb = draw(st.sampled_from([1, -1])) * ma + draw(st.integers(-3, 3)), ea
    else:
        mb = signed_mantissa()
        gap = prec + 4 + draw(st.integers(1, 3 * prec))
        eb = ea + abs(ma).bit_length() - abs(mb).bit_length() + draw(st.sampled_from([1, -1])) * gap
    b = mpmath.libmp.from_man_exp(mb, eb, prec, "n")

    def padded(raw):
        m, e = mpnum.to_pair(raw)
        zeros = draw(st.integers(0, 3))
        return m << zeros, e - zeros

    return prec, a, b, padded(a), padded(b)


@given(operands())
@settings(max_examples=600, deadline=None)
def test_pair_operations_match_mpmath(case):
    prec, a, b, pa, pb = case
    lib = mpmath.libmp
    assert mpnum.to_raw(mpnum.pair_add(pa, pb, prec)) == lib.mpf_add(a, b, prec, "n")
    if b != lib.fzero:
        assert mpnum.to_raw(mpnum.pair_div(pa, pb, prec)) == lib.mpf_div(a, b, prec, "n")


@pytest.mark.parametrize("digits", [40, 80])
def test_evaluation_across_far_apart_magnitudes(digits):
    # terms hundreds of decades apart, where Horner rounded at each step may miss
    # the correctly rounded value
    ctx = mpnum.PrecisionContext(digits)
    third = ctx.mp.mpf(1) / 3
    for decades in ([0, -90, 0, 90], [90, 0, -90, 0, 1], [-200, 0, 200]):
        coeffs = tuple(third * ctx.mp.mpf(10) ** k for k in decades)
        p = mpnum.Polynomial(coeffs)
        for x in (ctx.mp.mpf(1) / 7, ctx.mpf("-1e-95"), ctx.mpf("3e95")):
            assert p(x)._mpf_ == exact_value(p, x)._mpf_


# ---------------------------------------------------------------- closed-form laps


@st.composite
def power_maps(draw):
    """f = v + a (x - c)**d with d even and a of either sign over several decades,
    and g, f framed by the targets f(c - left) and f(c + right) (``ends``); a side
    of the center, the orientation of g's lap there, that side's extent (left or
    right) and a root offset 0 < r <= extent on it, so f(c + side r) has its root
    on that lap of g."""
    ctx = mpnum.PrecisionContext(draw(st.sampled_from([40, 80])))
    d = draw(st.sampled_from([2, 4, 6]))
    a = draw(st.sampled_from([-1, 1])) * ctx.mpf(draw(st.fractions(1, 10))) * (
        ctx.mp.mpf(10) ** draw(st.integers(-3, 3)))
    c = ctx.mpf(draw(st.fractions(-1, 1, max_denominator=1000)))
    v = ctx.mpf(draw(st.fractions(-1, 1, max_denominator=1000)))
    f = mpnum.PowerMap(c, v, a, d)
    left, right = (ctx.mpf(draw(st.fractions(0, 2, max_denominator=1000).filter(bool)))
                   for _ in range(2))
    ends = (f(c - left), f(c + right))
    g = f.frame(ends, None, (c,), ctx, (None, None))[0]
    side = draw(st.sampled_from([-1, 1]))
    extent = right if side > 0 else left
    r = extent * ctx.mpf(draw(st.fractions(0, 1, max_denominator=1000).filter(bool)))
    return ctx, f, g, ends, side, side * (1 if a > 0 else -1), extent, r


def residual_bound(ctx, target):
    return 10 * ctx.tau * max(1, abs(target))


def lap_on(ctx, g, side, orientation):
    """The lap of the framed map g on ``side`` of its center, as preimages takes it."""
    return (g.center, ctx.mp.one, orientation) if side > 0 else (ctx.mp.zero, g.center, orientation)


def preimage(g, target, lap, ctx):
    """The root of g(x) = target on ``lap`` by PowerMap.preimages on that lap alone."""
    return g.preimages((target,), (lap,), ctx, (None,))[0]


@given(power_maps())
@settings(max_examples=200, deadline=None)
def test_closed_form_root_meets_the_contract_and_agrees_with_the_search(case):
    ctx, f, g, ends, side, orientation, _, r = case
    target, lap = f(f.center + side * r), lap_on(ctx, g, side, orientation)
    root = preimage(g, target, lap, ctx)
    bound = residual_bound(ctx, target)
    assert abs(g(root) - target) <= bound
    assert lap[0] <= root <= lap[1]
    # the same lap of the expansion searched by solve_monotone
    p = g.expanded
    searched = mpnum.solve_monotone(p, target, *lap, ctx)
    # |g(x) - g(y)| >= |lead| |x - y|**d for x, y on one side of the center
    assert abs(g(root) - p(searched)) <= 2 * bound
    assert abs(root - searched) <= (4 * bound / abs(g.lead)) ** (ctx.mp.mpf(1) / g.degree)


@given(power_maps())
@settings(max_examples=100, deadline=None)
def test_closed_form_root_rejects_targets_outside_the_lap(case):
    ctx, f, g, ends, side, orientation, extent, r = case
    lap, value = lap_on(ctx, g, side, orientation), g.value
    # beyond the critical value: no preimage on either side
    beyond = value - (f(f.center + r) - value)
    with pytest.raises(mpnum.RootBracketError):
        preimage(g, beyond, lap, ctx)
    # twice the lap's extent out: the root lies past its end at 0 or 1
    target, end = f(f.center + 2 * side * extent), lap[1 if side > 0 else 0]
    if abs(g(end) - target) > residual_bound(ctx, target):
        with pytest.raises(mpnum.RootBracketError, match="beyond the lap end"):
            preimage(g, target, lap, ctx)
    # ... but a root on the lap is not stopped
    root = preimage(g, f(f.center + side * r), lap, ctx)
    assert lap[0] <= root <= lap[1]


@given(power_maps())
@settings(max_examples=50, deadline=None)
def test_closed_form_root_of_the_critical_value_is_the_critical_point(case):
    # t = v, or t within the residual bound of v on either side
    ctx, _, g, _, side, orientation, _, _ = case
    for shift in (0, 1, -1):
        target = g.value + shift * residual_bound(ctx, g.value) / 2
        root = preimage(g, target, lap_on(ctx, g, side, orientation), ctx)
        assert root._mpf_ == g.center._mpf_


def test_closed_form_root_returns_a_lap_end_within_tolerance():
    # x^2 framed by the targets 1 and 1 is 4 (x - 1/2)**2 on [0, 1]: the root of
    # 1 + 1e-39 lies past 1, but 1 meets the tolerance
    ctx = ctx40()
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    ends = (one, one)
    g = mpnum.PowerMap(zero, zero, one, 2).frame(ends, None, (zero,), ctx, (None, None))[0]
    assert (g.center, g.value, g.lead) == (0.5, 0, 4)
    target = 1 + ctx.mpf("1e-39")
    assert preimage(g, target, (g.center, one, 1), ctx) == 1
    assert preimage(g, ctx.mpf(Fraction(1, 4)), (zero, g.center, -1), ctx) == 0.25


def test_closed_form_root_needs_an_even_degree():
    # checked before the framing, which the line does not have either
    ctx = ctx40()
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    line = mpnum.PowerMap(zero, zero, one, 2).derivative()  # 2 x
    with pytest.raises(ValueError, match="even degree"):
        line.preimages((zero, one, zero), (None, (zero, one, 1), None), ctx, None)


def test_closed_form_root_needs_a_map_framed_at_the_context_precision():
    # preimages reads rho_0 and rho_0 + rho_n from the framing and never from the
    # targets, so a map without one, or framed at another precision, is refused
    ctx = ctx40()
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    f = mpnum.PowerMap(zero, zero, one, 2)
    quarter, lap = ctx.mpf(Fraction(1, 4)), (zero, one, 1)
    with pytest.raises(ValueError, match=f"framed at {ctx.mp.prec} bits"):
        f.preimages((quarter,), (lap,), ctx, (None,))
    g = f.frame((one, one), None, (zero,), ctx, (None, None))[0]
    assert g.framing[0] == ctx.mp.prec and preimage(g, quarter, (g.center, one, 1), ctx) == 0.75
    other = mpnum.PrecisionContext(80)
    with pytest.raises(ValueError, match=f"framed at {other.mp.prec} bits"):
        g.preimages((quarter,), (lap,), other, (None,))


@given(power_maps())
@settings(max_examples=100, deadline=None)
def test_framed_map_carries_the_integer_roots_of_its_framing_targets(case):
    # rho_t, the floor of |t - v|**(1/d) on x's grid: t and v each rounded to nearest
    # on it (prec + 32 fractional bits), their difference's d-th root floored
    ctx, f, g, ends, *_ = case
    shift, d = ctx.mp.prec + 32, f.degree

    def on_grid(v):
        return math.floor(exact(v) * 2**shift + Fraction(1, 2))

    rise = [abs(on_grid(t) - on_grid(f.value)) << shift * (d - 1) for t in ends]
    prec, low, total = g.framing
    assert prec == ctx.mp.prec
    for rho, r in zip((low, total - low), rise):
        assert rho**d <= r < (rho + 1) ** d
        assert rho == mpnum.iroot(r, d)
    # and they are what frame built the map from: its center rho_0 / (rho_0 + rho_n)
    assert g.center._mpf_ == rounded(type(g.center), Fraction(low, total))._mpf_


@given(st.integers(0, 2400).flatmap(lambda bits: st.integers(0, 2**bits)), st.integers(2, 12))
@example(0, 3)
@example(2**2400, 7)
@example((3**500) ** 5 - 1, 5)  # just below a fifth power
@settings(max_examples=500, deadline=None)
def test_integer_root_is_the_floor_of_the_root(n, d):
    # exact on ints, and on the mantissa type of mpmath's backend (gmpy2's mpz where
    # it is installed), so the closed-form step takes the same bits on both
    r = mpnum.iroot(n, d)
    assert r**d <= n < (r + 1) ** d
    assert mpnum.iroot(mpmath.libmp.MPZ(n), d) == r


# ---------------------------------------------------------------- power maps


@st.composite
def closed_forms(draw, decades=3):
    """A PowerMap v + a (x - c)**d with d even and a of either sign over
    2 * decades decades, and a point x."""
    ctx = mpnum.PrecisionContext(draw(st.sampled_from([40, 80])))
    d = draw(st.sampled_from([2, 4, 6]))
    a = draw(st.sampled_from([-1, 1])) * ctx.mpf(draw(st.fractions(1, 10))) * (
        ctx.mp.mpf(10) ** draw(st.integers(-decades, decades)))
    c, v, x = (ctx.mpf(draw(st.fractions(-1, 1, max_denominator=1000))) for _ in range(3))
    return ctx, mpnum.PowerMap(c, v, a, d), x


@given(closed_forms())
@settings(max_examples=200, deadline=None)
def test_power_map_evaluates_as_its_expansion(case):
    ctx, f, x = case
    p = f.expanded
    assert type(p) is mpnum.Polynomial and (p.degree, p.coefficients[-1]) == (f.degree, f.lead)
    assert f.coefficients == p.coefficients
    want = exact(f.value) + exact(f.lead) * (exact(x) - exact(f.center)) ** f.degree
    assert f(x)._mpf_ == rounded(type(x), want)._mpf_
    assert f(f.center)._mpf_ == f.value._mpf_
    # Horner on the expansion loses what its terms cancel
    size = sum(abs(coefficient * x**i) for i, coefficient in enumerate(p.coefficients))
    assert abs(f(x) - p(x)) <= 10 * ctx.tau * max(1, size)
    # the closed-form derivative d a (x - c)**(d-1) against the expansion's
    df, dp = f.derivative(), p.derivative()
    assert (df.center, df.value, df.lead, df.degree) == (f.center, 0, f.degree * f.lead, f.degree - 1)
    size = sum(abs(coefficient * x**i) for i, coefficient in enumerate(dp.coefficients))
    assert abs(df(x) - dp(x)) <= 10 * ctx.tau * max(1, size)


@given(
    closed_forms(decades=1),
    st.fractions(0, 2, max_denominator=1000).filter(bool),
    st.fractions(0, 2, max_denominator=1000).filter(bool),
)
@settings(max_examples=200, deadline=None)
def test_power_map_reframes_as_affine_substitution(case, left, right):
    # the framing points A, B of f(c - left) and f(c + right), and f(A + (B - A) x)
    ctx, f, _ = case
    targets = (f(f.center - ctx.mpf(left)), f(f.center + ctx.mpf(right)))
    got, moved, A, B = f.frame(targets, None, (f.center,), ctx, (None, None))
    for end, target in zip((A, B), targets):
        assert abs(f(end) - target) <= residual_bound(ctx, target)
    want = mpnum.affine_substitute(f.expanded, A, B - A)
    assert type(got) is mpnum.PowerMap and got.degree == want.degree
    assert moved == (got.center,) and abs(got.center - (f.center - A) / (B - A)) <= 10 * ctx.tau
    for g, w in zip(got.coefficients, want.coefficients):
        assert abs(g - w) <= ctx.mpf("1e-30")


@given(closed_forms(decades=1), st.fractions(0, 2, max_denominator=1000).filter(bool))
@settings(max_examples=100, deadline=None)
def test_each_map_kind_solves_and_reframes_by_its_own_kernel(case, r):
    # Polynomial.preimages and .frame are solve_monotone and affine_substitute, with
    # the same bits on both laps; PowerMap's own kernel is the ratio of integer roots
    # (test_closed_form_root_meets_the_contract_and_agrees_with_the_search)
    ctx, f, _ = case
    p = f.expanded
    r = ctx.mpf(r)
    targets, laps, starts, searched = [], [], [], []
    for side in (-1, 1):
        target = f(f.center + side * r)
        lo, hi = (f.center, None) if side > 0 else (None, f.center)
        orientation = side * (1 if f.lead > 0 else -1)
        start = f.center + side * r / 2
        want = mpnum.solve_monotone(p, target, lo, hi, orientation, ctx, start=start)
        targets.append(target)
        laps.append((lo, hi, orientation))
        starts.append(start)
        searched.append(want)
    got = p.preimages(targets, laps, ctx, starts)
    assert [x._mpf_ for x in got] == [x._mpf_ for x in searched]
    A, B = searched
    framed, moved, A_got, B_got = p.frame(targets, laps, (f.center,), ctx, starts)
    want_map = mpnum.affine_substitute(p, A, B - A)
    assert type(framed) is mpnum.Polynomial and (A_got._mpf_, B_got._mpf_) == (A._mpf_, B._mpf_)
    assert [c._mpf_ for c in framed.coefficients] == [c._mpf_ for c in want_map.coefficients]
    assert [x._mpf_ for x in moved] == [((f.center - A) / (B - A))._mpf_]
