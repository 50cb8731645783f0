"""The gap map Phi, its Jacobian, inversion routes, and value realization."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thurston
from thurston import critvals, mpnum
from thurston._table import ROWS

X = sympy.symbols("x")


def ctx40():
    return mpnum.PrecisionContext(40)


def solve_linear(rows, rhs, ctx):
    """``rows @ x = rhs`` in mpfs of ctx, by :func:`critvals.solve_pairs`."""
    *rows, rhs = ([mpnum.to_pair(ctx.mpf(v)._mpf_) for v in row] for row in (*rows, rhs))
    return [ctx.mp.make_mpf(mpnum.to_raw(x)) for x in critvals.solve_pairs(rows, rhs, ctx.mp.prec)]


def problem(ctx, gaps, mults):
    return critvals.PhiProblem(tuple(ctx.mpf(g) for g in gaps), tuple(mults))


def sympy_phi(gaps, mults):
    """Independent evaluation: place the points, integrate symbolically."""
    K = sum(mults)
    first = -sympy.Rational(sum(Fraction(g) * sum(mults[i + 1:]) for i, g in enumerate(gaps)), 1) / K
    first = sympy.nsimplify(first)
    points = [first]
    for g in gaps:
        points.append(points[-1] + sympy.nsimplify(Fraction(g)))
    g_expr = sympy.prod([(X - p) ** k for p, k in zip(points, mults)])
    out = []
    for a, b in zip(points, points[1:]):
        out.append(abs(sympy.integrate(g_expr, (X, a, b))))
    return out


# ---------------------------------------------------------------- phi

def test_phi_two_simple_points():
    ctx = ctx40()
    (s,) = critvals.phi(problem(ctx, [1], [1, 1]))
    assert ctx.equal(s, ctx.mpf(Fraction(1, 6)))
    assert sympy_phi([1], [1, 1]) == [sympy.Rational(1, 6)]


def test_phi_three_simple_points():
    ctx = ctx40()
    s = critvals.phi(problem(ctx, [1, 1], [1, 1, 1]))
    assert all(ctx.equal(v, ctx.mpf(Fraction(1, 4))) for v in s)
    assert sympy_phi([1, 1], [1, 1, 1]) == [sympy.Rational(1, 4)] * 2


def test_phi_with_multiplicity():
    ctx = ctx40()
    (s,) = critvals.phi(problem(ctx, [1], [1, 2]))
    assert ctx.equal(s, ctx.mpf(Fraction(1, 12)))
    assert sympy_phi([1], [1, 2]) == [sympy.Rational(1, 12)]


def test_phi_matches_symbolic_on_mixed_case():
    ctx = ctx40()
    gaps, mults = [Fraction(1, 2), Fraction(3, 4)], [2, 1, 3]
    got = critvals.phi(problem(ctx, gaps, mults))
    expected = sympy_phi(gaps, mults)
    for g, e in zip(got, expected):
        assert ctx.equal(g, ctx.mpf(Fraction(str(e))))


def test_phi_rejects_nonpositive_gap():
    ctx = ctx40()
    with pytest.raises(ValueError):
        problem(ctx, [0], [1, 1])
    with pytest.raises(ValueError):
        problem(ctx, [-1], [1, 1])


def test_phi_homogeneity():
    ctx = ctx40()
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randint(2, 5)
        mults = [rng.randint(1, 3) for _ in range(r)]
        gaps = [ctx.mpf(rng.uniform(0.1, 2.0)) for _ in range(r - 1)]
        lam = ctx.mpf(rng.uniform(0.5, 2.0))
        d = 1 + sum(mults)
        base = critvals.phi(problem(ctx, gaps, mults))
        scaled = critvals.phi(problem(ctx, [lam * g for g in gaps], mults))
        for a, b in zip(scaled, base):
            expect = lam ** d * b
            assert abs(a - expect) <= ctx.mpf("1e-30") * max(1, abs(expect))


# ---------------------------------------------------------------- jacobian

def test_jacobian_single_gap_analytic():
    # s(delta) = delta^3 / 6, so ds/ddelta at 1 is 1/2
    ctx = ctx40()
    J = critvals.phi_jacobian(problem(ctx, [1], [1, 1]))
    assert ctx.equal(J[0][0], ctx.mpf(Fraction(1, 2)))


def test_jacobian_nonnegative_on_positive_orthant():
    ctx = ctx40()
    rng = random.Random(11)
    for _ in range(20):
        r = rng.randint(2, 5)
        mults = [rng.randint(1, 3) for _ in range(r)]
        gaps = [ctx.mpf(rng.uniform(0.05, 2.0)) for _ in range(r - 1)]
        J = critvals.phi_jacobian(problem(ctx, gaps, mults))
        for row in J:
            for entry in row:
                assert entry >= -ctx.tau


def test_jacobian_matches_central_differences():
    ctx = mpnum.PrecisionContext(30)
    h = ctx.mpf("1e-10")
    for gaps, mults in [([1, 1], [1, 1, 1]), ([Fraction(1, 2), Fraction(4, 5)], [2, 1, 2])]:
        gaps = [ctx.mpf(g) for g in gaps]
        J = critvals.phi_jacobian(problem(ctx, gaps, mults))
        for j in range(len(gaps)):
            up = list(gaps)
            down = list(gaps)
            up[j] = up[j] + h
            down[j] = down[j] - h
            fd_col = [
                (a - b) / (2 * h)
                for a, b in zip(
                    critvals.phi(problem(ctx, up, mults)),
                    critvals.phi(problem(ctx, down, mults)),
                )
            ]
            for i, fd in enumerate(fd_col):
                assert abs(J[i][j] - fd) <= ctx.mpf("1e-8")


def antiderivative(p, base_point, base_value):
    """The antiderivative of the Polynomial p through (base_point, base_value)."""
    coeffs = [p.coefficients[0] * 0] + [c / (i + 1) for i, c in enumerate(p.coefficients)]
    constant = base_value - mpnum.Polynomial(tuple(coeffs))(base_point)
    return mpnum.Polynomial((coeffs[0] + constant, *coeffs[1:]))


def expand_roots(lead, roots, multiplicities):
    """``lead * prod (x - roots[i])**multiplicities[i]``, multiplied out on mpf objects."""
    coeffs = [lead]
    for root, k in zip(roots, multiplicities):
        for _ in range(k):  # times (x - root)
            coeffs = [low - root * c for low, c in zip([0 * lead] + coeffs, coeffs + [0 * lead])]
    return mpnum.Polynomial(tuple(coeffs))


def chain_rule_jacobian(gaps, mults, ctx):
    """ds_i / ddelta_j through the centered points, as the Jacobian was first
    written: moving point m changes the signed integral over interval i by
    -k_m times the integral of g/(x - c_m), and widening gap j moves point m
    by 1 - w_j if m > j and by -w_j otherwise, w_j = sum(k[j+1:]) / K."""
    problem = critvals.PhiProblem(tuple(ctx.mpf(g) for g in gaps), tuple(mults))
    points = critvals.centered_points(problem)
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    r, K = len(mults), sum(mults)
    dS = []
    for m in range(r):
        reduced = [k - (i == m) for i, k in enumerate(mults)]
        Q = antiderivative(expand_roots(one, points, reduced), zero, zero)
        ends = [Q(p) for p in points]
        dS.append([-mults[m] * (b - a) for a, b in zip(ends, ends[1:])])
    rows = []
    for i in range(r - 1):
        row = []
        for j in range(r - 1):
            w = ctx.mp.mpf(sum(mults[j + 1:])) / K
            moved = sum(dS[m][i] * ((1 - w) if m > j else -w) for m in range(r))
            row.append(critvals._interval_sign(mults, i) * moved)
        rows.append(row)
    return rows


@st.composite
def jacobian_cases(draw):
    digits = draw(st.sampled_from([30, 40, 80]))
    r = draw(st.integers(2, 6))
    mults = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    gaps = draw(st.lists(st.fractions(Fraction(1, 20), 2, max_denominator=10**6),
                         min_size=r - 1, max_size=r - 1))
    return digits, gaps, mults


@given(jacobian_cases())
@settings(max_examples=100, deadline=None)
def test_jacobian_matches_the_chain_rule_through_centered_points(case):
    # The reference runs at twice the digits: at the same precision its own
    # rounding, amplified by the cancellation between the antiderivative's
    # values at the points, reached 4.9 * 10**(9 - digits) in one of 2,100
    # draws, while the translation-invariant form stayed below 2 * 10**(8 - digits).
    digits, gaps, mults = case
    ctx, fine = mpnum.PrecisionContext(digits), mpnum.PrecisionContext(2 * digits)
    gaps = [ctx.mpf(g) for g in gaps]
    J = critvals.phi_jacobian(problem(ctx, gaps, mults))
    reference = chain_rule_jacobian(gaps, mults, fine)
    for got, want in zip(J, reference):
        bound = ctx.mpf(10) ** (9 - digits) * max(1, max(abs(v) for v in want))
        assert all(abs(a - b) <= bound for a, b in zip(got, want))


# ---------------------------------------------------------------- starting point

def test_chebyshev_init_two_points():
    # with k=(1,1), Phi(d) = d^3/6, so the rescaled start solves d^3/6 = 1
    ctx = ctx40()
    (rho,) = critvals.chebyshev_init((1, 1), ctx, [1])
    assert ctx.equal(rho, ctx.mp.mpf(6) ** (ctx.mp.mpf(1) / 3))


def test_chebyshev_init_three_points_symmetric():
    ctx = ctx40()
    rho = critvals.chebyshev_init((1, 1, 1), ctx, [1, 1])
    assert ctx.equal(rho[0], rho[1])
    values = critvals.phi(problem(ctx, rho, [1, 1, 1]))
    for v in values:
        assert abs(v - 1) <= ctx.mpf("1e-35")


def test_chebyshev_init_positive_and_sum_matched():
    ctx = ctx40()
    for r, mults in [(2, (1, 2)), (4, (1, 1, 1, 1)), (5, (2, 1, 3, 1, 2))]:
        s = [Fraction(k, 7) for k in range(1, r)]
        rho = critvals.chebyshev_init(mults, ctx, s)
        assert len(rho) == r - 1
        assert all(g > 0 for g in rho)
        assert ctx.equal(sum(critvals.phi(problem(ctx, rho, mults))), Fraction(r * (r - 1), 14))


# ---------------------------------------------------------------- inversion

def test_invert_phi_single_gap():
    ctx = ctx40()
    res = critvals.invert_phi([Fraction(1, 6)], (1, 1), ctx)
    assert ctx.equal(res.gaps[0], 1)


def test_invert_phi_symmetric_pair():
    ctx = ctx40()
    res = critvals.invert_phi([Fraction(1, 4), Fraction(1, 4)], (1, 1, 1), ctx)
    assert ctx.equal(res.gaps[0], 1) and ctx.equal(res.gaps[1], 1)


def test_invert_phi_by_homogeneity():
    # Phi(2) = 2^3/6 = 4/3 for k=(1,1)
    ctx = ctx40()
    res = critvals.invert_phi([Fraction(4, 3)], (1, 1), ctx)
    assert ctx.equal(res.gaps[0], 2)


def test_invert_phi_residual_trace_decreases():
    ctx = ctx40()
    res = critvals.invert_phi([Fraction(1, 7), Fraction(2, 11)], (1, 2, 1), ctx)
    assert res.residuals[-1] <= ctx.mpf(10) ** (6 - ctx.digits)
    assert res.residuals[0] >= res.residuals[-1]


def test_invert_phi_from_initial_gaps():
    ctx = ctx40()
    s, mults = [Fraction(1, 7), Fraction(2, 11)], (1, 2, 1)
    cold = critvals.invert_phi(s, mults, ctx)
    solved = critvals.invert_phi(s, mults, ctx, initial=cold.gaps)  # corrected once
    assert solved.iterations == 1 and solved.residuals[-1] <= ctx.newton_tol
    for got, want in zip(solved.gaps, cold.gaps):
        assert abs(got - want) <= ctx.mpf("1e-30")
    nudged = tuple(g * (1 + ctx.mpf("1e-3")) for g in cold.gaps)
    warm = critvals.invert_phi(s, mults, ctx, initial=nudged)
    assert warm.iterations > 0
    for got, want in zip(warm.gaps, cold.gaps):
        assert abs(got - want) <= ctx.mpf("1e-30")


@given(st.sampled_from([40, 80]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 9999), st.integers(-9, 2))
@settings(max_examples=100, deadline=None)
def test_two_critical_points_invert_in_closed_form(digits, k1, k2, mantissa, exponent):
    # s = delta**(K+1) k1! k2! / (K+1)! is solved by one root, with no Newton
    # step; the cold Newton inversion meets the same residual contract.
    # Value gaps range over 1e-12..1e3.
    ctx = mpnum.PrecisionContext(digits)
    s = [ctx.mpf(Fraction(mantissa, 1000)) * ctx.mpf(10) ** exponent]
    bound = ctx.mpf(10) ** (6 - digits)
    closed = critvals.solve_gaps(s, (k1, k2), ctx)
    assert closed.iterations == 0 and closed.targets == tuple(s)
    (value,) = critvals.phi(problem(ctx, closed.gaps, (k1, k2)))
    assert abs(value - s[0]) <= bound
    cold = critvals.invert_phi(s, (k1, k2), ctx)
    (newton,) = critvals.phi(problem(ctx, cold.gaps, (k1, k2)))
    assert abs(value - newton) <= bound


@pytest.mark.parametrize("mults", [(1, 1, 1), (1, 2, 1), (2, 1, 3), (3, 1, 2), (1, 3, 2), (2, 2, 2), (3, 3, 3)])
def test_ratio_polynomials_match_symbolic_integrals(mults):
    # Phi is translation invariant, so put the points at 0, u and u + 1:
    # delta_2 = 1, and s_i = P_i(u) times B(k1 + k2, k3).
    ctx = mpnum.PrecisionContext(80)
    u = sympy.symbols("u", positive=True)
    k1, k2, k3 = mults
    g = X**k1 * (X - u) ** k2 * (X - u - 1) ** k3
    scale = sympy.factorial(k1 + k2) * sympy.factorial(k3) / sympy.factorial(k1 + k2 + k3 + 1)
    p1, p2 = (
        sympy.Poly(sympy.expand(critvals._interval_sign(mults, i) * sympy.integrate(g, (X, a, b))
                                / scale), u)
        for i, (a, b) in enumerate([(0, u), (u, u + 1)])
    )
    tail, head, tail_at_1, head_at_1 = critvals.ratio_polynomials(mults, ctx)
    assert [m[0] for m in p1.monoms()][-1] == k1 + k2 + 1  # P1 starts at u**(k1 + k2 + 1)
    for poly, got, shift in ((p1, tail, k1 + k2 + 1), (p2, head, 0)):
        want = [Fraction(str(c)) for c in reversed(poly.all_coeffs())][shift:]
        assert len(got) == len(want) and all(ctx.equal(a, b) for a, b in zip(got, want))
    assert ctx.equal(tail_at_1, Fraction(str(p1.eval(1)))) and ctx.equal(head_at_1, Fraction(str(p2.eval(1))))
    assert head[0] == 1


@given(st.sampled_from([30, 40]), st.tuples(*[st.integers(1, 3)] * 3),
       st.integers(1000, 9999), st.integers(-3, 1))
# A lap solver whose value grid follows the largest coefficient, not the
# residual bound, loses the small gap's relative digits on these two.
@example(30, (2, 2, 2), 1000, -3)
@example(40, (3, 3, 3), 1000, -3)
@settings(max_examples=100, deadline=None)
def test_three_critical_points_invert_by_one_ratio_root(digits, mults, mantissa, exponent):
    # Gap ratios delta_1/delta_2 from 1e-3 to 1e2, the larger gap 1.  The
    # ratio is one monotone root, so the small gap keeps its relative digits,
    # which damped Newton's absolute residual does not promise.
    ctx, fine = mpnum.PrecisionContext(digits), mpnum.PrecisionContext(80)
    ratio = Fraction(mantissa, 1000) * Fraction(10) ** exponent
    exact = (ratio, 1) if ratio <= 1 else (1, 1 / ratio)
    s = critvals.phi(problem(ctx, exact, mults))
    result = critvals.solve_gaps(s, mults, ctx)
    assert result.targets == s and result.problem.gaps == result.gaps
    values = critvals.phi(critvals.PhiProblem(result.gaps, mults))
    assert max(abs(v - t) for v, t in zip(values, s)) <= ctx.newton_tol
    root = critvals.invert_phi(s, mults, fine, initial=[fine.mpf(g) for g in exact])
    for got, want in zip(result.gaps, root.gaps):
        assert abs(got - want) <= ctx.mpf(10) ** (6 - digits) * want


def test_three_points_ignore_a_degenerate_previous_inversion():
    # Newton warm-started from gaps (1, 1e-30) met a singular Jacobian; the
    # gap ratio's root needs none.
    ctx, mults = ctx40(), (1, 1, 1)
    gaps = (ctx.mp.mpf(1), ctx.mpf("1e-30"))
    far = critvals.PhiProblem(gaps, mults)
    previous = critvals.InversionResult(
        gaps, 1, (), critvals.phi(far), jacobian=critvals.phi_jacobian(far)
    )
    result = critvals.solve_gaps([ctx.mp.mpf(1) / 4] * 2, mults, ctx, previous=previous)
    assert all(ctx.equal(g, 1) for g in result.gaps)


@pytest.mark.parametrize("digits", [40, 80])
def test_solve_linear_matches_lu_solve(digits):
    ctx = mpnum.PrecisionContext(digits)
    rng = random.Random(digits)
    tol = ctx.mpf(10) ** (6 - digits)
    for n in range(1, 6):
        # diagonally dominant, hence well conditioned; a zero leading entry
        # forces a row swap
        rows = [[ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] += n + 1
        if n > 1:
            rows[0][0] = ctx.mp.mpf(0)
        rhs = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)]
        got = solve_linear(rows, rhs, ctx)
        want = ctx.mp.lu_solve(ctx.mp.matrix(rows), ctx.mp.matrix(rhs))
        assert all(abs(got[i] - want[i]) <= tol for i in range(n))


@pytest.mark.parametrize("rows", [
    [[0]],
    [[1, 2], [2, 4]],
    [[1, 0], ["1e-50", 0]],
    [[1, 0], [0, "1e-50"]],  # negligible against the matrix norm at 40 digits
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
])
def test_solve_linear_rejects_singular(rows):
    ctx = ctx40()
    rows = [[ctx.mpf(v) for v in row] for row in rows]
    with pytest.raises(critvals.SingularJacobian):
        solve_linear(rows, [ctx.mp.mpf(1)] * len(rows), ctx)


def test_warm_start_takes_at_least_one_correction():
    ctx = ctx40()
    s, mults = [Fraction(1, 7), Fraction(2, 11), Fraction(1, 9)], (1, 2, 1, 2)
    cold = critvals.solve_gaps(s, mults, ctx)
    again = critvals.solve_gaps(s, mults, ctx, previous=cold)
    assert again.iterations == 1
    assert again.residuals[-1] <= ctx.mpf(10) ** (6 - ctx.digits)


def test_forced_correction_is_accepted_at_the_rounding_floor():
    # Phi(1, 1) = (1/4, 1/4) exactly, so the residual is already 0 and no
    # step can shrink it; the forced step must still be accepted
    ctx = ctx40()
    one = ctx.mp.mpf(1)
    res = critvals.invert_phi([Fraction(1, 4)] * 2, (1, 1, 1), ctx, initial=(one, one))
    assert res.residuals == (0, 0) and res.iterations == 1 and res.gaps == (one, one)


def test_cold_newton_with_tiny_gaps_beside_triple_points():
    # Two tiny gaps beside triple critical points; Newton from the Chebyshev
    # start takes 70 of the 200 iterations allowed.
    ctx, mults = ctx40(), (1, 1, 3, 1, 3)
    s = critvals.phi(problem(ctx, ("1e-4", "1e-6", "0.1", "0.5"), mults))
    res = critvals.invert_phi(list(s), mults, ctx)
    values = critvals.phi(critvals.PhiProblem(res.gaps, mults))
    assert max(abs(v - t) for v, t in zip(values, s)) <= ctx.newton_tol


@pytest.mark.sweep
def test_cold_newton_solves_seeded_problems_with_spread_gaps():
    ctx, rng = ctx40(), random.Random(11)
    for _ in range(40):
        r = rng.randint(3, 6)
        mults = [rng.randint(1, 3) for _ in range(r)]
        s = critvals.phi(problem(ctx, [10 ** -rng.uniform(0, 3) for _ in range(r - 1)], mults))
        res = critvals.invert_phi(list(s), mults, ctx)
        values = critvals.phi(critvals.PhiProblem(res.gaps, mults))
        assert max(abs(v - t) for v, t in zip(values, s)) <= ctx.newton_tol


def test_inversion_round_trips():
    ctx = ctx40()
    rng = random.Random(23)
    for _ in range(10):
        r = rng.randint(2, 4)
        mults = [rng.randint(1, 3) for _ in range(r)]
        gaps = [ctx.mpf(rng.uniform(0.1, 1.0)) for _ in range(r - 1)]
        s = critvals.phi(problem(ctx, gaps, mults))
        res = critvals.invert_phi(list(s), mults, ctx)
        for got, want in zip(res.gaps, gaps):
            assert abs(got - want) <= ctx.mpf("1e-12")


@pytest.mark.parametrize("invert", [critvals.invert_phi, critvals.solve_gaps])
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("case", ["short", "long", "non-positive"])
def test_inversions_refuse_malformed_value_gaps(invert, r, case):
    ctx, gap = ctx40(), Fraction(1, 6)
    s = {"short": [gap] * (r - 2), "long": [gap] * r, "non-positive": [gap] * (r - 2) + [0]}[case]
    message = "must be positive" if case == "non-positive" else "one value gap less"
    with pytest.raises(ValueError, match=message):
        invert(s, (1,) * r, ctx)


# ---------------------------------------------------------------- realization

def test_realize_recovers_known_cubic():
    # prescribe the critical values of 6x - 15x^2 + 10x^3 and compare after
    # the affine change aligning the critical points
    ctx = ctx40()
    f = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(6), ctx.mp.mpf(-15), ctx.mp.mpf(10)))
    c1 = (5 - ctx.mp.sqrt(5)) / 10
    c2 = (5 + ctx.mp.sqrt(5)) / 10
    realized = critvals.realize_critical_values((f(c1), f(c2)), (1, 1), 1, ctx)
    p1, p2 = realized.critical_points
    # the affine map nu with nu(c1)=p1, nu(c2)=p2 turns realized back into f
    a = (p2 - p1) / (c2 - c1)
    b = p1 - a * c1
    pulled = mpnum.affine_substitute(realized.polynomial, b, a)
    for got, want in zip(pulled.coefficients, f.coefficients):
        assert abs(got - want) <= ctx.mpf("1e-30")


def test_realize_warm_start_matches_cold():
    # the next pull-back step's values move a little; warm-started from the
    # previous inversion, the same map comes out in at most three steps
    ctx = ctx40()
    mults = (1, 2, 1, 2)
    before = tuple(ctx.mpf(v) for v in ("0.8", "0.45", "0.15", "0.6"))
    after = tuple(ctx.mpf(v) for v in ("0.8000007", "0.4499995", "0.1500002", "0.5999996"))
    previous = critvals.realize_critical_values(before, mults, 1, ctx).inversion
    cold = critvals.realize_critical_values(after, mults, 1, ctx)
    warm = critvals.realize_critical_values(after, mults, 1, ctx, previous=previous)
    assert 1 <= warm.inversion.iterations <= 3 < cold.inversion.iterations
    tol = ctx.mpf(10) ** (6 - ctx.digits)
    assert warm.inversion.residuals[-1] <= tol
    for got, want in zip(warm.inversion.gaps, cold.inversion.gaps):
        assert abs(got - want) <= tol
    for got, want in zip(warm.polynomial.coefficients, cold.polynomial.coefficients):
        assert abs(got - want) <= tol


def warm_start_case(ctx):
    """The inversion behind test_realize_warm_start_matches_cold's first map,
    with the value gaps of its second."""
    mults = (1, 2, 1, 2)
    before = tuple(ctx.mpf(v) for v in ("0.8", "0.45", "0.15", "0.6"))
    after = tuple(ctx.mpf(v) for v in ("0.8000007", "0.4499995", "0.1500002", "0.5999996"))
    previous = critvals.realize_critical_values(before, mults, 1, ctx).inversion
    return previous, [abs(b - a) for a, b in zip(after, after[1:])], mults


def test_predicted_start_needs_no_more_steps_than_the_cold_one():
    ctx = ctx40()
    previous, s, mults = warm_start_case(ctx)
    assert previous.jacobian is not None and previous.problem.gaps == previous.gaps
    start = critvals.predicted_start(previous, s, ctx)
    predicted = critvals.invert_phi(s, mults, ctx, initial=start)
    cold = critvals.invert_phi(s, mults, ctx)
    # first-order exact: the start misses by about the square of the change
    assert predicted.residuals[0] <= ctx.mpf("1e-10") < cold.residuals[0]
    assert predicted.iterations <= cold.iterations
    tol = ctx.mpf(10) ** (6 - ctx.digits)
    assert predicted.residuals[-1] <= tol and cold.residuals[-1] <= tol


@pytest.mark.parametrize("jacobian", ["singular", "off the orthant"])
def test_failed_prediction_falls_back_to_the_cold_start(monkeypatch, jacobian):
    ctx = ctx40()
    previous, s, mults = warm_start_case(ctx)
    if jacobian == "singular":
        rows = [[ctx.mp.mpf(1)] * 3] * 3
    else:  # a tiny Jacobian predicts a step far out of the orthant
        rows = [[v * ctx.mpf("1e-30") for v in row] for row in previous.jacobian]
    previous = dataclasses.replace(previous, jacobian=rows)
    assert critvals.predicted_start(previous, s, ctx) is None
    inversions = spy(monkeypatch, critvals, "invert_phi")
    result = critvals.solve_gaps(s, mults, ctx, previous=previous)
    ((args, kwargs, cold),) = inversions
    assert len(args) == 3 and "initial" not in kwargs and cold is result
    assert result.residuals[-1] <= ctx.mpf(10) ** (6 - ctx.digits)


def test_inversion_solved_at_the_chebyshev_start_is_followed_cold(monkeypatch):
    # Newton meets the tolerance at the Chebyshev start without a step, so the
    # inversion keeps no Jacobian to predict from; the next one starts cold.
    ctx, mults = ctx40(), (1, 1, 1, 1)
    start = critvals.chebyshev_init(mults, ctx, [1, 1, 1])
    previous = critvals.solve_gaps(critvals.phi(critvals.PhiProblem(start, mults)), mults, ctx)
    assert previous.iterations == 0 and previous.jacobian is None
    s = [v + ctx.mpf("1e-6") * (-1) ** i for i, v in enumerate(previous.targets)]
    inversions = spy(monkeypatch, critvals, "invert_phi")
    result = critvals.solve_gaps(s, mults, ctx, previous=previous)
    ((args, kwargs, cold),) = inversions
    assert len(args) == 3 and "initial" not in kwargs and cold is result
    assert result.residuals[-1] <= ctx.newton_tol


def test_prediction_from_a_coarser_context():
    # the run doubles its digits on a stall and keeps the previous inversion
    coarse, fine = ctx40(), mpnum.PrecisionContext(80)
    previous, s, mults = warm_start_case(coarse)
    start = critvals.predicted_start(previous, s, fine)
    assert all(g.context is fine.mp for g in start)
    result = critvals.invert_phi(s, mults, fine, initial=start)
    assert result.residuals[0] <= fine.mpf("1e-10")
    assert result.residuals[-1] <= fine.mpf(10) ** (6 - fine.digits)
    assert all(g.context is fine.mp for g in result.gaps)


def test_realize_single_critical_point():
    ctx = ctx40()
    realized = critvals.realize_critical_values((ctx.mpf(Fraction(1, 2)),), (1,), -1, ctx)
    f = realized.polynomial
    assert realized.critical_points == (ctx.mp.mpf(0),)
    assert ctx.equal(f(ctx.mp.mpf(0)), ctx.mpf(Fraction(1, 2)))
    assert f.degree == 2 and f.coefficients[-1] < 0


def test_realize_quintic_multiplicities():
    # spatial order high-low-low with multiplicities (1,2,1), increasing last lap
    ctx = ctx40()
    values = (ctx.mpf("0.8"), ctx.mpf("0.45"), ctx.mpf("0.15"))
    realized = critvals.realize_critical_values(values, (1, 2, 1), 1, ctx)
    f = realized.polynomial
    assert f.degree == 5
    for point, value in zip(realized.critical_points, values):
        assert abs(f(point) - value) <= ctx.mpf("1e-12")
        assert abs(f.derivative()(point)) <= ctx.mpf("1e-25")


def test_realize_rejects_bad_sign_pattern():
    ctx = ctx40()
    values = (ctx.mpf("0.2"), ctx.mpf("0.5"))  # increasing, but the middle lap
    with pytest.raises(ValueError):             # must decrease when sigma=+1, k=(1,1)
        critvals.realize_critical_values(values, (1, 1), 1, ctx)


def test_realize_rejects_equal_adjacent_values():
    ctx = ctx40()
    values = (ctx.mpf("0.4"), ctx.mpf("0.4"))
    with pytest.raises(ValueError):
        critvals.realize_critical_values(values, (1, 1), 1, ctx)



def test_realize_rejects_no_values():
    with pytest.raises(ValueError, match="at least one critical value"):
        critvals.realize_critical_values((), (), 1, ctx40())


def test_realize_refuses_gaps_that_miss_the_values(monkeypatch):
    # The built map is checked at its critical points on its value grid: gaps
    # off by a relative 1e-20 miss the values by far more than 100 newton_tol.
    ctx = ctx40()
    values = (ctx.mpf("0.8"), ctx.mpf("0.45"), ctx.mpf("0.15"))
    solve = critvals.solve_gaps

    def off(s, mults, ctx, previous=None):
        gaps = tuple(g * (1 + ctx.mpf("1e-20")) for g in solve(s, mults, ctx, previous).gaps)
        return critvals.InversionResult(gaps, 0, (), problem=critvals.PhiProblem(gaps, mults))

    critvals.realize_critical_values(values, (1, 2, 1), 1, ctx)
    monkeypatch.setattr(critvals, "solve_gaps", off)
    with pytest.raises(critvals.RealizationError, match="misses a prescribed critical value by"):
        critvals.realize_critical_values(values, (1, 2, 1), 1, ctx)


# ---------------------------------------------------------------- inside a run

def spy(monkeypatch, module, name):
    """Calls to ``module.name`` from now on, as (args, kwargs, result or exception)."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            calls.append((args, kwargs, exc))
            raise
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_stalled_warm_start_restarts_cold(monkeypatch):
    # A prediction at gaps (1, 1e-10, 1), far from the solution (1, 1, 1) of
    # s = Phi(1, 1, 1): warm Newton from it stalls at once, and Newton from
    # the Chebyshev start solves the problem.  No run of a valid sequence
    # with n <= 5, nor of any of the 26,068 with n = 6 and two or more
    # turning points, stalls warm Newton from the Euler predictor
    # (0,1,3,0,1,0 used to, at step 11, before it).
    ctx, mults = ctx40(), (1, 1, 1, 1)
    one = ctx.mp.mpf(1)
    far = (one, ctx.mpf("1e-10"), one)
    monkeypatch.setattr(critvals, "predicted_start", lambda previous, s, ctx: far)
    s = list(critvals.phi(critvals.PhiProblem((one,) * 3, mults)))
    inversions = spy(monkeypatch, critvals, "invert_phi")
    solved = critvals.solve_gaps(s, mults, ctx, previous=critvals.InversionResult(far, 1, ()))
    (_, warm, stalled), (args, cold, restarted) = inversions
    assert warm["initial"] == far and isinstance(stalled, critvals.NewtonStalled)
    assert len(args) == 3 and "initial" not in cold and restarted is solved
    values = critvals.phi(critvals.PhiProblem(solved.gaps, mults))
    assert max(abs(v - t) for v, t in zip(values, s)) <= ctx.mpf(10) ** (6 - ctx.digits)


def test_singular_warm_start_restarts_cold(monkeypatch):
    # A prediction at gaps (1, 1e-30, 1) makes the Jacobian numerically
    # singular; Newton from the Chebyshev start solves the problem.
    ctx, mults = ctx40(), (1, 1, 1, 1)
    one = ctx.mp.mpf(1)
    far = (one, ctx.mpf("1e-30"), one)
    monkeypatch.setattr(critvals, "predicted_start", lambda previous, s, ctx: far)
    s = list(critvals.phi(critvals.PhiProblem((one,) * 3, mults)))
    inversions = spy(monkeypatch, critvals, "invert_phi")
    solved = critvals.solve_gaps(s, mults, ctx, previous=critvals.InversionResult(far, 1, ()))
    (_, warm, singular), (args, cold, restarted) = inversions
    assert warm["initial"] == far and isinstance(singular, critvals.SingularJacobian)
    assert len(args) == 3 and "initial" not in cold and restarted is solved
    assert all(ctx.equal(g, 1) for g in solved.gaps)


def test_unsolvable_problem_gives_up_after_one_newton(monkeypatch):
    # A Phi whose residual never shrinks stalls Newton from the Chebyshev
    # start, so solve_gaps raises after that one call instead of searching
    # further.  The Chebyshev pattern's own Phi is cached first, so that the
    # stand-in below never reaches that cache.
    ctx, mults = ctx40(), (1, 2, 1, 2)
    s = [ctx.mpf(Fraction(1, 7)), ctx.mpf(Fraction(2, 11)), ctx.mpf(Fraction(1, 9))]
    critvals.chebyshev_init(mults, ctx, s)
    monkeypatch.setattr(critvals, "phi", lambda problem: tuple(v + 1 for v in s))
    inversions = spy(monkeypatch, critvals, "invert_phi")
    with pytest.raises(critvals.NewtonStalled, match="residual stuck at 1"):
        critvals.solve_gaps(s, mults, ctx)
    assert len(inversions) == 1


def test_value_gaps_over_forty_decades_invert_cold():
    # Value gaps from 2e-48 to 3.5e-3 (gaps from 4e-6 to 0.96): with Phi
    # rounded once, cold Newton solves them and recovers every gap to about
    # the working precision.
    ctx, mults = ctx40(), (2, 2, 2, 3, 3, 1)
    gaps = tuple(ctx.mpf(g) for g in ("4.04e-6", "1.62e-3", "2.82e-5", "1.51e-2", "0.956"))
    s = critvals.phi(critvals.PhiProblem(gaps, mults))
    solved = critvals.solve_gaps(list(s), mults, ctx)
    assert all(abs(got - want) <= ctx.mpf("1e-34") * want for got, want in zip(solved.gaps, gaps))


def test_reference_runs_invert_with_few_newton_iterations(monkeypatch):
    # A count of the inner work that does not depend on the host's speed:
    # the eight reference runs at their run_tol, whose outer steps are pinned
    # in test_pullback.  With three critical points or fewer the gap map is
    # inverted in closed form, so Newton runs only on the maps with four or
    # five (0,2,1,3,5,3^3,0 and 0,1,5,0,2,1,7,1,0).  Warm inversions start
    # from the Euler predictor (2.77 iterations on average), cold ones from
    # the sum-matched Chebyshev start.
    inversions = spy(monkeypatch, critvals, "invert_phi")
    runs = sorted({(row.combinatorics, row.run_tol) for row in ROWS})
    steps = sum(
        thurston.run(thurston.parse(text), thurston.RunOptions(tol=tol)).iterations
        for text, tol in runs
    )
    assert steps == 145
    warm = [result.iterations for _, kwargs, result in inversions if "initial" in kwargs]
    cold = [result.iterations for _, kwargs, result in inversions if "initial" not in kwargs]
    assert all(len(args[1]) >= 4 for args, _, _ in inversions)
    assert sum(warm) <= 3 * len(warm)
    assert sum(cold) <= 22


def test_newton_iteration_cap_raises_typed_errors(monkeypatch):
    monkeypatch.setattr(critvals, "NEWTON_MAX_ITERATIONS", 1)
    with pytest.raises(critvals.NewtonStalled):
        critvals.invert_phi([Fraction(1, 7), Fraction(2, 11), Fraction(1, 9)], (1, 2, 1, 2), ctx40())
    with pytest.raises(thurston.PullbackError) as info:
        thurston.run(thurston.parse("0,2,1,3,5,3^3,0"))
    assert str(info.value).startswith("step 1 (0,2,1,3,5,3^3,0):")
    assert isinstance(info.value.__cause__, critvals.NewtonStalled)
