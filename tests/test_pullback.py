"""Per-operation checks and short end-to-end runs of the iteration."""

import functools
import itertools
from fractions import Fraction

import pytest

from thurston import combinatorics as comb
from thurston import critvals, mpnum, pullback
from thurston._table import ROWS


def ctx40():
    return mpnum.PrecisionContext(40)


def table_cubic(ctx):
    return mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(6), ctx.mp.mpf(-15), ctx.mp.mpf(10)))


def fixed_cubic_configuration(ctx):
    c1 = (5 - ctx.mp.sqrt(5)) / 10
    c2 = (5 + ctx.mp.sqrt(5)) / 10
    return pullback.MarkedConfiguration(
        (ctx.mp.mpf(0), c1, ctx.mp.mpf(1) / 2, c2, ctx.mp.mpf(1))
    )


# ---------------------------------------------------------------- pieces

def test_init_configuration_spacing():
    ctx = ctx40()
    for text, expected in [
        ("0,3,2,1,4", [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]),
        ("0,4,3,1,2,5", [Fraction(j, 5) for j in range(6)]),
        ("0,1,0", [0, Fraction(1, 2), 1]),
    ]:
        x = pullback.init_configuration(comb.parse(text), ctx)
        assert x.points[0] == 0 and x.points[-1] == 1
        for got, want in zip(x.points, expected):
            assert ctx.equal(got, ctx.mpf(want))


def test_configuration_invariants():
    ctx = ctx40()
    with pytest.raises(ValueError):
        pullback.MarkedConfiguration((ctx.mp.mpf(0), ctx.mp.mpf(2)))
    with pytest.raises(ValueError):
        pullback.MarkedConfiguration(
            (ctx.mp.mpf(0), ctx.mp.mpf(0.8), ctx.mp.mpf(0.2), ctx.mp.mpf(1))
        )


def realized_values(realized):
    return tuple(realized.polynomial(p) for p in realized.critical_points)


def assert_values(ctx, got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= ctx.mpf("1e-30")


def test_mapmake_quintic_dedupes_multiplicity():
    c = comb.parse("0,2,6^2,4,3^3,1^2,4,7")
    ctx = ctx40()
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    # distinct critical indices 2, 4, 5 give values x6, x3, x1 (one entry for
    # the degree-three point, not two)
    assert len(realized.critical_points) == 3
    assert_values(ctx, realized_values(realized), (x.points[6], x.points[3], x.points[1]))
    assert c.critical_points() == (2, 4, 5)
    assert tuple(c.local_degree[j] - 1 for j in c.critical_points()) == (1, 2, 1)


def test_mapmake_values_simple_cases():
    ctx = ctx40()
    c = comb.parse("0,3,2,1,4")
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    assert_values(ctx, realized_values(realized), (x.points[3], x.points[1]))

    c = comb.parse("0,1,0")
    x = pullback.init_configuration(c, ctx)
    assert realized_values(pullback.mapmake(c, x, ctx)) == (x.points[1],)


def test_mapmake_prescribes_values():
    ctx = ctx40()
    c = comb.parse("0,3,2,1,4")
    # x_{m_1} = x_3 = 3/4 and x_{m_3} = x_1 = 1/4
    x = pullback.MarkedConfiguration(tuple(ctx.mpf(Fraction(j, 4)) for j in range(5)))
    values = (ctx.mpf(Fraction(3, 4)), ctx.mpf(Fraction(1, 4)))
    realized = pullback.mapmake(c, x, ctx)
    f = realized.polynomial
    for point, value in zip(realized.critical_points, values):
        assert abs(f(point) - value) <= ctx.mpf("1e-30")
        assert abs(f.derivative()(point)) <= ctx.mpf("1e-30")
    assert realized.critical_points[0] < realized.critical_points[1]


def test_mapmake_single_value_tent():
    ctx = ctx40()
    c = comb.parse("0,1,0")
    realized = pullback.mapmake(c, pullback.init_configuration(c, ctx), ctx)
    # single critical value: quadratic with maximum 1/2
    assert realized.polynomial.degree == 2
    assert ctx.equal(realized.polynomial(realized.critical_points[0]), ctx.mpf("0.5"))


def test_normalize_identity_when_already_framed():
    # (1-(2x-1)^4)/2 is already framed for 0,1^4,0: A=0, B=1
    ctx = ctx40()
    c = comb.parse("0,1^4,0")
    coeffs = (ctx.mp.mpf(0), ctx.mp.mpf(4), ctx.mp.mpf(-12), ctx.mp.mpf(16), ctx.mp.mpf(-8))
    f_raw = mpnum.Polynomial(coeffs)
    realized = critvals.RealizedMap(
        f_raw, (ctx.mp.mpf(1) / 2,), critvals.InversionResult((), 0, ())
    )
    normalized = pullback.normalize(c, realized, ctx)
    assert abs(normalized.frame_low) <= 10 * ctx.tau
    assert abs(normalized.frame_high - 1) <= 10 * ctx.tau
    for got, want in zip(normalized.polynomial.coefficients, coeffs):
        assert abs(got - want) <= ctx.mpf("1e-30")


def test_normalize_affine_round_trip():
    ctx = ctx40()
    c = comb.parse("0,1^4,0")
    coeffs = (ctx.mp.mpf(0), ctx.mp.mpf(4), ctx.mp.mpf(-12), ctx.mp.mpf(16), ctx.mp.mpf(-8))
    f = mpnum.Polynomial(coeffs)
    stretched = mpnum.affine_substitute(f, ctx.mp.mpf(0), ctx.mp.mpf(1) / 2)  # f(x/2)
    realized = critvals.RealizedMap(
        stretched, (ctx.mp.mpf(1),), critvals.InversionResult((), 0, ())
    )
    normalized = pullback.normalize(c, realized, ctx)
    assert abs(normalized.frame_low) <= 10 * ctx.tau
    assert abs(normalized.frame_high - 2) <= ctx.mpf("1e-30")
    for got, want in zip(normalized.polynomial.coefficients, coeffs):
        assert abs(got - want) <= ctx.mpf("1e-30")
    assert ctx.equal(normalized.critical_points[0], ctx.mp.mpf(1) / 2)


def test_normalize_boundary_critical_framing_point():
    # for 0,2,0^3 the upper framing point is itself the boundary critical
    # point; the final lap must extend past it for the solve to succeed
    ctx = ctx40()
    c = comb.parse("0,2,0^3")
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    normalized = pullback.normalize(c, realized, ctx)
    f = normalized.polynomial
    assert abs(f(ctx.mp.mpf(0))) <= 10 * ctx.tau
    assert abs(f(ctx.mp.mpf(1))) <= ctx.mpf("1e-11")
    # B sits at a cubic-order tangency, so its x-accuracy is only the cube
    # root of the value tolerance; the framing values above are the contract
    assert abs(normalized.critical_points[0] - ctx.mp.mpf(1) / 4) <= ctx.mpf("1e-11")


def test_pullback_step_fixes_exact_fixed_point():
    ctx = ctx40()
    c = comb.parse("0,3,2,1,4")
    f = table_cubic(ctx)
    x = fixed_cubic_configuration(ctx)
    # direct check that this really is a fixed configuration
    for j in range(5):
        assert abs(f(x.points[j]) - x.points[c.m[j]]) <= ctx.mpf("1e-35")
    c1, c2 = x.points[1], x.points[3]
    inversion = critvals.InversionResult((), 0, ())  # pullback_step reads no inversion
    normalized = pullback.NormalizedMap(f, (c1, c2), ctx.mp.mpf(0), ctx.mp.mpf(1), inversion)
    moved = pullback.pullback_step(c, normalized, x, ctx)
    for got, want in zip(moved.points, x.points):
        assert abs(got - want) <= ctx.mpf("1e-30")


def test_pullback_step_tent_goes_to_critical_point():
    ctx = ctx40()
    c = comb.parse("0,1,0")
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    normalized = pullback.normalize(c, realized, ctx)
    moved = pullback.pullback_step(c, normalized, x, ctx)
    assert moved.points[1] == normalized.critical_points[0]


def test_pullback_first_step_moves_points():
    ctx = ctx40()
    c = comb.parse("6,2^4,3,4,5,1,0")
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    normalized = pullback.normalize(c, realized, ctx)
    moved = pullback.pullback_step(c, normalized, x, ctx)
    shift = max(abs(a - b) for a, b in zip(moved.points, x.points))
    assert shift > ctx.mpf("0.01")


def test_fit_error_zero_at_fixed_point():
    ctx = ctx40()
    c = comb.parse("0,3,2,1,4")
    eps = pullback.fit_error(c, table_cubic(ctx), fixed_cubic_configuration(ctx), ctx)
    assert eps <= ctx.mpf("1e-13")


def test_fit_error_single_offset():
    ctx = ctx40()
    c = comb.Combinatorics((0, 1, 1, 3), (1, 1, 1, 1))
    identity = mpnum.Polynomial((ctx.mp.mpf(0), ctx.mp.mpf(1)))
    x = pullback.MarkedConfiguration(
        (ctx.mp.mpf(0), ctx.mpf("0.4"), ctx.mpf("0.43"), ctx.mp.mpf(1))
    )
    eps = pullback.fit_error(c, identity, x, ctx)
    assert ctx.equal(eps, ctx.mpf("0.01"))


def test_fit_error_first_quintic_step():
    ctx = ctx40()
    c = comb.parse("0,2,6^2,4,3^3,1^2,4,7")
    x = pullback.init_configuration(c, ctx)
    realized = pullback.mapmake(c, x, ctx)
    normalized = pullback.normalize(c, realized, ctx)
    moved = pullback.pullback_step(c, normalized, x, ctx)
    eps = pullback.fit_error(c, normalized.polynomial, moved, ctx)
    assert ctx.mpf("0.03") < eps < ctx.mpf("0.045")


# ---------------------------------------------------------------- collapse

def test_detect_collapse_one_gap():
    ctx = ctx40()
    x = pullback.MarkedConfiguration((
        ctx.mp.mpf(0), ctx.mpf("0.3"), ctx.mpf("0.5"),
        ctx.mpf("0.5") + ctx.mpf("1e-14"), ctx.mpf("0.8"), ctx.mp.mpf(1),
    ))
    assert pullback.detect_collapse(x, ctx.mpf("1e-9")) == ((2, 3),)


def test_detect_collapse_none_when_spaced():
    ctx = ctx40()
    x = pullback.init_configuration(comb.parse("0,4,3,1,2,5"), ctx)
    assert pullback.detect_collapse(x, ctx.mpf("1e-9")) == ()


def test_detect_collapse_transitive_run():
    ctx = ctx40()
    tiny = ctx.mpf("1e-12")
    base = [ctx.mp.mpf(0), ctx.mpf("0.2"), ctx.mpf("0.3"), ctx.mpf("0.4")]
    pts = base + [base[-1] + tiny, base[-1] + 2 * tiny, ctx.mpf("0.7"), ctx.mp.mpf(1)]
    x = pullback.MarkedConfiguration(tuple(pts))
    assert pullback.detect_collapse(x, ctx.mpf("1e-9")) == ((3, 4, 5),)


# ---------------------------------------------------------------- runs

def test_run_rejects_invalid_combinatorics():
    with pytest.raises(pullback.InvalidCombinatorics):
        pullback.run(comb.Combinatorics((1, 2, 0), (1, 2, 1)))


@pytest.mark.parametrize("field, options", [
    ("tol", {"tol": "-1"}),
    ("tol", {"tol": "0"}),
    ("tol", {"tol": "nan"}),
    ("tol", {"tol": "inf"}),
    ("tol", {"tol": "abc"}),
    ("max_iter", {"max_iter": 0}),
    ("start_digits", {"start_digits": 14}),
    ("start_digits", {"start_digits": 40.5}),
    ("max_digits", {"start_digits": 60, "max_digits": 50}),
], ids=["tol -1", "tol 0", "tol nan", "tol inf", "tol abc", "max_iter 0", "start_digits 14",
        "start_digits 40.5", "max_digits below start"])
def test_run_options_refuse_what_no_run_can_use(field, options):
    with pytest.raises(ValueError) as info:
        pullback.RunOptions(**options)
    assert str(info.value).startswith(f"{field}: ")


def test_run_exact_cubic():
    result = pullback.run(comb.parse("0,3,2,1,4"), pullback.RunOptions(tol="1e-12"))
    ctx = mpnum.PrecisionContext(result.digits)
    assert result.converged and result.fit <= ctx.mpf("1e-12")
    expected = (0, 6, -15, 10)
    for got, want in zip(result.polynomial.coefficients, expected):
        assert abs(got - want) <= ctx.mpf("1e-9")
    assert 8 <= result.iterations <= 21
    assert not result.collapsed


def test_run_boundary_critical_first_step():
    result = pullback.run(comb.parse("0,2,0^3"))
    ctx = mpnum.PrecisionContext(result.digits)
    assert result.converged and result.iterations == 1
    k = ctx.mp.mpf(256) / 27
    for got, want in zip(result.polynomial.coefficients, (0, k, -3 * k, 3 * k, -k)):
        assert abs(got - want) <= ctx.mpf("1e-9")


def test_run_fixed_tent_is_immediate():
    result = pullback.run(comb.parse("0,1,0"))
    ctx = mpnum.PrecisionContext(result.digits)
    assert result.converged and result.iterations == 1
    for got, want in zip(result.polynomial.coefficients, (0, 2, -2)):
        assert abs(got - want) <= ctx.mpf("1e-20")


def test_run_trace_and_residuals():
    result = pullback.run(
        comb.parse("0,3,2,1,4"), pullback.RunOptions(tol="1e-10", keep_trace=True)
    )
    assert len(result.trace) == result.iterations == len(result.residuals)
    assert result.trace[0].step == 1
    assert result.trace[-1].fit == result.fit
    # residuals decrease essentially monotonically for this tame case
    assert result.residuals[-1] < result.residuals[0]


def test_run_non_convergence_diagnostic():
    result = pullback.run(comb.parse("0,4,3,1,2,5"), pullback.RunOptions(max_iter=3))
    assert not result.converged
    assert result.iterations == 3
    assert result.polynomial is not None and result.fit is not None


def test_run_collapse_single_edge():
    result = pullback.run(comb.parse("0,4,3,2,1,2,0"))
    assert result.converged and result.collapsed
    assert comb.render(result.combinatorics) == "0,3,2,1,2,0"
    assert result.collapse_events[0].groups == ((2, 3),)
    assert result.configuration.n == 5


def test_run_collapse_both_ends():
    result = pullback.run(comb.parse("0,1,5,0,2,1,7,1,0"))
    assert result.converged and result.collapsed
    assert comb.render(result.combinatorics) == "0,4,0,1,0,6,0"
    assert result.collapse_events[0].groups == ((0, 1), (7, 8))


def test_run_builds_laps_once_per_combinatorics(monkeypatch):
    # every step looks the laps up; only the original and the merged
    # combinatorics build them
    built, build = [], comb.Combinatorics._laps.func

    def counted(c):
        built.append(build(c))
        return built[-1]

    kept = functools.cached_property(counted)
    kept.__set_name__(comb.Combinatorics, "_laps")
    monkeypatch.setattr(comb.Combinatorics, "_laps", kept)
    result = pullback.run(comb.parse("0,4,3,2,1,2,0"))
    assert result.converged and len(result.collapse_events) == 1
    assert result.iterations > 2
    assert built == [comb.laps(result.original), comb.laps(result.combinatorics)]


def test_dense_maps_solve_and_reframe_through_mpnum_by_name(monkeypatch):
    # Polynomial.frame and .preimages look solve_monotone and
    # affine_substitute up in mpnum at each call, where a tracer that spans
    # them by name finds them.  0,4,3,1,2,5 has two critical points and no
    # passengers: each step solves two framing points and two interior
    # points and reframes once; with r = 2 no gap-ratio solve is counted.
    counts = {"solve_monotone": 0, "affine_substitute": 0}

    def counted(name):
        original = getattr(mpnum, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(mpnum, name, counted(name))
    result = pullback.run(comb.parse("0,4,3,1,2,5"), pullback.RunOptions(tol="1e-9"))
    assert result.converged and result.iterations > 2
    assert counts == {"solve_monotone": 4 * result.iterations,
                      "affine_substitute": result.iterations}


def test_run_collapse_with_explicit_threshold(monkeypatch):
    # a looser threshold merges earlier but lands on the same limit
    strict = pullback.run(comb.parse("0,1,5,0,2,1,7,1,0"))
    monkeypatch.setattr(pullback, "COLLAPSE_THRESHOLD", "1e-4")
    loose = pullback.run(comb.parse("0,1,5,0,2,1,7,1,0"))
    assert loose.converged and loose.collapsed
    assert comb.render(loose.combinatorics) == "0,4,0,1,0,6,0"
    assert loose.collapse_events[0].step < strict.collapse_events[0].step


def test_run_framing_invariant():
    for text in ["0,3,2,1,4", "0,1^4,0", "6,2^4,3,4,5,1,0"]:
        c = comb.parse(text)
        result = pullback.run(c, pullback.RunOptions(tol="1e-10"))
        assert result.converged
        ctx = mpnum.PrecisionContext(result.digits)
        f = result.polynomial
        target0 = 1 if c.m[0] == c.n else 0
        target1 = 1 if c.m[c.n] == c.n else 0
        assert abs(f(ctx.mp.mpf(0)) - target0) <= ctx.mpf("1e-12")
        assert abs(sum(f.coefficients) - target1) <= ctx.mpf("1e-12")


def test_one_extra_step_is_idempotent_at_the_limit():
    result = pullback.run(comb.parse("0,3,2,1,4"), pullback.RunOptions(tol="1e-10"))
    ctx = mpnum.PrecisionContext(result.digits)
    c = result.combinatorics
    x = result.configuration
    realized = pullback.mapmake(c, x, ctx)
    normalized = pullback.normalize(c, realized, ctx)
    moved = pullback.pullback_step(c, normalized, x, ctx)
    drift = max(abs(a - b) for a, b in zip(moved.points, x.points))
    assert drift < 10 * result.fit


@pytest.mark.parametrize("text,tol,steps", [
    ("0,4,3,1,2,5", "1e-9", 24),
    ("0,2,6^2,4,3^3,1^2,4,7", "1e-9", 16),
    ("0,3,2,1,4", "1e-13", 15),
    ("0,3^4,2^3,1,4", "1e-9", 13),
    ("6,2^4,3,4,5,1,0", "0.0021", 3),
    ("0,2,1,3,5,3^3,0", "1e-9", 19),
    ("0,4,3,2,1,2,0", "1e-10", 45),
    ("0,1,5,0,2,1,7,1,0", "1e-10", 10),
])
def test_reference_run_outer_steps(text, tol, steps):
    # the eight distinct runs behind the published reference rows, at their
    # run_tol; a change to the inner solver must not move the outer iteration
    runs = {(row.combinatorics, row.run_tol) for row in ROWS}
    assert (text, tol) in runs and len(runs) == 8
    result = pullback.run(comb.parse(text), pullback.RunOptions(tol=tol))
    assert result.converged and result.iterations == steps


UNIMODAL_RUNS = [
    ("6,5,4,3,1,4,6", 15, None),
    ("6,5,4,3,2,3,6", 18, None),
    ("0,1,2,0", 3, "0,1,0"),
    ("0,1,3,0", 2, "0,2,0"),
    ("6,5,4,3,4,5,6", 2, "2,1,2"),
    ("6,5,4,3,2,1,6", 19, "4,3,2,1,4"),
]


@pytest.mark.parametrize("text,steps,final", UNIMODAL_RUNS, ids=[run[0] for run in UNIMODAL_RUNS])
def test_unimodal_run_outer_steps(text, steps, final):
    # one critical point, so every lap preimage and framing point is a
    # closed-form root.  Each of these has passengers, so the run stops once
    # the core fits and places them: the steps are the core's, and the run
    # must still reach the combinatorics that iterating every point did
    result = pullback.run(comb.parse(text))
    assert result.converged and result.iterations == steps
    assert result.collapsed == (final is not None)
    assert comb.render(result.combinatorics) == (final or text)


def test_explicit_degree_unimodal_run():
    # a degree-4 turning point: the closed-form root is a fourth root
    c = comb.parse("0,2^4,1,0")
    result = pullback.run(c)
    assert result.converged and result.iterations == 11 and not result.collapsed
    ctx = mpnum.PrecisionContext(result.digits)
    f, x = result.polynomial, result.configuration.points
    assert f.degree == 4
    assert abs(f(ctx.mp.mpf(0))) <= ctx.mpf("1e-30")
    assert abs(f(ctx.mp.mpf(1))) <= ctx.mpf("1e-30")
    assert abs(f.derivative()(x[1])) <= ctx.mpf("1e-30")


def test_nudged_passenger_is_placed_not_iterated(monkeypatch):
    # x_2 of 0,3,2,1,4 is a passenger fixed point that starts on its limit.
    # Nudged, iterating it converges at 1/|f'(x_2)| = 0.667 per step (227
    # steps); the core converges at 0.167 and placement puts x_2 in one go.
    start = pullback.init_configuration

    def nudged(c, ctx):
        points = list(start(c, ctx).points)
        points[2] += ctx.mpf("1e-20")
        return pullback.MarkedConfiguration(tuple(points))

    monkeypatch.setattr(pullback, "init_configuration", nudged)
    result = pullback.run(comb.parse("0,3,2,1,4"), pullback.RunOptions(tol="1e-60", max_iter=1000))
    assert result.converged and result.iterations <= 90


# The last four have passenger cycles longer than one: a 2-cycle, a 2-cycle
# with a chain into it, a 3-cycle and a 4-cycle.
@pytest.mark.parametrize("text", [
    "0,3,2,1,4", "6,5,4,3,2,3,6", "0,2,1,3,4,3,0",
    "0,3,4,1,0", "0,2,4,5,2,0", "0,2,4,5,1,0", "0,2,3,5,6,1,0",
])
def test_passengers_are_placed_to_working_precision(text):
    c = comb.parse(text)
    core = comb.core_indices(c)
    assert len(core) <= c.n
    result = pullback.run(c)
    assert result.converged and not result.collapsed
    ctx = mpnum.PrecisionContext(result.digits)
    f, x = result.polynomial, result.configuration.points
    # the result reports the map the run fitted, so its fit is reproduced exactly
    assert pullback.fit_error(c, f, result.configuration, ctx) == result.fit
    for j in set(range(c.n + 1)) - core:
        assert abs(f(x[j]) - x[c.m[j]]) <= 10 * ctx.tau, j


def run_counting_placement_solves(monkeypatch, text, nudge=None):
    """The run of ``text`` and the lap solves each placement took; ``nudge(f, ctx,
    root, count)``, if given, replaces every root a placement's solver returns."""
    lap_preimage, place = pullback._lap_preimage, pullback.place_passengers
    costs, placing = [], []  # the solves of finished placements, of the current one

    def counted(f, laps, j, bounds, target, start, ctx):
        root = lap_preimage(f, laps, j, bounds, target, start, ctx)
        if placing:
            placing[-1] += 1
            if nudge is not None:
                root = nudge(f, ctx, root, placing[-1])
        return root

    def placed(*args):
        placing.append(0)
        try:
            return place(*args)
        finally:
            costs.append(placing.pop())

    with monkeypatch.context() as patch:
        patch.setattr(pullback, "_lap_preimage", counted)
        patch.setattr(pullback, "place_passengers", placed)
        return pullback.run(comb.parse(text)), costs


@pytest.mark.parametrize("text", ["0,2,3,4,0", "0,2,3,2,4"])
def test_a_chain_passenger_costs_one_lap_solve(monkeypatch, text):
    # Every passenger here reaches the core without a passenger cycle (in
    # 0,2,3,4,0, x_1 maps onto the passenger x_2 and x_2 onto the core point
    # x_3), so one lap solve each on the final map, images first, places
    # them exactly; Newton is left for passenger cycles.
    c = comb.parse(text)
    passengers = sorted(set(range(c.n + 1)) - comb.core_indices(c))
    result, costs = run_counting_placement_solves(monkeypatch, text)
    assert result.converged and not result.collapsed
    assert costs and all(cost == len(passengers) for cost in costs)
    ctx = mpnum.PrecisionContext(result.digits)
    x = result.configuration.points
    for j in passengers:
        assert abs(result.polynomial(x[j]) - x[c.m[j]]) <= 10 * ctx.tau, j


@pytest.mark.parametrize("text", [
    "4,1,0,4,0", "0,3,2,1,4", "6,5,4,3,2,3,6",
    # a 2-cycle and a 3-cycle, whose Newton composes several solves
    "0,3,4,1,0", "0,2,4,5,1,0",
])
def test_placement_does_not_depend_on_the_solvers_bits(monkeypatch, text):
    # The lap solver promises a residual within 10 tau, so x within
    # 10 tau / |f'(x)|, not its last bits.  Moving every root of a placement
    # by 3 tau / |f'(root)|, alternating in sign, stays inside that promise,
    # and the Newton on a passenger cycle must stop as soon as without it.
    def nudge(f, ctx, root, count):
        slope = abs(f.derivative()(root))
        return root + (-1) ** count * 3 * ctx.tau / slope if slope else root

    c = comb.parse(text)
    _, plain = run_counting_placement_solves(monkeypatch, text)
    result, nudged = run_counting_placement_solves(monkeypatch, text, nudge)
    assert result.converged and nudged == plain
    ctx = mpnum.PrecisionContext(result.digits)
    x = result.configuration.points
    for j in set(range(c.n + 1)) - comb.core_indices(c):
        assert abs(result.polynomial(x[j]) - x[c.m[j]]) <= 10 * ctx.tau, j


def test_warm_started_run_converges_deep():
    # a warm start accepted without a Newton correction (the previous gaps
    # rescaled by homogeneity) once roughly doubled this run (158 steps); it
    # takes about 80
    result = pullback.run(comb.parse("0,3,2,1,4"), pullback.RunOptions(tol="1e-60", max_iter=1000))
    assert result.converged and result.iterations <= 90


# Steps to tol 1e-60 (escalating from 40 to 80 digits) of the eight reference
# combinatorics before the gap map's closed form for two critical points and
# its translation-invariant Jacobian.  Rounding changes in the inversion used
# to wake a slow mode (ratio about 0.66) that roughly doubled a run.  That
# mode was a passenger, x_2 of 0,3,2,1,4 converging at 1/|f'(x_2)| per step;
# passengers are now placed on the final map instead of iterated
# (test_nudged_passenger_is_placed_not_iterated), so inner changes such as
# warm starts move these counts by a few steps, not by a factor.
DEEP_STEPS = {
    "0,4,3,1,2,5": 202,
    "0,2,6^2,4,3^3,1^2,4,7": 136,
    "0,3,2,1,4": 80,
    "0,3^4,2^3,1,4": 94,
    "6,2^4,3,4,5,1,0": 155,
    "0,2,1,3,5,3^3,0": 141,
    "0,4,3,2,1,2,0": 291,
    "0,1,5,0,2,1,7,1,0": 64,
}


@pytest.mark.parametrize("text", dict.fromkeys(row.combinatorics for row in ROWS))
def test_deep_runs_stay_within_a_tenth_of_their_step_counts(text):
    cap = -(-DEEP_STEPS[text] * 11 // 10)
    result = pullback.run(comb.parse(text), pullback.RunOptions(tol="1e-60", max_iter=1000))
    assert result.converged and result.iterations <= cap


def test_out_of_order_pullback_raises_with_step_context(monkeypatch):
    # Lap solves that answer below their laps put the points left of x_0 = 0.
    def misplaced(f, targets, laps, ctx, starts):
        return [None if lap is None else lap[0] - 1 for lap in laps]

    monkeypatch.setattr(mpnum.Polynomial, "preimages", misplaced)
    with pytest.raises(pullback.PullbackError) as info:
        pullback.run(comb.parse("0,3,2,1,4"))
    assert str(info.value) == "step 1 (0,3,2,1,4): pulled-back configuration is out of order"


def antiderivative(p, base_point, base_value):
    """The antiderivative of the Polynomial p through (base_point, base_value)."""
    coeffs = [p.coefficients[0] * 0] + [c / (i + 1) for i, c in enumerate(p.coefficients)]
    constant = base_value - mpnum.Polynomial(tuple(coeffs))(base_point)
    return mpnum.Polynomial((coeffs[0] + constant, *coeffs[1:]))


@pytest.mark.parametrize("text", ["0,1,0", "2,1,2", "0,2^4,1,0", "0,1^6,0", "3,1,2,3", "4,2,1,3,4"])
def test_power_map_frames_as_the_dense_antiderivative(text):
    # With one critical point mapmake builds v + (sigma/d) x**d as a PowerMap, which
    # frames and pulls back by ratios of integer roots.  The dense antiderivative of
    # sigma * x**(d-1) through (0, v) is the same map, framed and pulled back by the
    # searches to the solvers' residual: the framed coefficients agree within 1e-30,
    # the framing points, the critical point and every pulled-back point within 10 tau.
    ctx = ctx40()
    c = comb.parse(text)
    sigma = comb.laps(c)[-1].orientation
    x = pullback.init_configuration(c, ctx)
    for _ in range(3):
        realized = pullback.mapmake(c, x, ctx)
        f = realized.polynomial
        assert isinstance(f, mpnum.PowerMap)
        zero = ctx.mp.mpf(0)
        slope = mpnum.Polynomial((zero,) * (f.degree - 1) + (ctx.mp.mpf(sigma),))
        dense = critvals.RealizedMap(
            antiderivative(slope, zero, x.points[c.m[c.critical_points()[0]]]),
            realized.critical_points, realized.inversion,
        )
        closed, via_dense = pullback.normalize(c, realized, ctx), pullback.normalize(c, dense, ctx)
        assert isinstance(closed.polynomial, mpnum.PowerMap)
        assert type(via_dense.polynomial) is mpnum.Polynomial
        for got, want in zip(closed.polynomial.coefficients, via_dense.polynomial.coefficients):
            assert abs(got - want) <= ctx.mpf("1e-30")
        moved = pullback.pullback_step(c, closed, x, ctx)
        searched = pullback.pullback_step(c, via_dense, x, ctx)
        for got, want in ((closed.frame_low, via_dense.frame_low),
                          (closed.frame_high, via_dense.frame_high),
                          (closed.critical_points[0], via_dense.critical_points[0]),
                          *zip(moved.points, searched.points)):
            assert abs(got - want) <= 10 * ctx.tau
        x = moved


def tent_map(ctx, value):
    """The one-critical-point map of 0,1,0 with critical value ``value``, as mapmake builds it."""
    zero = ctx.mp.mpf(0)
    f = mpnum.PowerMap(zero, ctx.mpf(value), ctx.mp.mpf(-1) / 2, 2)
    return critvals.RealizedMap(f, (zero,), critvals.InversionResult((), 0, ()))


def test_power_map_framing_refuses_a_target_beyond_the_critical_value():
    # 0,1,0 frames 0 and 1 on 0, below a maximum at -1/4
    ctx = ctx40()
    with pytest.raises(mpnum.RootBracketError) as info:
        pullback.normalize(comb.parse("0,1,0"), tent_map(ctx, "-0.25"), ctx)
    assert str(info.value) == "target 0.0 lies beyond the critical value -0.25"


def test_power_map_framing_points_in_the_wrong_order():
    # a critical value on the framing target: A = B = the critical point
    ctx = ctx40()
    with pytest.raises(pullback.PullbackError) as info:
        pullback.normalize(comb.parse("0,1,0"), tent_map(ctx, "1e-40"), ctx)
    assert str(info.value) == "framing points came out in the wrong order"


def test_power_map_pullback_refuses_a_target_beyond_the_critical_value():
    # 0,2,1,0 framed on x_2 = 2/3, then asked to pull back x_1 = 0.9 above that maximum
    ctx, c = ctx40(), comb.parse("0,2,1,0")
    x = pullback.init_configuration(c, ctx)
    normalized = pullback.normalize(c, pullback.mapmake(c, x, ctx), ctx)
    later = pullback.MarkedConfiguration(tuple(map(ctx.mpf, ("0", "0.9", "0.95", "1"))))
    with pytest.raises(mpnum.RootBracketError) as info:
        pullback.pullback_step(c, normalized, later, ctx)
    assert str(info.value) == "target 0.9 lies beyond the critical value 0.66666667"


def test_power_map_pullback_out_of_order():
    # a critical point put right of where the pulled-back x_2 lands
    ctx, c = ctx40(), comb.parse("0,2,1,0")
    x = pullback.init_configuration(c, ctx)
    normalized = pullback.normalize(c, pullback.mapmake(c, x, ctx), ctx)
    misplaced = pullback.NormalizedMap(normalized.polynomial, (ctx.mpf("0.99"),),
                                       normalized.frame_low, normalized.frame_high,
                                       normalized.inversion)
    with pytest.raises(pullback.PullbackError) as info:
        pullback.pullback_step(c, misplaced, x, ctx)
    assert str(info.value) == "pulled-back configuration is out of order"


@pytest.mark.parametrize("target, outcome", [
    ("-0.5", "target -0.5 outside lap range: its root -0.11237244 lies beyond the lap end 0.0"),
    ("-1e-39", 0),  # past the lap end, but within the residual bound there
])
def test_power_map_preimages_past_a_lap_end(target, outcome):
    # the framed tent 1 - 4 (x - 1/2)**2, asked for a target below its lap end f(0) = 0:
    # the closed form and the root's contract give the same answer
    ctx = ctx40()
    framed = pullback.normalize(comb.parse("0,1,0"), tent_map(ctx, 1), ctx).polynomial
    targets, lap = (ctx.mp.zero, ctx.mpf(target), ctx.mp.zero), (ctx.mp.zero, framed.center, 1)
    if outcome:
        with pytest.raises(mpnum.RootBracketError) as info:
            framed.preimages(targets, (None, lap, None), ctx, None)
        assert str(info.value) == outcome
    else:
        assert framed.preimages(targets, (None, lap, None), ctx, None)[1] == outcome


@pytest.mark.parametrize("text, kind", [
    ("0,2,1,0", mpnum.PowerMap), ("0,2,3,4,0", mpnum.PowerMap), ("0,4,3,2,1,0", mpnum.PowerMap),
    ("0,4,3,1,2,5", mpnum.Polynomial),
])
def test_passengers_and_pulled_back_points_share_one_kernel(text, kind):
    # _lap_preimage, which places the passengers, inverts a lap by the map's own
    # preimages: for the target, lap and start of every interior non-critical index
    # of the first steps, the same bits as preimages on that one lap and as the
    # point pullback_step pulled back
    ctx, c = ctx40(), comb.parse(text)
    x, normalized, critical = pullback.init_configuration(c, ctx), None, c.critical_points()
    for _ in range(8):
        normalized = pullback.normalize(c, pullback.mapmake(c, x, ctx, normalized), ctx, normalized)
        f, new = normalized.polynomial, pullback.pullback_step(c, normalized, x, ctx)
        assert type(f) is kind
        targets = [x.points[k] for k in c.m]
        for j in set(range(1, c.n)) - set(critical):
            laps = [pullback._lap(c, j, new.points) if i == j else None for i in range(c.n + 1)]
            want = f.preimages(targets, laps, ctx, x.points)[j]
            got = pullback._lap_preimage(f, c, j, new.points, targets[j], x.points[j], ctx)
            assert got._mpf_ == want._mpf_ == new.points[j]._mpf_, (j, got, want)
        x = new


def test_a_passenger_placement_takes_one_integer_root(monkeypatch):
    # a framed PowerMap carries rho_0 and rho_0 + rho_n, so inverting one lap for a
    # passenger takes the root of that one target and no framing root again
    counts, inside = {"placements": 0, "roots": 0}, []
    lap_preimage, iroot = pullback._lap_preimage, mpnum.iroot

    def counted_placement(*args):
        counts["placements"] += 1
        inside.append(True)
        try:
            return lap_preimage(*args)
        finally:
            inside.pop()

    def counted_root(n, d):
        counts["roots"] += bool(inside)
        return iroot(n, d)

    monkeypatch.setattr(pullback, "_lap_preimage", counted_placement)
    monkeypatch.setattr(mpnum, "iroot", counted_root)
    for text in ("0,2,3,4,0", "0,4,3,2,1,0", "0,2,4,5,1,0"):
        assert pullback.run(comb.parse(text)).converged
    assert counts == {"placements": 33, "roots": 33}


@pytest.mark.parametrize("text", ["0,1,0", "0,2^4,1,0"])
def test_one_critical_point_results_carry_the_power_map(text):
    # the run reports the PowerMap it iterated; its coefficients are the expansion's
    result = pullback.run(comb.parse(text), pullback.RunOptions(keep_trace=True))
    assert type(result.polynomial) is mpnum.PowerMap
    assert result.trace and all(type(r.polynomial) is mpnum.PowerMap for r in result.trace)
    assert result.polynomial == result.trace[-1].polynomial
    for f in (result.polynomial, *(r.polynomial for r in result.trace)):
        assert f.coefficients == f.expanded.coefficients


def test_escalation_leaves_shared_contexts_alone():
    contexts = {d: mpnum.PrecisionContext(d).mp for d in (15, 30, 60, 120)}
    before = {d: (mp.dps, mp.prec) for d, mp in contexts.items()}
    result = pullback.run(
        comb.parse("0,3^4,2^3,1,4"),
        pullback.RunOptions(tol="1e-14", start_digits=15, max_digits=120),
    )
    assert result.converged and len(result.precision_history) > 1
    assert {d: (mp.dps, mp.prec) for d, mp in contexts.items()} == before
    assert all(mpnum.PrecisionContext(d).mp is mp for d, mp in contexts.items())


@pytest.mark.parametrize("text, max_iter, steps", [
    ("0,3,4,7,8,10,9,6,5,2,1,0", 400, 110),
    ("0,3,4,5,6,7,8,9,10,2,1,0", 100, 96),
])
def test_slow_linear_convergence_stays_at_the_start_digits(text, max_iter, steps):
    # census orbits of z**2 + c with period 10 near c = -2 contract at 0.84-0.89 a
    # step, so eps_core fails to halve over four steps long before the rounding
    # floor; more digits would not speed them up, and the run keeps its 40
    result = pullback.run(comb.parse(text), pullback.RunOptions(max_iter=max_iter))
    assert result.converged and result.iterations == steps
    assert result.digits == 40 and result.precision_history == ((1, 40),)


def small_sequences(largest, turning):
    """Valid default-degree sequences with n <= largest whose number of
    turning points passes ``turning``."""
    for n in range(2, largest + 1):
        for ends in itertools.product((0, n), repeat=2):
            for middle in itertools.product(range(n + 1), repeat=n - 1):
                m = (ends[0], *middle, ends[1])
                if any(a == b for a, b in zip(m, m[1:])):
                    continue
                c = comb.Combinatorics(m, comb.default_degrees(m))
                if turning(len(c.turning_points())) and comb.validate(c).passed:
                    yield c


def assert_converges_framed(c, options=pullback.RunOptions()):
    """The run converges to strictly increasing points that fit to tol, hit
    the framing targets and put f's critical points on the critical indices."""
    result = pullback.run(c, options)
    assert result.converged, comb.render(c)
    ctx = mpnum.PrecisionContext(result.digits)
    final, f, x = result.combinatorics, result.polynomial, result.configuration
    assert pullback.fit_error(final, f, x, ctx) <= ctx.mpf(options.tol), comb.render(c)
    assert all(a < b for a, b in zip(x.points, x.points[1:])), comb.render(c)
    for at, index in ((0, 0), (1, final.n)):
        target = 0 if final.m[index] == 0 else 1
        assert abs(f(ctx.mp.mpf(at)) - target) <= ctx.mpf("1e-30"), comb.render(c)
    for j in final.critical_points():
        assert abs(f.derivative()(x.points[j])) <= ctx.mpf("1e-30"), comb.render(c)


def test_every_small_one_turning_point_sequence_converges_framed():
    sequences = list(small_sequences(4, lambda turning: turning == 1))
    assert len(sequences) == 60
    for c in sequences:
        assert_converges_framed(c)


def test_every_small_multimodal_sequence_converges_framed():
    # with the one-turning-point test above: all 232 valid default-degree
    # sequences with n <= 4
    sequences = list(small_sequences(4, lambda turning: turning > 1))
    assert len(sequences) == 172
    for c in sequences:
        assert_converges_framed(c)


def three_critical_point_sequences(n):
    """Valid default-degree sequences on n + 1 points whose maps have three critical points."""
    return [c for c in small_sequences(n, lambda turning: True)
            if c.n == n and len(c.critical_points()) == 3]


def test_every_n4_sequence_with_three_critical_points_converges_framed():
    # their gap maps are inverted by one root in the gap ratio
    sequences = three_critical_point_sequences(4)
    assert len(sequences) == 60
    for c in sequences:
        assert_converges_framed(c)


# The n = 5 sequences with three critical points whose collapse merges onto
# an invalid combinatorics (ROADMAP item 1).
COLLAPSE_CASCADES = {
    "0,1,2,0,1,0", "0,1,3,0,1,0", "0,1,4,0,1,0", "0,1,5,0,1,0",
    "5,4,5,0,4,5", "5,4,5,1,4,5", "5,4,5,2,4,5", "5,4,5,3,4,5",
}


@pytest.mark.sweep
def test_every_n5_sequence_with_three_critical_points_converges_framed():
    sequences = three_critical_point_sequences(5)
    assert len(sequences) == 880
    for c in sequences:
        if comb.render(c) in COLLAPSE_CASCADES:
            with pytest.raises(pullback.PullbackError, match="merged combinatorics .* is invalid"):
                pullback.run(c)
        else:
            assert_converges_framed(c)
