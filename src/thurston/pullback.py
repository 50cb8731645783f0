"""The pull-back iteration.

One step, given marked points x_0..x_n and the combinatorics m:

  1. mapmake:   the polynomial whose j-th critical value is x_{m_j}, one
                per distinct critical index, by the gap map inversion in
                :mod:`thurston.critvals` from the previous step's;
  2. normalize: the framing preimages A and B of the interval endpoints in
                the unbounded first/last laps, searched from the previous
                step's, and precomposition with the increasing affine map
                sending 0 to A and 1 to B;
  3. pullback:  every marked point moves to the preimage of its image point
                in its own lap (critical indices to the critical points);
  4. fit:       eps = sqrt(sum (f(x_j) - x_{m_j})**2) / n at the new points,
                and eps_core, the same sum over the core indices alone.

Steps 2 and 3 invert f on its laps with the solver :func:`_lap_solver`
picks once per map.  With one critical point c, f stays a
:class:`~thurston.mpnum.PowerMap` v + a (x - c)**d through steps 1-4: built
as v + (sigma/d) x**d, reframed in closed form, inverted by one root
(:func:`~thurston.mpnum.solve_power`), and expanded into a dense polynomial
only for the result and the trace.  With two or more, the laps are searched
by :func:`~thurston.mpnum.solve_monotone`, from the previous step's solution.

Iterating contracts toward the unique polynomial realizing the
combinatorics.  The core (:func:`~thurston.combinatorics.core_indices`)
alone determines f; the other marked points, passengers, feed nothing back
and would converge only at 1/|f'| per step around their cycles.  So the run
iterates until eps_core meets the tolerance, places the passengers on that
map (:func:`place_passengers`), and converges once eps does too.  When
eps_core stops improving the working precision doubles, and when marked
points pile up (non-expansive edges of the model) they are merged, the
combinatorics is simplified accordingly, and the run continues on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_sqrt, mpf_sub

from . import combinatorics as comb
from . import critvals
from .mpnum import (
    Polynomial, PowerMap, PrecisionContext, affine_substitute, solve_monotone, solve_power, unboxed
)

STALL_WINDOW = 4
STALL_FACTOR = 0.5
# Gaps below COLLAPSE_THRESHOLD / n for COLLAPSE_PERSISTENCE steps merge their points.
COLLAPSE_THRESHOLD = "1e-8"
COLLAPSE_PERSISTENCE = 3
# Newton iterations at most in one placement of the passengers.
PLACEMENT_ITERATIONS = 30


class PullbackError(RuntimeError):
    """A step of the iteration failed; the message carries step context."""


class InvalidCombinatorics(ValueError):
    """The run was asked to start from combinatorics that fail validation."""


@dataclass(frozen=True)
class MarkedConfiguration:
    """Marked points 0 = x_0 <= ... <= x_n = 1 at some step of the run."""

    points: tuple
    step: int = 0

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a configuration needs at least the two endpoints")
        if not (pts[0] == 0 and pts[-1] == 1):
            raise ValueError("configuration endpoints must be exactly 0 and 1")
        for a, b in zip(pts, pts[1:]):
            if b < a:
                raise ValueError("marked points must be sorted")

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def gaps(self) -> tuple:
        return tuple(b - a for a, b in zip(self.points, self.points[1:]))


@dataclass(frozen=True)
class NormalizedMap:
    polynomial: Polynomial | PowerMap  # a PowerMap when there is one critical point
    critical_points: tuple  # one per critical index, inside [0, 1]
    frame_low: object  # A: preimage of the 0-endpoint target before rescaling
    frame_high: object  # B: preimage of the 1-endpoint target


@dataclass(frozen=True)
class StepRecord:
    step: int
    polynomial: Polynomial
    configuration: MarkedConfiguration
    fit: object
    digits: int


@dataclass(frozen=True)
class CollapseEvent:
    step: int
    groups: tuple  # index groups in the combinatorics current at that step
    before: str  # rendered combinatorics before merging
    after: str  # rendered simplified combinatorics


@dataclass(frozen=True)
class RunOptions:
    tol: str = "1e-10"
    max_iter: int = 100
    start_digits: int = 40
    max_digits: int = 640
    keep_trace: bool = False


@dataclass(frozen=True)
class RunResult:
    combinatorics: comb.Combinatorics  # final (possibly simplified)
    original: comb.Combinatorics
    polynomial: Optional[Polynomial]
    configuration: Optional[MarkedConfiguration]
    iterations: int
    fit: object
    converged: bool
    digits: int
    precision_history: tuple  # (step, digits) pairs, escalations included
    collapse_events: tuple
    residuals: tuple  # eps per completed step
    trace: tuple  # StepRecords when requested

    @property
    def collapsed(self) -> bool:
        return bool(self.collapse_events)


def init_configuration(c: comb.Combinatorics, ctx: PrecisionContext) -> MarkedConfiguration:
    """Equally spaced marked points x_j = j/n."""
    n = c.n
    return MarkedConfiguration(tuple(ctx.mp.mpf(j) / n for j in range(n + 1)), step=0)


def critical_value_vector(c: comb.Combinatorics, x: MarkedConfiguration) -> critvals.CriticalValueSpec:
    """One prescribed value per distinct critical index: v = x_{m_j}."""
    return critvals.CriticalValueSpec(tuple(x.points[c.m[j]] for j in c.critical_points()))


def mapmake(
    c: comb.Combinatorics,
    values: critvals.CriticalValueSpec,
    ctx: PrecisionContext,
    lap_list: Optional[comb.LapStructure] = None,
    previous: Optional[critvals.InversionResult] = None,
) -> critvals.RealizedMap:
    """A polynomial with these critical values; critical points not yet framed.

    ``lap_list`` is ``comb.laps(c)``, computed here when not given.
    ``previous`` is the previous step's inversion for the same
    combinatorics, which warm-starts this one.
    """
    sigma = (comb.laps(c) if lap_list is None else lap_list).last_orientation()
    # multiplicity as a root of the derivative = local degree - 1
    multiplicities = tuple(c.local_degree[j] - 1 for j in c.critical_points())
    return critvals.realize_critical_values(values, multiplicities, sigma, ctx, previous)


def _lap_solver(f, critical_points, ctx: PrecisionContext):
    """``solve(target, lo, hi, orientation, start=None)`` for f(x) = target on a lap.

    One critical point c: :func:`solve_power` on the side orientation * sign(a) of c,
    with f(c) (a PowerMap's ``value``) once per map.  More: :func:`solve_monotone` from ``start``.
    """
    if len(critical_points) == 1:
        (center,) = critical_points
        value = f(center)
        lead_sign = 1 if f.lead > 0 else -1

        def solve(target, lo, hi, orientation, start=None):
            return solve_power(f, target, center, value, orientation * lead_sign, ctx, lo, hi)
    else:
        def solve(target, lo, hi, orientation, start=None):
            return solve_monotone(f, target, lo, hi, orientation, ctx, start=start)
    return solve


def normalize(
    c: comb.Combinatorics,
    realized: critvals.RealizedMap,
    ctx: PrecisionContext,
    lap_list: Optional[comb.LapStructure] = None,
    previous: Optional[NormalizedMap] = None,
) -> NormalizedMap:
    """Precompose with the affine map that frames the unit interval.

    A and B solve f(A), f(B) in {0, 1} as the combinatorics demands, with A
    in the first lap and B in the last lap, both extended to infinity: the
    framing preimage may sit at (or numerically on either side of) a
    boundary critical point of odd degree, so the solve must not be fenced
    in by it.  ``previous``, the previous step's map for the same
    combinatorics, gives the solves their starts.
    """
    n = c.n
    f_raw = realized.polynomial
    lap_list = comb.laps(c) if lap_list is None else lap_list
    turning = set(c.turning_points())
    crit = c.critical_points()
    turning_pts = [p for j, p in zip(crit, realized.critical_points) if j in turning]
    target_low = ctx.mp.mpf(0 if c.m[0] == 0 else 1)
    target_high = ctx.mp.mpf(0 if c.m[n] == 0 else 1)
    solve = _lap_solver(f_raw, realized.critical_points, ctx)
    low, high = (None, None) if previous is None else (previous.frame_low, previous.frame_high)
    A = solve(target_low, None, turning_pts[0], lap_list.laps[0].orientation, start=low)
    B = solve(target_high, turning_pts[-1], None, lap_list.last_orientation(), start=high)
    if not B > A:
        raise PullbackError("framing points came out in the wrong order")

    scale = B - A
    if isinstance(f_raw, PowerMap):
        f = f_raw.precompose(A, scale)
    else:
        f = affine_substitute(f_raw, A, scale)
    moved = tuple((p - A) / scale for p in realized.critical_points)
    return NormalizedMap(f, moved, A, B)


def pullback_step(
    c: comb.Combinatorics,
    normalized: NormalizedMap,
    prev: MarkedConfiguration,
    ctx: PrecisionContext,
    lap_list: Optional[comb.LapStructure] = None,
) -> MarkedConfiguration:
    """Pull every marked point back through its lap.

    Critical indices take the corresponding critical points of f; the
    endpoints are pinned at 0 and 1 by the framing; every other index k
    solves f(x'_k) = prev[m_k] inside the lap that contains k, warm-started
    from prev[k] where the solver searches.
    """
    n = c.n
    f = normalized.polynomial
    lap_list = comb.laps(c) if lap_list is None else lap_list
    zero, one = ctx.mp.mpf(0), ctx.mp.mpf(1)
    crit_at = dict(zip(c.critical_points(), normalized.critical_points))
    turning_at = {j: crit_at[j] for j in c.turning_points()}
    solve = _lap_solver(f, normalized.critical_points, ctx)

    new = [None] * (n + 1)
    new[0], new[n] = zero, one
    for j in range(1, n):
        if j in crit_at:
            new[j] = crit_at[j]
            continue
        lap = lap_list.lap_of(j, n)
        lo = zero if lap.left is None else turning_at[lap.left]
        hi = one if lap.right is None else turning_at[lap.right]
        new[j] = solve(prev.points[c.m[j]], lo, hi, lap.orientation, start=prev.points[j])

    try:  # the endpoints are pinned, so only the order check can fail
        return MarkedConfiguration(tuple(new), step=prev.step + 1)
    except ValueError as exc:
        raise PullbackError("pulled-back configuration is out of order") from exc


def fit_error(c: comb.Combinatorics, f, x: MarkedConfiguration, ctx: PrecisionContext, core=None):
    """eps = sqrt(sum_j (f(x_j) - x_{m_j})**2) / n, on raw tuples as mpfs in ctx round it;
    given ``core`` indices, the pair (eps, eps_core), eps_core summing over the core alone."""
    mp = ctx.mp
    prec, rounding = mp._prec_rounding
    points = unboxed(mp.mpf, x.points)
    total = core_total = fzero
    for j, point in enumerate(x.points):
        diff = mpf_sub(f(point)._mpf_, points[c.m[j]], prec, rounding)
        square = mpf_mul(diff, diff, prec, rounding)
        total = mpf_add(total, square, prec, rounding)
        if core is not None and j in core:
            core_total = mpf_add(core_total, square, prec, rounding)
    eps, eps_core = (
        mp.make_mpf(mpf_div(mpf_sqrt(t, prec, rounding), from_int(c.n), prec, rounding))
        for t in (total, core_total)
    )
    return eps if core is None else (eps, eps_core)


def place_passengers(c: comb.Combinatorics, normalized: NormalizedMap, x: MarkedConfiguration,
                     core, ctx: PrecisionContext, lap_list: comb.LapStructure):
    """Solve x_j = g_j(x_{m_j}) for the passengers j, the indices outside
    ``core``, with f and the core fixed; g_j is f's inverse branch on j's lap.

    A passenger whose orbit reaches the core without a passenger cycle takes
    one warm-started lap solve, images first.  The others take Newton, one
    solve each per iteration and the moves of :func:`_newton_moves`, until
    the largest move is below tau or stops shrinking.  Each passenger is
    clamped between its nearest core points, where one that collapses lands,
    and at the end, in index order, kept from crossing the one before it.
    """
    n, m, points = c.n, c.m, list(x.points)
    passengers = [j for j in range(n + 1) if j not in core]
    f = normalized.polynomial
    solve = _lap_solver(f, normalized.critical_points, ctx)
    slope = (PowerMap(f.center, 0 * f.value, f.degree * f.lead, f.degree - 1)  # d a (x - c)**(d-1)
             if isinstance(f, PowerMap) else f.derivative())
    ends = {j: (max(k for k in core if k < j), min(k for k in core if k > j)) for j in passengers}

    def place(j, value):
        a, b = ends[j]
        points[j] = min(max(value, points[a]), points[b])

    def pulled(j):
        lap = lap_list.lap_of(j, n)
        lo = points[0 if lap.left is None else lap.left]
        hi = points[n if lap.right is None else lap.right]
        return solve(points[m[j]], lo, hi, lap.orientation, start=points[j])

    settled = set(core)  # the core and the passengers placed so far
    for j in passengers:
        path = []  # the orbit of j up to a settled index or a repeat
        while j not in settled and j not in path:
            path, j = path + [j], m[j]
        if j in settled:
            for i in reversed(path):
                place(i, pulled(i))
                settled.add(i)
    cyclic = [j for j in passengers if j not in settled]
    previous = None
    for _ in range(PLACEMENT_ITERATIONS if cyclic else 0):
        rise, inverse = {}, {}
        for j in cyclic:
            y = pulled(j)
            df = slope(y)
            rise[j], inverse[j] = y - points[j], (1 / df if df else 0)
        dx = _newton_moves(m, rise, inverse)
        for j in cyclic:
            place(j, points[j] + dx[j])
        size = max(map(abs, dx.values()))
        if size <= ctx.tau or (previous is not None and size >= previous):
            break
        previous = size
    for j in passengers:
        if j - 1 in ends:
            points[j] = max(points[j], points[j - 1])
    return MarkedConfiguration(tuple(points), step=x.step)


def _newton_moves(m, rise, inverse) -> dict:
    """The Newton move dx_j = rise_j + inverse_j dx_{m_j} of each passenger j
    on or leading into a passenger cycle (the keys of ``rise``, which m maps
    into themselves; rise_j is y_j - x_j, inverse_j is 1/f'(y_j), or 0 where
    f'(y_j) = 0): A / (1 - B) around a cycle, B the product of its inverses
    (rise if B = 1), back-substituted along the chains into it."""
    dx = {}
    for j in rise:
        path = [j]  # the orbit of j up to a solved passenger or a repeat
        while m[path[-1]] not in dx and m[path[-1]] not in path:
            path.append(m[path[-1]])
        k = m[path[-1]]
        if k in path:  # a passenger cycle through k
            a, b = 0, 1
            for i in path[path.index(k):]:
                a, b = a + b * rise[i], b * inverse[i]
            dx[k] = rise[k] if b == 1 else a / (1 - b)
        for i in reversed(path):
            if i not in dx:
                dx[i] = rise[i] + inverse[i] * dx[m[i]]
    return dx


def detect_collapse(x: MarkedConfiguration, threshold) -> tuple:
    """Maximal runs of consecutive indices whose successive gaps all sit
    below ``threshold``, as tuples of indices."""
    groups = []
    current = None
    for j, gap in enumerate(x.gaps()):
        if gap < threshold:
            if current and current[-1] == j:
                current.append(j + 1)
            else:
                current = [j, j + 1]
                groups.append(current)
        else:
            current = None
    return tuple(tuple(g) for g in groups)


def _merged_configuration(x: MarkedConfiguration, groups, ctx: PrecisionContext) -> MarkedConfiguration:
    merged = {}
    for j, k in enumerate(comb.merge_map(x.n, groups)):
        merged.setdefault(k, []).append(x.points[j])
    points = [sum(ps) / len(ps) for ps in merged.values()]
    lo, hi = points[0], points[-1]
    span = hi - lo
    pts = [(p - lo) / span for p in points]
    pts[0], pts[-1] = ctx.mp.mpf(0), ctx.mp.mpf(1)
    return MarkedConfiguration(tuple(pts), step=x.step)


def _dense(f) -> Optional[Polynomial]:
    return f.expanded if isinstance(f, PowerMap) else f


def _collapse_threshold(ctx: PrecisionContext, n: int):
    return ctx.mpf(COLLAPSE_THRESHOLD) / n


def run(c: comb.Combinatorics, options: RunOptions = RunOptions()) -> RunResult:
    """Iterate mapmake -> normalize -> pullback -> fit until the core fits,
    then place the passengers (:func:`place_passengers`), to convergence.

    Precision doubles (up to ``max_digits``) whenever eps_core fails to halve
    over a four-step window.  Gaps that stay below the collapse threshold
    for ``COLLAPSE_PERSISTENCE`` consecutive steps trigger merging of the
    involved points and the run continues on the simplified combinatorics;
    reaching the fit tolerance while gaps sit below the threshold triggers
    the same merge, so a collapsing run never reports a degenerate
    configuration as its answer.
    """
    report = comb.validate(c)
    if not report.passed:
        failed = [k for k, ok in sorted(report.conditions.items()) if k != 5 and not ok]
        raise InvalidCombinatorics(f"combinatorics fails condition(s) {failed}")

    original = c
    ctx = PrecisionContext(options.start_digits)
    tol = ctx.mpf(options.tol)
    threshold = _collapse_threshold(ctx, c.n)
    expansive = report.expansive_edges
    lap_list = comb.laps(c)
    core = comb.core_indices(c)
    inversion = framed = None  # the previous step's, while the combinatorics holds

    x = init_configuration(c, ctx)
    residuals = []
    window = []  # eps_core since last escalation or merge
    precision_history = [(1, ctx.digits)]
    collapse_events = []
    trace = []
    gap_streak = {}
    f = None
    eps = None
    converged = False

    step = 0
    while step < options.max_iter:
        step += 1
        try:
            realized = mapmake(c, critical_value_vector(c, x), ctx, lap_list, inversion)
            normalized = normalize(c, realized, ctx, lap_list, framed)
            new_x = pullback_step(c, normalized, x, ctx, lap_list)
            f = normalized.polynomial
            eps, eps_core = fit_error(c, f, new_x, ctx, core)
            if eps_core <= tol:
                new_x = place_passengers(c, normalized, new_x, core, ctx, lap_list)
                eps = fit_error(c, f, new_x, ctx)
        except (PullbackError, ArithmeticError) as exc:
            raise PullbackError(f"step {step} ({comb.render(c)}): {exc}") from exc
        inversion, framed = realized.inversion, normalized
        residuals.append(eps)
        window.append(eps_core)
        if options.keep_trace:
            trace.append(StepRecord(step, _dense(f), new_x, eps, ctx.digits))

        # Collapse bookkeeping: persistent sub-threshold gaps, or hitting the
        # tolerance while gaps are degenerate, both force a merge.
        below = {j for j, gap in enumerate(new_x.gaps()) if gap < threshold}
        gap_streak = {j: gap_streak.get(j, 0) + 1 for j in below}
        persistent = any(v >= COLLAPSE_PERSISTENCE for v in gap_streak.values())
        if below and (persistent or eps <= tol):
            groups = detect_collapse(new_x, threshold)
            flat = [j for g in groups for j in g[:-1]]
            if expansive is not None and any(expansive[j] for j in flat):
                raise PullbackError(
                    f"step {step}: an expansive edge fell below the collapse "
                    "threshold; the configuration is numerically inconsistent"
                )
            simplified = comb.simplify(c, groups)
            sub_report = comb.validate(simplified)
            if not sub_report.passed:
                raise PullbackError(
                    f"step {step}: merged combinatorics {comb.render(simplified)} is invalid"
                )
            collapse_events.append(
                CollapseEvent(step, groups, before=comb.render(c), after=comb.render(simplified))
            )
            x = _merged_configuration(new_x, groups, ctx)
            c = simplified
            lap_list = comb.laps(c)
            core = comb.core_indices(c)
            inversion = framed = None
            expansive = sub_report.expansive_edges
            threshold = _collapse_threshold(ctx, c.n)
            gap_streak = {}
            window = []
            continue

        x = new_x
        if eps <= tol:
            converged = True
            break
        if (
            len(window) > STALL_WINDOW
            and window[-1] > window[-1 - STALL_WINDOW] * STALL_FACTOR
            and ctx.digits < options.max_digits
        ):
            new_digits = min(2 * ctx.digits, options.max_digits)
            ctx = PrecisionContext(new_digits)
            tol = ctx.mpf(options.tol)
            threshold = _collapse_threshold(ctx, c.n)
            interior = tuple(ctx.mpf(p) for p in x.points[1:-1])
            x = MarkedConfiguration((ctx.mp.mpf(0), *interior, ctx.mp.mpf(1)), step=x.step)
            precision_history.append((step + 1, new_digits))
            window = []

    return RunResult(
        combinatorics=c, original=original, polynomial=_dense(f), configuration=x,
        iterations=step, fit=eps, converged=converged, digits=ctx.digits,
        precision_history=tuple(precision_history),
        collapse_events=tuple(collapse_events), residuals=tuple(residuals),
        trace=tuple(trace),
    )
