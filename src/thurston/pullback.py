"""The pull-back iteration.

One step, given marked points x_0..x_n and the combinatorics m:

  1. mapmake:   the polynomial whose j-th critical value is x_{m_j}, one
                per distinct critical index, by the gap map inversion in
                :mod:`thurston.critvals` from the previous step's;
  2. normalize: the framing preimages A and B of the interval endpoints in
                the unbounded first/last laps, and precomposition with the
                increasing affine map sending 0 to A and 1 to B, by f's own
                ``frame``: searched from the previous step's A and B, or, with
                one critical point, in closed form (below);
  3. pullback:  every marked point moves to the preimage of its image point
                in its own lap (critical indices to the critical points), by
                f's own ``preimages``: searched from the point's previous
                position, or, with one critical point, in closed form;
  4. fit:       eps = sqrt(sum (f(x_j) - x_{m_j})**2) / n at the new points,
                and eps_core, the same sum over the core indices alone.

Each step asks the combinatorics for its laps, the lap of each index and
its core, which it works out once and keeps
(:func:`~thurston.combinatorics.laps`, :func:`~thurston.combinatorics.lap_of`,
:func:`~thurston.combinatorics.core_indices`); it is given only the points,
the context and the previous step's :class:`NormalizedMap`, which carries
the inversion behind it.

With one critical point c, f is a :class:`~thurston.mpnum.PowerMap`
v + a (x - c)**d, built as v + (sigma/d) x**d, and steps 2 and 3 are ratios
of integer d-th roots on one grid: with rho_k = |x_{m_k} - v|**(1/d) floored
on x's grid (prec + 32 fractional bits), the framed map is
v + sigma (rho_0 + rho_n)**d (x - c')**d with c' = rho_0 / (rho_0 + rho_n), and
each other index pulls back to (rho_0 -+ rho_k) / (rho_0 + rho_n), - left of
c' and + right of it, each rounded once.  The lead sigma/d and the framing
scale's d-th root cancel, so no mpf root or division is left per point.  The
run reports the map as it is, and its ``coefficients`` expand it when first
read.  With two or more, f is a dense :class:`~thurston.mpnum.Polynomial`
whose laps are searched from the previous step's solution.

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
from math import isqrt
from typing import Optional

from . import combinatorics as comb
from . import critvals
from .mpnum import (
    MIN_DIGITS, Polynomial, PowerMap, PrecisionContext, pair_div, pair_lt, pair_sub, to_block,
    to_pair, to_raw
)

STALL_WINDOW = 4
STALL_FACTOR = 0.5
# Gaps below COLLAPSE_THRESHOLD / n for COLLAPSE_PERSISTENCE steps merge their points.
COLLAPSE_THRESHOLD = "1e-8"
COLLAPSE_PERSISTENCE = 3
# Newton iterations at most in one placement of a passenger cycle.
PLACEMENT_ITERATIONS = 30


class PullbackError(RuntimeError):
    """A step of the iteration failed; the message carries step context."""


class InvalidCombinatorics(ValueError):
    """The run was asked to start from combinatorics that fail validation."""


@dataclass(frozen=True)
class MarkedConfiguration:
    """Marked points 0 = x_0 <= ... <= x_n = 1 at some step of the run."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a configuration needs at least the two endpoints")
        object.__setattr__(self, "pairs", [to_pair(p._mpf_) for p in pts])  # for fit_error too
        if self.pairs[0] != (0, 0) or self.pairs[-1] != (1, 0):
            raise ValueError("configuration endpoints must be exactly 0 and 1")
        if any(pair_lt(b, a) for a, b in zip(self.pairs, self.pairs[1:])):
            raise ValueError("marked points must be sorted")

    @property
    def n(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class NormalizedMap:
    polynomial: Polynomial | PowerMap  # a PowerMap when there is one critical point
    critical_points: tuple  # one per critical index, inside [0, 1]
    frame_low: object  # A: preimage of the 0-endpoint target before rescaling
    frame_high: object  # B: preimage of the 1-endpoint target
    inversion: critvals.InversionResult  # the gap-map inversion behind the map


@dataclass(frozen=True)
class StepRecord:
    step: int
    polynomial: Polynomial | PowerMap  # the map the step iterated
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

    def __post_init__(self):
        """Refuse a value no run can use, as ValueError("<field>: <why>")."""
        ctx = PrecisionContext(MIN_DIGITS)
        try:
            tol = ctx.mpf(self.tol)
        except (TypeError, ValueError):
            tol = None
        if tol is None or not 0 < tol < ctx.mp.inf:
            raise ValueError(f"tol: {self.tol!r} is not a positive number")
        for name, floor in (("max_iter", 1), ("start_digits", MIN_DIGITS),
                            ("max_digits", self.start_digits)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name}: {value!r} is not an integer")
            if value < floor:
                raise ValueError(f"{name}: {value} is below {floor}")


@dataclass(frozen=True)
class RunResult:
    combinatorics: comb.Combinatorics  # final (possibly simplified)
    original: comb.Combinatorics
    polynomial: Polynomial | PowerMap  # the map the run iterated last
    configuration: MarkedConfiguration
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
    return MarkedConfiguration(tuple(ctx.mp.mpf(j) / n for j in range(n + 1)))


def mapmake(
    c: comb.Combinatorics,
    x: MarkedConfiguration,
    ctx: PrecisionContext,
    previous: Optional[NormalizedMap] = None,
) -> critvals.RealizedMap:
    """A polynomial whose value at the critical point of each distinct
    critical index j is x_{m_j}; critical points not yet framed.

    ``previous`` is the previous step's map for the same combinatorics,
    whose inversion warm-starts this one.
    """
    crit = c.critical_points()
    values = tuple(x.points[c.m[j]] for j in crit)
    # multiplicity as a root of the derivative = local degree - 1
    multiplicities = tuple(c.local_degree[j] - 1 for j in crit)
    sigma = comb.laps(c)[-1].orientation
    inversion = None if previous is None else previous.inversion
    return critvals.realize_critical_values(values, multiplicities, sigma, ctx, inversion)


def _lap(c: comb.Combinatorics, j: int, bounds) -> tuple:
    """``(lo, hi, orientation)`` of the lap of index j, its ends taken from ``bounds``
    (marked points 0..n)."""
    lap = comb.lap_of(c, j)
    lo = bounds[0 if lap.left is None else lap.left]
    hi = bounds[-1 if lap.right is None else lap.right]
    return lo, hi, lap.orientation


def _lap_preimage(f, c: comb.Combinatorics, j: int, bounds, target, start, ctx: PrecisionContext):
    """The solution of f(x) = target on the lap of index j, between
    ``bounds`` (marked points 0..n) at the lap's ends, started from ``start``."""
    return f.solve(target, *_lap(c, j, bounds), ctx, start=start)


def normalize(
    c: comb.Combinatorics,
    realized: critvals.RealizedMap,
    ctx: PrecisionContext,
    previous: Optional[NormalizedMap] = None,
) -> NormalizedMap:
    """Precompose with the affine map that frames the unit interval, by the map's
    own ``frame``.

    A and B solve f(A), f(B) in {0, 1} as the combinatorics demands, with A
    in the first lap and B in the last lap, both extended to infinity: the
    framing preimage may sit at (or numerically on either side of) a
    boundary critical point of odd degree, so the solve must not be fenced
    in by it.  ``previous``, the previous step's map for the same
    combinatorics, gives the solves their starts.
    """
    first, *_, last = comb.laps(c)
    crit_at = dict(zip(c.critical_points(), realized.critical_points))
    targets = tuple(ctx.mp.zero if c.m[j] == 0 else ctx.mp.one for j in (0, c.n))
    laps = ((None, crit_at[first.right], first.orientation),
            (crit_at[last.left], None, last.orientation))
    starts = (None, None) if previous is None else (previous.frame_low, previous.frame_high)
    f, moved, A, B = realized.polynomial.frame(targets, laps, realized.critical_points, ctx, starts)
    if not B > A:
        raise PullbackError("framing points came out in the wrong order")
    return NormalizedMap(f, moved, A, B, realized.inversion)


def pullback_step(
    c: comb.Combinatorics,
    normalized: NormalizedMap,
    prev: MarkedConfiguration,
    ctx: PrecisionContext,
) -> MarkedConfiguration:
    """Pull every marked point back through its lap, by the map's own ``preimages``.

    Critical indices take the corresponding critical points of f; the
    endpoints are pinned at 0 and 1 by the framing; every other index k
    solves f(x'_k) = prev[m_k] inside the lap that contains k, warm-started
    from prev[k] where the solver searches.
    """
    n, f = c.n, normalized.polynomial
    new = [None] * (n + 1)
    for j, point in zip(c.critical_points(), normalized.critical_points):
        new[j] = point
    new[0], new[n] = ctx.mp.zero, ctx.mp.one
    laps = [_lap(c, j, new) if point is None else None for j, point in enumerate(new)]
    targets = [prev.points[k] for k in c.m]
    new = [point if x is None else x
           for point, x in zip(new, f.preimages(targets, laps, ctx, prev.points))]

    try:  # the endpoints are pinned, so only the order check can fail
        return MarkedConfiguration(tuple(new))
    except ValueError as exc:
        raise PullbackError("pulled-back configuration is out of order") from exc


def fit_error(c: comb.Combinatorics, f, x: MarkedConfiguration, ctx: PrecisionContext, core=None):
    """eps = sqrt(sum_j (f(x_j) - x_{m_j})**2) / n; given ``core`` indices, the pair
    (eps, eps_core), eps_core summing over the core alone.

    The residuals are integers on f's value grid (``f.on_grid``: f within its
    ``error`` units of 2**unit, the targets within half a unit), their squares
    sum exactly, and each eps takes one integer square root and one division.
    So eps is within (error + 1/2) sqrt(n + 1) 2**unit / n of the exact value,
    plus one unit in its last place.
    """
    prec = ctx.mp.prec
    unit, values, _ = f.on_grid(x.points, ctx)
    targets = [to_block(p, unit) for p in x.pairs]
    squares = [(v - targets[m]) ** 2 for v, m in zip(values, c.m)]

    def eps(total):
        extra = max(0, prec + 2 - total.bit_length() // 2)  # the root keeps prec + 1 bits
        root = isqrt(total << 2 * extra)
        return ctx.mp.make_mpf(to_raw(pair_div((root, unit - extra), (c.n, 0), prec)))

    if core is None:
        return eps(sum(squares))
    return eps(sum(squares)), eps(sum(v for j, v in enumerate(squares) if j in core))


def place_passengers(c: comb.Combinatorics, normalized: NormalizedMap, x: MarkedConfiguration,
                     ctx: PrecisionContext):
    """Solve x_j = g_j(x_{m_j}) for the passengers j, the indices outside the
    core, with f and the core fixed; g_j is f's inverse branch on j's lap.

    Each passenger takes one warm-started lap solve from its image, images
    first.  Where the orbit walk closes a passenger cycle (j, m_j, ..., last),
    x_j comes first, by scalar Newton on x = G(x), G = g_j o ... o g_last with
    slope the product of the 1/f' (0 where f' = 0), until the move is within
    the solver's resolution 10 tau / |f'(x_j)| (tau where f' = 0) or stops
    shrinking.  Every passenger is clamped between its nearest core points,
    where one that collapses lands, and at the end, in index order, kept from
    crossing the one before it.
    """
    m, points = c.m, list(x.points)
    core = comb.core_indices(c)
    passengers = [j for j in range(c.n + 1) if j not in core]
    f = normalized.polynomial
    slope = f.derivative()
    ends = {j: (max(k for k in core if k < j), min(k for k in core if k > j)) for j in passengers}

    def place(j, value):
        a, b = ends[j]
        points[j] = min(max(value, points[a]), points[b])

    def newton(cycle):
        j, previous = cycle[0], ctx.mp.inf
        for _ in range(PLACEMENT_ITERATIONS):
            y, gain = points[j], 1
            for i in reversed(cycle):
                y = _lap_preimage(f, c, i, points, y, points[i], ctx)
                df = slope(y)
                gain = gain / df if df else 0
                if i != j:
                    place(i, y)
            move = y - points[j] if gain == 1 else (y - points[j]) / (1 - gain)
            place(j, points[j] + move)
            resolution = 10 * ctx.tau / abs(df) if df else ctx.tau
            if abs(move) <= resolution or abs(move) >= previous:
                break
            previous = abs(move)

    settled = set(core)  # the core and the passengers placed so far
    for j in passengers:
        path = []  # the orbit of j up to a settled index or a repeat
        while j not in settled and j not in path:
            path, j = path + [j], m[j]
        if j not in settled:  # the walk closed a passenger cycle at j
            newton(path[path.index(j):])
            settled.add(j)
        for i in reversed(path):
            if i not in settled:
                target = points[m[i]]
                place(i, _lap_preimage(f, c, i, points, target, points[i], ctx))
                settled.add(i)
    for j in passengers:
        if j - 1 in ends:
            points[j] = max(points[j], points[j - 1])
    return MarkedConfiguration(tuple(points))


def detect_collapse(x: MarkedConfiguration, threshold) -> tuple:
    """Maximal runs of consecutive indices whose successive gaps, each rounded once
    at the points' precision, all sit below ``threshold``, as tuples of indices."""
    prec, limit, pairs = type(x.points[-1]).context.prec, to_pair(threshold._mpf_), x.pairs
    groups = []
    for j, (a, b) in enumerate(zip(pairs, pairs[1:])):
        if pair_lt(pair_sub(b, a, prec), limit):
            if groups and groups[-1][-1] == j:
                groups[-1].append(j + 1)
            else:
                groups.append([j, j + 1])
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
    return MarkedConfiguration(tuple(pts))


def run(c: comb.Combinatorics, options: RunOptions = RunOptions()) -> RunResult:
    """Iterate mapmake -> normalize -> pullback -> fit until the core fits,
    then place the passengers (:func:`place_passengers`), to convergence.

    Precision doubles (up to ``max_digits``) whenever eps_core fails to halve
    over a four-step window.  Gaps that stay below the collapse threshold
    for ``COLLAPSE_PERSISTENCE`` consecutive steps trigger merging of the
    involved points and the run continues on the simplified combinatorics;
    reaching the fit tolerance while gaps sit below the threshold triggers
    the same merge, so a collapsing run never reports a degenerate
    configuration as its answer.  The tolerance and the threshold
    (``COLLAPSE_THRESHOLD / n``) are worked out again only on an escalation or merge.
    """
    report = comb.validate(c)
    if not report.passed:
        failed = [k for k in report.REQUIRED if not report.conditions[k]]
        raise InvalidCombinatorics(f"combinatorics fails condition(s) {failed}")

    original = c
    ctx = PrecisionContext(options.start_digits)
    limits = None  # the context and combinatorics that tol and threshold were worked out for
    normalized = None  # the previous step's map, while the combinatorics holds

    x = init_configuration(c, ctx)
    residuals, collapse_events, trace = [], [], []
    window = []  # eps_core since last escalation or merge
    precision_history = [(1, ctx.digits)]
    gap_streak, converged = {}, False

    step = 0
    while step < options.max_iter:
        step += 1
        if limits != (ctx, c):
            limits = (ctx, c)
            tol, threshold = ctx.mpf(options.tol), ctx.mpf(COLLAPSE_THRESHOLD) / c.n
        try:
            realized = mapmake(c, x, ctx, normalized)
            normalized = normalize(c, realized, ctx, normalized)
            new_x = pullback_step(c, normalized, x, ctx)
            f = normalized.polynomial
            eps, eps_core = fit_error(c, f, new_x, ctx, comb.core_indices(c))
            if eps_core <= tol:
                new_x = place_passengers(c, normalized, new_x, ctx)
                eps = fit_error(c, f, new_x, ctx)
        except (PullbackError, ArithmeticError) as exc:
            raise PullbackError(f"step {step} ({comb.render(c)}): {exc}") from exc
        residuals.append(eps)
        window.append(eps_core)
        if options.keep_trace:
            trace.append(StepRecord(step, f, new_x, eps, ctx.digits))

        # Collapse bookkeeping: persistent sub-threshold gaps, or hitting the
        # tolerance while gaps are degenerate, both force a merge.
        groups = detect_collapse(new_x, threshold)
        below = {j for g in groups for j in g[:-1]}  # the sub-threshold gaps
        gap_streak = {j: gap_streak.get(j, 0) + 1 for j in below}
        persistent = any(v >= COLLAPSE_PERSISTENCE for v in gap_streak.values())
        if below and (persistent or eps <= tol):
            if any(flag for j, flag in enumerate(comb.expansiveness(c)) if j in below):
                raise PullbackError(
                    f"step {step}: an expansive edge fell below the collapse "
                    "threshold; the configuration is numerically inconsistent"
                )
            simplified = comb.simplify(c, groups)
            if not comb.validate(simplified).passed:
                raise PullbackError(
                    f"step {step}: merged combinatorics {comb.render(simplified)} is invalid"
                )
            collapse_events.append(
                CollapseEvent(step, groups, before=comb.render(c), after=comb.render(simplified))
            )
            x, c = _merged_configuration(new_x, groups, ctx), simplified
            normalized, gap_streak, window = None, {}, []
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
            ctx = PrecisionContext(min(2 * ctx.digits, options.max_digits))
            x = MarkedConfiguration(tuple(map(ctx.mpf, x.points)))
            precision_history.append((step + 1, ctx.digits))
            window = []

    return RunResult(
        combinatorics=c, original=original, polynomial=f, configuration=x,
        iterations=step, fit=eps, converged=converged, digits=ctx.digits,
        precision_history=tuple(precision_history),
        collapse_events=tuple(collapse_events), residuals=tuple(residuals),
        trace=tuple(trace),
    )
