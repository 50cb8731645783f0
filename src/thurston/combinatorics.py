"""Combinatorics of critically finite real maps on the interval.

The input to the whole machine is an integer sequence ``m_0..m_n`` recording
where each of ``n+1`` marked points maps (marked points are the critical and
postcritical points together with the interval endpoints), plus a local
degree ``d_j >= 1`` at every marked point.  Text form: comma-separated image
indices, with a ``^degree`` suffix wherever the degree is not the default
(2 at turning points, 1 elsewhere), e.g. ``"0,2,6^2,4,3^3,1^2,4,7"``.

This module parses and validates such sequences, classifies the edges of
the piecewise-linear model map as expansive or not from the edges each
edge's image covers, and performs the point-merging simplification that
describes what a non-expansive sequence degenerates to.  A combinatorics
answers its own questions: its laps (maximal monotone pieces, bounded by
turning points only, :func:`laps`) and the lap of each index
(:func:`lap_of`), its critical orbits and their cycles
(:func:`mapping_pattern`) and its postcritical core (:func:`core_indices`)
are each worked out once and kept on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

_ITEM_RE = re.compile(r"^(-?\d+)(?:\^(-?\d+))?$")


class CombinatoricsError(ValueError):
    """Structurally invalid combinatorics data."""


class ParseError(CombinatoricsError):
    """Text that does not match the combinatorics grammar."""


@dataclass(frozen=True)
class Combinatorics:
    """Image indices m_0..m_n plus a local degree for each marked point."""

    m: tuple
    local_degree: tuple

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        deg = tuple(int(v) for v in self.local_degree)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "local_degree", deg)
        n = len(m) - 1
        if n < 1:
            raise CombinatoricsError("need at least two marked points")
        if len(deg) != len(m):
            raise CombinatoricsError("one local degree per marked point required")
        for j, v in enumerate(m):
            if not 0 <= v <= n:
                raise CombinatoricsError(f"image index m_{j}={v} outside 0..{n}")
        for j, d in enumerate(deg):
            if d < 1:
                raise CombinatoricsError(f"local degree at index {j} must be >= 1, got {d}")

    @property
    def n(self) -> int:
        return len(self.m) - 1

    def turning_points(self) -> tuple:
        """Interior indices where the PL graph has a local max or min."""
        return _turning_indices(self.m)

    def critical_points(self) -> tuple:
        """All indices with local degree above one, in increasing order."""
        return tuple(j for j, d in enumerate(self.local_degree) if d > 1)

    def total_degree(self) -> int:
        return 1 + sum(d - 1 for d in self.local_degree)

    @cached_property
    def _laps(self) -> tuple:
        bounds = [None, *self.turning_points(), None]
        out = []
        for left, right in zip(bounds, bounds[1:]):
            start = 0 if left is None else left
            orientation = 1 if self.m[start + 1] > self.m[start] else -1
            out.append(Lap(left, right, orientation))
        return tuple(out)

    @cached_property
    def _pattern(self) -> MappingPattern:
        m = self.m
        visited = set()
        orbits, cycles = [], []
        for start in self.critical_points():
            if start in visited:
                continue
            chain = []
            j = start
            while j not in visited and j not in chain:
                chain.append(j)
                j = m[j]
            orbits.append(tuple(chain))
            # Every orbit of j -> m_j enters its cycle within n + 1 steps, whether
            # the chain closed on itself or ran into an earlier orbit.
            k = chain[-1]
            for _ in range(self.n + 1):
                k = m[k]
            cycle = [k]
            while m[cycle[-1]] != k:
                cycle.append(m[cycle[-1]])
            p = cycle.index(min(cycle))
            cycles.append(tuple(cycle[p:] + cycle[:p]))
            visited.update(chain)
        return MappingPattern(tuple(orbits), tuple(cycles), self.local_degree)

    @cached_property
    def _core(self) -> frozenset:
        return frozenset({0, self.n}.union(*mapping_pattern(self).orbits))


def _turning_indices(m) -> tuple:
    return tuple(
        j for j in range(1, len(m) - 1)
        if (m[j] - m[j - 1]) * (m[j + 1] - m[j]) < 0
    )


def default_degrees(m: Sequence[int]) -> tuple:
    """Degree 2 at turning points, 1 everywhere else."""
    turning = set(_turning_indices(m))
    return tuple(2 if j in turning else 1 for j in range(len(m)))


def parse(text: str) -> Combinatorics:
    """Parse the comma-separated text form, defaulting unstated degrees."""
    if not isinstance(text, str):
        raise ParseError(f"expected comma-separated text, got {type(text).__name__}")
    items = [item.strip() for item in text.split(",")]
    if len(items) < 2 or any(not item for item in items):
        raise ParseError(f"expected comma-separated items, got {text!r}")
    m, explicit = [], []
    for item in items:
        match = _ITEM_RE.match(item.replace(" ", ""))
        if not match:
            raise ParseError(f"bad item {item!r}")
        m.append(int(match.group(1)))
        explicit.append(int(match.group(2)) if match.group(2) else None)
    defaults = default_degrees(m)
    degrees = tuple(d if d is not None else defaults[j] for j, d in enumerate(explicit))
    try:
        return Combinatorics(tuple(m), degrees)
    except CombinatoricsError as exc:  # an image index out of range or a degree below 1
        raise ParseError(str(exc)) from exc


def render(c: Combinatorics) -> str:
    """Canonical text form; degrees appear only where they differ from default."""
    defaults = default_degrees(c.m)
    parts = []
    for j, v in enumerate(c.m):
        d = c.local_degree[j]
        parts.append(f"{v}^{d}" if d != defaults[j] else str(v))
    return ",".join(parts)


@dataclass(frozen=True)
class Lap:
    """One maximal monotone piece of the PL model, in index coordinates.

    ``left``/``right`` are turning-point indices, or None where the lap is
    unbounded (the first and last laps extend past the framing points so the
    framing preimages can be solved for without bracketing trouble).
    """

    left: Optional[int]
    right: Optional[int]
    orientation: int


def laps(c: Combinatorics) -> tuple:
    """The laps, in order; odd-degree critical points do not bound them.
    Built once per combinatorics and kept on it."""
    return c._laps


def lap_of(c: Combinatorics, j: int) -> Lap:
    """The lap whose open interior contains the non-turning index j."""
    for lap in c._laps:
        if (lap.left is None or lap.left < j) and (lap.right is None or j < lap.right):
            return lap
    raise CombinatoricsError(f"index {j} is a lap boundary, not interior to a lap")


def expansiveness(c: Combinatorics) -> tuple:
    """Per-edge expansiveness flags.

    An edge is expansive when one of its endpoints is critical, or when its
    PL image covers an expansive edge: the least set of edges closed under
    these two rules, grown to its fixpoint.  Images of edges are unions of
    consecutive edges and critical points sit at vertices, so this decides
    exactly whether some iterated image covers an edge with a critical
    endpoint.
    """
    images = [range(*sorted(ends)) for ends in zip(c.m, c.m[1:])]  # the edges each edge covers
    critical = set(c.critical_points())
    flags = [e in critical or e + 1 in critical for e in range(c.n)]
    grown = True
    while grown:
        grown = False
        for e, covered in enumerate(images):
            if not flags[e] and any(flags[i] for i in covered):
                flags[e] = grown = True
    return tuple(flags)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks, plus derived data for callers.

    ``conditions`` holds pass/fail for the numbered requirements:
    1 adjacent images differ, 2 an interior turning point exists,
    3 endpoints map to endpoints, 5 interior points are critical or
    postcritical (advisory), 6 local degree parities are consistent.
    Expansiveness is reported per edge and is advisory as well: failing it
    means the iteration degenerates onto simpler combinatorics rather than
    diverging, so it produces a warning, not a hard failure.
    """

    conditions: dict
    total_degree: int
    turning_points: tuple
    critical_points: tuple
    expansive_edges: Optional[tuple]
    warnings: tuple

    REQUIRED = (1, 2, 3, 6)  # the conditions that decide ``passed``; the others are advisory

    @property
    def passed(self) -> bool:
        return all(self.conditions[k] for k in self.REQUIRED)

    @property
    def expansive(self) -> Optional[bool]:
        if self.expansive_edges is None:
            return None
        return all(self.expansive_edges)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {str(k): v for k, v in sorted(self.conditions.items())},
            "total_degree": self.total_degree,
            "turning_points": list(self.turning_points),
            "critical_points": list(self.critical_points),
            "expansive": self.expansive,
            "expansive_edges": None if self.expansive_edges is None else list(self.expansive_edges),
            "warnings": list(self.warnings),
        }


def validate(c: Combinatorics) -> ValidationReport:
    n = c.n
    m = c.m
    deg = c.local_degree
    turning = set(c.turning_points())
    warnings = []

    cond1 = all(m[j] != m[j + 1] for j in range(n))
    cond2 = bool(turning)
    cond3 = m[0] in (0, n) and m[n] in (0, n)

    cond6 = True
    for j in range(1, n):
        if (deg[j] % 2 == 0) != (j in turning):
            cond6 = False
    cycles = mapping_pattern(c).cycles  # a critical endpoint is periodic if it lies on one
    for j in (0, n):
        if deg[j] % 2 == 0:
            cond6 = False
        elif deg[j] > 1 and any(j in cycle for cycle in cycles):
            cond6 = False

    # Condition 5: every interior point is critical or hit by a critical orbit.
    cond5 = len(core_indices(c)) == n + 1
    if not cond5:
        warnings.append("some interior marked points are neither critical nor postcritical")

    edges = None
    if cond1 and cond2 and cond3:
        edges = expansiveness(c)
        for j, ok in enumerate(edges):
            if not ok:
                warnings.append(f"edge [{j},{j + 1}] is not expansive; it will collapse to a point")

    return ValidationReport(
        conditions={1: cond1, 2: cond2, 3: cond3, 5: cond5, 6: cond6},
        total_degree=c.total_degree(),
        turning_points=tuple(sorted(turning)),
        critical_points=c.critical_points(),
        expansive_edges=edges,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class MappingPattern:
    """Forward orbits of the critical points under j -> m_j.

    ``orbits`` lists, for each critical index not already visited, the chain
    of indices up to (not including) the first revisited one; ``cycles``
    holds the periodic cycles those chains run into, each rotated to start
    at its smallest index.
    """

    orbits: tuple
    cycles: tuple
    local_degree: tuple

    def render(self) -> str:
        def node(j):
            d = self.local_degree[j]
            return f"x{j}^{d}" if d > 1 else f"x{j}"

        parts = []
        for orbit, cycle in zip(self.orbits, self.cycles):
            chain = " -> ".join(node(j) for j in orbit)
            back = f"(x{cycle[0]})" if cycle else ""
            parts.append(f"{chain} -> {back}" if back else chain)
        return "; ".join(parts)


def mapping_pattern(c: Combinatorics) -> MappingPattern:
    """The critical orbits and their cycles, walked once per combinatorics and kept on it."""
    return c._pattern


def core_indices(c: Combinatorics) -> frozenset:
    """The postcritical core: 0, n, the critical indices and the forward orbits
    of their images.  It is closed under j -> m_j and holds every lap end, so
    the core points alone determine the map; the other marked points, the
    passengers, feed nothing back into it.  Built once per combinatorics and
    kept on it."""
    return c._core


def merge_map(n: int, groups) -> list:
    """New index of each old index 0..n once every group of consecutive
    indices (sorted and disjoint) fuses into a single point."""
    fused = {j for g in groups for j in g[1:]}
    new_index = [0]
    for j in range(1, n + 1):
        new_index.append(new_index[-1] + (j not in fused))
    return new_index


def simplify(c: Combinatorics, merge_groups) -> Combinatorics:
    """Fuse each group of consecutive marked points into a single point.

    The fused point keeps total degree: its local degree is
    ``1 + sum(d_j - 1)`` over the group.  Images must be consistent: all
    members of a group have to map into one merged point.
    """
    groups = [tuple(sorted(g)) for g in merge_groups]
    taken = set()
    for g in groups:
        if not g:
            raise CombinatoricsError("empty merge group")
        if list(g) != list(range(g[0], g[-1] + 1)):
            raise CombinatoricsError(f"merge group {g} is not consecutive")
        if taken & set(g):
            raise CombinatoricsError("merge groups overlap")
        taken |= set(g)

    new_index = merge_map(c.n, groups)
    new_n = new_index[-1]
    new_m = [None] * (new_n + 1)
    new_deg = [1] * (new_n + 1)
    for j in range(c.n + 1):
        target = new_index[c.m[j]]
        k = new_index[j]
        if new_m[k] is not None and new_m[k] != target:
            raise CombinatoricsError(
                f"inconsistent merge: images of merged point {k} disagree"
            )
        new_m[k] = target
        new_deg[k] += c.local_degree[j] - 1
    return Combinatorics(tuple(new_m), tuple(new_deg))
