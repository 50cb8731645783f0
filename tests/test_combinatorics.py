"""Combinatorics parsing, validation, laps, patterns, simplify."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thurston import combinatorics as comb


# ---------------------------------------------------------------- helpers

def returns_to_itself(m, j):
    """Whether the orbit of j under j -> m_j comes back to j, walked step by step."""
    k = m[j]
    for _ in range(len(m)):
        if k == j:
            return True
        k = m[k]
    return False


@st.composite
def valid_combinatorics(draw):
    """Random sequences satisfying the hard validity conditions."""
    n = draw(st.integers(min_value=2, max_value=8))
    seq = [draw(st.sampled_from([0, n]))]
    for _ in range(1, n):
        seq.append(draw(st.sampled_from([v for v in range(n + 1) if v != seq[-1]])))
    tail = [v for v in (0, n) if v != seq[-1]]
    assume(tail)
    seq.append(draw(st.sampled_from(tail)))
    base = comb.Combinatorics(tuple(seq), comb.default_degrees(seq))
    assume(base.turning_points())

    degrees = list(base.local_degree)
    turning = set(base.turning_points())
    for j in range(n + 1):
        if not draw(st.booleans()):
            continue
        if j in (0, n):
            if not returns_to_itself(seq, j):
                degrees[j] = 3
        elif j in turning:
            degrees[j] = 4
        else:
            degrees[j] = 3
    c = comb.Combinatorics(tuple(seq), tuple(degrees))
    assume(comb.validate(c).passed)
    return c


def brute_force_expansive(c):
    """Independent check: iterate interval images of each edge directly."""
    crit = set(c.critical_points())
    flags = []
    for j in range(c.n):
        if j in crit or j + 1 in crit:
            flags.append(True)
            continue
        a, b = j, j + 1
        seen = set()
        hit = False
        while (a, b) not in seen:
            seen.add((a, b))
            window = c.m[a:b + 1]
            a, b = min(window), max(window)
            if any(a <= point <= b for point in crit):
                hit = True
                break
        flags.append(hit)
    return tuple(flags)


# ---------------------------------------------------------------- parse

def test_parse_simple_cubic():
    c = comb.parse("0,4,3,1,2,5")
    assert c.m == (0, 4, 3, 1, 2, 5)
    assert c.local_degree == (1, 2, 1, 2, 1, 1)
    assert c.n == 5
    assert c.turning_points() == (1, 3)


def test_parse_quintic_with_explicit_degrees():
    c = comb.parse("0,2,6^2,4,3^3,1^2,4,7")
    assert c.m == (0, 2, 6, 4, 3, 1, 4, 7)
    assert c.local_degree == (1, 1, 2, 1, 3, 2, 1, 1)


def test_parse_minimal_tent():
    c = comb.parse("0,1,0")
    assert c.m == (0, 1, 0)
    assert c.local_degree == (1, 2, 1)


@pytest.mark.parametrize("bad", [
    "", "0", "0,,1", "0,x,1", "0,1,", "0,1^,0",
    5, None, ["0", "1", "0"], b"0,1,0",  # not text
])
def test_parse_syntax_errors(bad):
    with pytest.raises(comb.ParseError):
        comb.parse(bad)


def test_parse_range_and_degree_errors():
    with pytest.raises(comb.ParseError):
        comb.parse("0,7,0")
    with pytest.raises(comb.ParseError):
        comb.parse("0,1^0,0")


def test_render_round_trip_examples():
    for text in ["0,4,3,1,2,5", "0,2,6^2,4,3^3,1^2,4,7", "0,1,0", "0,2,0^3"]:
        c = comb.parse(text)
        assert comb.parse(comb.render(c)) == c
    # canonical form omits degrees that match the defaults
    assert comb.render(comb.parse("0,2,6^2,4,3^3,1^2,4,7")) == "0,2,6,4,3^3,1,4,7"
    assert comb.render(comb.parse("0,1^2,0")) == "0,1,0"
    assert comb.render(comb.parse("0,2,0^3")) == "0,2,0^3"


@given(valid_combinatorics())
@settings(max_examples=60, deadline=None)
def test_render_round_trip_random(c):
    assert comb.parse(comb.render(c)) == c


# ---------------------------------------------------------------- validate

def test_validate_cubic_passes():
    report = comb.validate(comb.parse("0,4,3,1,2,5"))
    assert report.passed
    assert report.total_degree == 3
    assert report.turning_points == (1, 3)
    assert report.expansive is True


def test_validate_framing_violation():
    report = comb.validate(comb.Combinatorics((1, 2, 0), comb.default_degrees((1, 2, 0))))
    assert not report.passed
    assert report.conditions[3] is False


def test_validate_adjacent_equal_images():
    report = comb.validate(comb.Combinatorics((0, 0, 1), (1, 1, 1)))
    assert not report.passed
    assert report.conditions[1] is False


def test_validate_degree_parity():
    # interior turning point with odd degree
    report = comb.validate(comb.Combinatorics((0, 1, 0), (1, 3, 1)))
    assert report.conditions[6] is False
    # periodic endpoint must have degree one
    report = comb.validate(comb.Combinatorics((0, 1, 0), (3, 2, 1)))
    assert report.conditions[6] is False
    # non-periodic endpoint of odd degree is fine
    report = comb.validate(comb.parse("0,2,0^3"))
    assert report.passed and report.total_degree == 4


@st.composite
def cubic_endpoints(draw):
    """Sequences whose endpoints map to endpoints, with degree 3 at one or both ends."""
    n = draw(st.integers(min_value=2, max_value=7))
    seq = [draw(st.sampled_from([0, n]))]
    for _ in range(1, n):
        seq.append(draw(st.sampled_from([v for v in range(n + 1) if v != seq[-1]])))
    seq.append(draw(st.sampled_from([0, n])))
    degrees = list(comb.default_degrees(seq))
    for j in draw(st.sampled_from([(0,), (n,), (0, n)])):
        degrees[j] = 3
    return comb.Combinatorics(tuple(seq), tuple(degrees))


@given(cubic_endpoints())
@example(comb.parse("3^3,0,2,0^3"))  # 0 <-> 3, a 2-cycle through both ends
@example(comb.parse("3,0,2,0^3"))  # only x_3 is cubic, on the 2-cycle
@example(comb.parse("0,3,1,3^3"))  # the orbit of x_1 reaches the fixed x_3 first
@example(comb.parse("0,3,1,0^3"))  # x_1 reaches x_3, which lands on the fixed x_0
@settings(max_examples=150, deadline=None)
def test_condition6_refuses_exactly_the_periodic_cubic_endpoints(c):
    m, deg, turning = c.m, c.local_degree, set(c.turning_points())
    expected = all((deg[j] % 2 == 0) == (j in turning) for j in range(1, c.n)) and not any(
        deg[j] > 1 and returns_to_itself(m, j) for j in (0, c.n))
    assert comb.validate(c).conditions[6] is expected


def test_validate_condition5_is_advisory():
    # x2 is an extra marked fixed point, neither critical nor postcritical:
    # condition 5 fails, but only as a warning.
    report = comb.validate(comb.parse("0,3,2,1,4"))
    assert report.conditions[5] is False
    assert report.passed
    assert any("critical nor postcritical" in w for w in report.warnings)


# ---------------------------------------------------------------- expansiveness

def test_expansiveness_collapse_example():
    flags = comb.expansiveness(comb.parse("0,4,3,2,1,2,0"))
    assert flags[2] is False
    assert all(flags[j] for j in (0, 1, 3, 4, 5))


def test_expansiveness_all_edges():
    assert all(comb.expansiveness(comb.parse("0,3,2,1,4")))


def test_expansiveness_end_intervals():
    flags = comb.expansiveness(comb.parse("0,1,5,0,2,1,7,1,0"))
    assert flags[0] is False and flags[7] is False
    assert all(flags[j] for j in range(1, 7))


@given(valid_combinatorics())
@settings(max_examples=60, deadline=None)
def test_expansiveness_matches_brute_force(c):
    assert comb.expansiveness(c) == brute_force_expansive(c)


# ---------------------------------------------------------------- laps

def test_laps_cubic():
    structure = comb.laps(comb.parse("0,3,2,1,4"))
    got = [(lap.left, lap.right, lap.orientation) for lap in structure]
    assert got == [(None, 1, 1), (1, 3, -1), (3, None, 1)]


def test_lap_of_scans_the_laps_for_an_interior_index():
    c = comb.parse("0,3,2,1,4")
    structure = comb.laps(c)
    assert type(structure) is tuple
    assert [comb.lap_of(c, j) for j in (0, 2, 4)] == list(structure)
    with pytest.raises(comb.CombinatoricsError, match="index 3 is a lap boundary"):
        comb.lap_of(c, 3)


def test_laps_skip_odd_degree_critical_points():
    c = comb.parse("0,2,6^2,4,3^3,1^2,4,7")
    structure = comb.laps(c)
    assert [(lap.left, lap.right) for lap in structure] == [(None, 2), (2, 5), (5, None)]
    assert len(structure) == 3


def test_laps_tent():
    structure = comb.laps(comb.parse("0,1,0"))
    got = [(lap.left, lap.right, lap.orientation) for lap in structure]
    assert got == [(None, 1, 1), (1, None, -1)]


@given(valid_combinatorics())
@settings(max_examples=60, deadline=None)
def test_lap_count_and_alternation(c):
    structure = comb.laps(c)
    assert len(structure) == len(c.turning_points()) + 1
    orientations = [lap.orientation for lap in structure]
    assert all(a == -b for a, b in zip(orientations, orientations[1:]))


def test_laps_and_core_are_kept_on_the_combinatorics():
    c = comb.parse("0,3,2,1,4")
    assert comb.laps(c) is comb.laps(c)
    assert comb.core_indices(c) is comb.core_indices(c)
    assert comb.mapping_pattern(c) is comb.mapping_pattern(c)
    # equal combinatorics compare and hash as before; each keeps its own
    other = comb.parse("0,3,2,1,4")
    assert other == c and hash(other) == hash(c)
    assert comb.laps(other) == comb.laps(c) and comb.laps(other) is not comb.laps(c)


# ---------------------------------------------------------------- patterns

def test_mapping_pattern_period_four():
    pattern = comb.mapping_pattern(comb.parse("0,4,3,1,2,5"))
    assert pattern.orbits == ((1, 4, 2, 3),)
    assert pattern.cycles == ((1, 4, 2, 3),)
    assert "x1^2" in pattern.render() and "x3^2" in pattern.render()


def test_mapping_pattern_boundary_critical():
    pattern = comb.mapping_pattern(comb.parse("0,2,0^3"))
    assert pattern.orbits == ((1, 2, 0),)
    assert pattern.cycles == ((0,),)
    assert "x2^3" in pattern.render()


def test_mapping_pattern_orbit_runs_into_earlier_orbit():
    # x5 -> x1 -> x2 lands on the first orbit, so its cycle is that orbit's
    pattern = comb.mapping_pattern(comb.parse("0,2,6^2,4,3^3,1^2,4,7"))
    assert pattern.orbits == ((2, 6, 4, 3), (5, 1))
    assert pattern.cycles == ((3, 4), (3, 4))


def test_mapping_pattern_fixed_critical():
    pattern = comb.mapping_pattern(comb.parse("0,1,0"))
    assert pattern.orbits == ((1,),)
    assert pattern.cycles == ((1,),)


# ---------------------------------------------------------------- core

@given(valid_combinatorics())
@settings(max_examples=100, deadline=None)
def test_core_is_closed_and_holds_the_ends_and_critical_points(c):
    core = comb.core_indices(c)
    assert {c.m[j] for j in core} <= core
    assert {0, c.n} | set(c.critical_points()) <= core
    assert all(lap.left is None or lap.left in core for lap in comb.laps(c))
    # every core point is an end, critical, or the image of a core point
    assert all(j in (0, c.n) or c.local_degree[j] > 1 or j in {c.m[k] for k in core} for j in core)


def test_core_passengers():
    assert comb.core_indices(comb.parse("0,3,2,1,4")) == {0, 1, 3, 4}
    assert comb.core_indices(comb.parse("0,4,3,1,2,5")) == set(range(6))
    # condition 5 is the absence of passengers
    assert comb.validate(comb.parse("0,3,2,1,4")).conditions[5] is False


# ---------------------------------------------------------------- simplify

def test_simplify_single_edge():
    c = comb.parse("0,4,3,2,1,2,0")
    merged = comb.simplify(c, [(2, 3)])
    assert merged.m == (0, 3, 2, 1, 2, 0)
    assert comb.validate(merged).passed
    assert merged.total_degree() == c.total_degree()


def test_simplify_both_ends():
    c = comb.parse("0,1,5,0,2,1,7,1,0")
    merged = comb.simplify(c, [(0, 1), (7, 8)])
    assert merged.m == (0, 4, 0, 1, 0, 6, 0)
    assert comb.validate(merged).passed
    assert merged.total_degree() == c.total_degree()


def test_simplify_nothing():
    c = comb.parse("0,4,3,1,2,5")
    assert comb.simplify(c, []) == c


def test_simplify_errors():
    c = comb.parse("0,4,3,1,2,5")
    with pytest.raises(comb.CombinatoricsError):
        comb.simplify(c, [(1, 3)])  # not consecutive
    with pytest.raises(comb.CombinatoricsError):
        comb.simplify(c, [(1, 2)])  # images 4 and 3 do not merge
