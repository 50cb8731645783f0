"""The superattracting real cycles of z**d + c against the kneading-theory counts.

The unimodal sequences whose interior marked points form one p-cycle, with
m_0 = m_n = 0 and n = p + 1, are the real post-critically finite maps z**d + c
whose critical point 0 has period p.  For d = 2 their number is the count of
Metropolis-Stein-Stein sequences (J. Combin. Theory A 15, 1973), OEIS A000048:
1, 1, 2, 3, 5, 9, 16, 28, 51 for p = 2-10.  A result k + a (x - h)**d, framed
on [0, 1], conjugates back to z**d + c with c = a**(1/(d-1)) (k - h); iterating
0 under it checks the answer without the package.
"""

import itertools

import pytest

from thurston import combinatorics as comb
from thurston import pullback

CYCLES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16, 9: 28, 10: 51}
OPTIONS = pullback.RunOptions(tol="1e-20", max_iter=300)  # 0,3,4,2,1,0 takes 119 steps


def cyclic_sequences(p: int, degree: int) -> list:
    """The valid sequences 0, m_1..m_p, 0 with one turning point, of local degree
    ``degree``, whose interior is one p-cycle."""
    found = []
    for rest in itertools.permutations(range(2, p + 1)):
        order = (1, *rest)  # the cycle 1 -> rest[0] -> ... -> 1
        m = [0] * (p + 2)
        for a, b in zip(order, order[1:] + order[:1]):
            m[a] = b
        turning = comb.Combinatorics(m, (1,) * (p + 2)).turning_points()
        if len(turning) != 1:
            continue
        c = comb.Combinatorics(m, tuple(degree if j in turning else 1 for j in range(p + 2)))
        if comb.validate(c).passed:
            found.append(c)
    return found


def parameter(result):
    """c with z**d + c conjugate to the result's map k + a (x - h)**d."""
    f = result.polynomial
    mp, a = f.lead.context, f.lead
    scale = mp.sign(a) * abs(a) ** (mp.mpf(1) / (f.degree - 1))  # the real (d - 1)-th root
    return scale * (f.value - f.center), mp


def assert_census(p: int, degree: int, residual=None):
    """Each run converges to a distinct c within 1e-18 of a root of f_c^p(0) = 0 (one
    Newton step in c away), at which 0 has period p; given ``residual``, |f_c^p(0)| is
    below it too.  The residual grows with the orbit's multiplier, the distance does not."""
    sequences = cyclic_sequences(p, degree)
    assert len(sequences) == CYCLES[p]
    parameters = []
    for c in sequences:
        result = pullback.run(c, OPTIONS)
        assert result.converged, comb.render(c)
        value, mp = parameter(result)
        z, slope, orbit = mp.mpf(0), mp.mpf(0), []
        for _ in range(p):  # z = f_c^i(0) and slope its derivative in c
            z, slope = z**degree + value, degree * z ** (degree - 1) * slope + 1
            orbit.append(abs(z))
        assert abs(z / slope) < 1e-18, comb.render(c)  # 0 returns after p steps
        assert residual is None or orbit[-1] < residual, comb.render(c)
        assert min(orbit[:-1], default=1) > 1e-6, comb.render(c)  # and not before
        parameters.append(value)
    parameters.sort()
    assert all(b - a > 1e-9 for a, b in zip(parameters, parameters[1:]))


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("p", range(2, 9))
def test_superattracting_cycles_match_the_kneading_count(p, degree):
    assert_census(p, degree, residual=1e-12)


@pytest.mark.sweep
@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("p", [9, 10])
def test_superattracting_cycles_match_the_kneading_count_sweep(p, degree):
    assert_census(p, degree)
