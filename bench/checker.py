"""Output checks, run outside the timed span.

The checks recompute everything from the returned coefficients and marked
points in a fresh mpmath context at the result's precision, without calling
the package's own evaluation code.  Every converged result must

  * fit: sqrt(sum_j (f(x_j) - x_{m_j})**2) / n <= tol;
  * have endpoints exactly 0 and 1 and strictly increasing marked points;
  * hit the framing targets at 0 and 1;
  * have f' vanish at the critical marked points of its final combinatorics.

Reference runs must also take the seed's outer steps and match each
published row to within the seed's deviation.
"""

from __future__ import annotations

from mpmath.ctx_mp import MPContext

# Rounding slack, in digits above the working precision.  The program
# solves the framing equations to 10 * 10**(3 - digits) and its inner
# Newton to 10**(6 - digits); values built from many coefficients lose a
# little more, so residuals are scaled by the coefficients' magnitude.
SLACK_DIGITS = 6


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def deviation(mp, computed, published) -> object:
    """Largest coefficient difference, padding the shorter list with zeros."""
    width = max(len(computed), len(published))
    a = list(computed) + [mp.zero] * (width - len(computed))
    b = [mp.mpf(s) for s in published] + [mp.zero] * (width - len(published))
    return max(abs(x - y) for x, y in zip(a, b))


def check(case, result) -> list:
    """Problems with one converged result; an empty list means it passed."""
    mp = MPContext()
    mp.dps = result.digits
    c = result.combinatorics
    coeffs = [mp.mpf(v) for v in result.polynomial.coefficients]
    deriv = [i * v for i, v in enumerate(coeffs)][1:] or [mp.zero]
    x = [mp.mpf(v) for v in result.configuration.points]
    slack = mp.mpf(10) ** (SLACK_DIGITS - result.digits)
    scale = max(mp.one, sum(abs(v) for v in coeffs))
    problems = []

    eps = mp.sqrt(sum((_horner(coeffs, x[j]) - x[c.m[j]]) ** 2 for j in range(c.n + 1))) / c.n
    if eps > mp.mpf(case.options.tol) + slack:
        problems.append(f"fit {mp.nstr(eps, 6)} above tol {case.options.tol}")
    if x[0] != 0 or x[-1] != 1:
        problems.append("endpoints are not 0 and 1")
    if any(not a < b for a, b in zip(x, x[1:])):
        problems.append("marked points are not strictly increasing")
    for at, index in ((0, 0), (1, c.n)):
        target = 0 if c.m[index] == 0 else 1
        miss = abs(_horner(coeffs, mp.mpf(at)) - target)
        if miss > slack * scale:
            problems.append(f"f({at}) misses its framing target {target} by {mp.nstr(miss, 6)}")
    for j in c.critical_points():
        slope = abs(_horner(deriv, x[j]))
        if slope > slack * scale * len(coeffs):
            problems.append(f"f' is {mp.nstr(slope, 6)} at critical point x_{j}")

    if case.iterations is not None and result.iterations != case.iterations:
        problems.append(f"took {result.iterations} steps, the seed took {case.iterations}")
    for row in case.rows:
        if row.step is None:
            poly = result.polynomial
        else:
            poly = next((r.polynomial for r in result.trace if r.step == row.step), None)
            if poly is None:
                problems.append(f"{row.key}: no step {row.step} in the trace")
                continue
        dev = deviation(mp, [mp.mpf(v) for v in poly.coefficients], row.coefficients)
        if dev > mp.mpf(row.limit):
            problems.append(f"{row.key}: coefficients deviate by {mp.nstr(dev, 6)}, limit {row.limit}")
    return problems
