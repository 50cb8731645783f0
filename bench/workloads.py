"""Workload inputs: enumerated populations, seeded draws and reference runs.

Every workload is a list of cases solved one after another by one caller
(a closed loop).  A case carries only the rendered sequence text and the
run options; the program parses the text itself inside the timed span.

multimodal   the eight distinct runs behind the eleven published reference
             rows, at their own ``run_tol``, then a seeded draw from the
             valid default-degree sequences with 3 <= n <= 5 and at least
             two turning points.  Every step inverts the gap map with
             r >= 2, so ``critvals`` does most of the work, and the
             reference rows tie the workload to published coefficients.
unimodal     a seeded draw from the valid default-degree sequences with
             exactly one turning point and 2 <= n <= 6.  Then r = 1 and the
             gap map is never inverted, so a ``critvals`` optimisation
             predicts no change here; ``solve_monotone`` does most of the
             work.  About half of these sequences collapse, and the known
             "merged combinatorics ... is invalid" failures live here.
deep-digits  the eight reference combinatorics at tol 1e-60: long runs
             (64-291 steps) whose consecutive inner problems are nearly
             identical, each escalating from 40 to 80 digits.  The seed
             does not change them.

The draws are stratified by cost: the population is sorted by each
sequence's solve time at the commit that introduced this benchmark (the
``order-*.txt`` files, written by ``rank.py``), cut into as many
consecutive blocks as sequences are drawn, and the seed picks one sequence
per block.  Different seeds then solve different sequences with the same
cost profile, so a run's totals do not swing with the luck of the draw.

Sequences that failed at that commit (``failing-*.txt``, also written by
``rank.py``) are not drawn: a timed pass must do the same work on every
commit, and a fix that lets a failing run converge would change that work.
They form the workload's ledger instead, which every run solves again
outside the timed passes, so that ``fail_frac`` shows the fix.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import thurston
from thurston import combinatorics as comb
from thurston._table import ROWS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("multimodal", "unimodal", "deep-digits")

# name: (smallest n, largest n, turning-point count test, sequences drawn)
POPULATIONS = {
    "multimodal": (3, 5, lambda turning: turning >= 2, 100),
    "unimodal": (2, 6, lambda turning: turning == 1, 160),
}

DEEP_OPTIONS = thurston.RunOptions(tol="1e-60", max_iter=1000)

# The degree-7 row's published linear coefficient lost its leading digit in
# typesetting (see the note in _table.py); compare with the recomputed value.
CORRECTED = {("degree 7", 1): "20.20557075"}

# What the commit that introduced this benchmark produced for each distinct
# reference run: its outer steps, and per reference row the largest
# coefficient deviation from the published row, rounded up to two digits.
# A later commit must take the same steps and deviate no further.
SEED_REFERENCE = {
    "0,4,3,1,2,5": (24, {"cubic-period4": "3.4e-7"}),
    "0,2,6^2,4,3^3,1^2,4,7": (16, {
        "quintic step 1": "4.6e-6", "quintic step 2": "4.8e-6", "quintic limit": "4.6e-6"}),
    "0,3,2,1,4": (15, {"cubic exact": "1.1e-11"}),
    "0,3^4,2^3,1,4": (13, {"degree 7": "4.1e-6"}),
    "6,2^4,3,4,5,1,0": (3, {
        "degree-5 step 1": "4.7e-4", "degree-5 step 2": "8.8e-4", "degree-5 step 3": "3.7e-5"}),
    "0,2,1,3,5,3^3,0": (19, {"degree 6": "9.4e-7"}),
    "0,4,3,2,1,2,0": (45, {"collapse quartic": "4.9e-7"}),
    "0,1,5,0,2,1,7,1,0": (10, {"collapse sextic": "4.9e-7"}),
}


@dataclass(frozen=True)
class RowCheck:
    """One published row compared against a reference run."""

    key: str
    step: Optional[int]  # None: the converged limit
    coefficients: tuple  # published, with the typesetting fix applied
    limit: str  # largest deviation allowed


@dataclass(frozen=True)
class Case:
    text: str
    options: thurston.RunOptions
    iterations: Optional[int] = None  # outer steps a reference run must take
    rows: tuple = ()  # RowChecks


def reference_combinatorics() -> list:
    return list(dict.fromkeys(row.combinatorics for row in ROWS))


def reference_cases() -> list:
    """The distinct reference runs at their rows' ``run_tol``, with checks."""
    cases = []
    for text in reference_combinatorics():
        rows = [row for row in ROWS if row.combinatorics == text]
        iterations, limits = SEED_REFERENCE[text]
        checks = tuple(
            RowCheck(
                row.key,
                row.step,
                tuple(CORRECTED.get((row.key, i), c) for i, c in enumerate(row.coefficients)),
                limits[row.key],
            )
            for row in rows
        )
        options = thurston.RunOptions(
            tol=rows[0].run_tol, keep_trace=any(row.step for row in rows)
        )
        cases.append(Case(text, options, iterations, checks))
    return cases


def population(name: str) -> list:
    """Rendered text of every sequence in a drawn workload's population."""
    lo, hi, keep, _ = POPULATIONS[name]
    out = []
    for n in range(lo, hi + 1):
        # validate requires endpoints mapping to endpoints and adjacent
        # images that differ; skipping the rest early only saves time.
        for ends in itertools.product((0, n), repeat=2):
            for middle in itertools.product(range(n + 1), repeat=n - 1):
                m = (ends[0], *middle, ends[1])
                if any(a == b for a, b in zip(m, m[1:])):
                    continue
                c = comb.Combinatorics(m, comb.default_degrees(m))
                if keep(len(c.turning_points())) and comb.validate(c).passed:
                    out.append(comb.render(c))
    return out


def listed(kind: str, name: str) -> list:
    """The sequences in ``<kind>-<name>.txt``; ``rank.py`` writes both kinds."""
    return (HERE / f"{kind}-{name}.txt").read_text().split()


def draw(name: str, seed: int) -> list:
    """One sequence from each of ``size`` cost blocks, in seeded order."""
    size = POPULATIONS[name][3]
    rank = {text: i for i, text in enumerate(listed("order", name))}
    failing = set(listed("failing", name))
    # Sequences the order file does not know (a changed validate) rank last.
    pop = sorted(
        (t for t in population(name) if t not in failing),
        key=lambda t: (rank.get(t, len(rank)), t),
    )
    rng = random.Random(seed)
    picked = [
        rng.choice(pop[i * len(pop) // size:(i + 1) * len(pop) // size])
        for i in range(size)
    ]
    rng.shuffle(picked)
    return picked


def cases(name: str, seed: int) -> list:
    """The timed inputs, in the order one pass solves them."""
    if name == "deep-digits":
        return [Case(text, DEEP_OPTIONS) for text in reference_combinatorics()]
    drawn = [Case(text, thurston.RunOptions()) for text in draw(name, seed)]
    if name == "multimodal":
        return reference_cases() + drawn
    return drawn


def ledger_cases(name: str) -> list:
    """Every sequence of the population that failed at the seed commit."""
    if name not in POPULATIONS:
        return []
    return [Case(text, thurston.RunOptions()) for text in listed("failing", name)]


def digest(case_list: list) -> str:
    """Short hash of the inputs, so two runs can be shown to match."""
    text = "\n".join(f"{c.text} {c.options.tol} {c.options.max_iter}" for c in case_list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
