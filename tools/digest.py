"""One hash over the full output of a fixed corpus of runs.

    python tools/digest.py [SRC_DIR]

imports ``thurston`` from SRC_DIR (default: this repository's ``src``) and
runs, with ``keep_trace``:

  * each distinct published reference combinatorics at its rows' ``run_tol``
    and again at tol 1e-60 (max_iter 1000);
  * every valid default-degree sequence with n <= 5, at the default options.

Each run contributes its iterations, digits, converged flag, fit, precision
history, every residual, final combinatorics, coefficients, marked points,
collapse events and every trace record (step, digits, fit, coefficients,
marked points), numbers as mpf ``repr``; a run that raises contributes the
exception's type and message instead.  The script prints

    <runs> runs, <errors> errors, sha256 <hex>

Two source trees that print the same line computed the same bits on the
whole corpus.  It takes under a minute.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

SRC = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

import thurston  # noqa: E402
from thurston import combinatorics as comb  # noqa: E402
from thurston._table import ROWS  # noqa: E402

DEEP = thurston.RunOptions(tol="1e-60", max_iter=1000, keep_trace=True)


def corpus():
    """(text, options) for every run, in a fixed order."""
    tolerances = {}
    for row in ROWS:
        tolerances.setdefault(row.combinatorics, row.run_tol)
    for text, tol in tolerances.items():
        yield text, thurston.RunOptions(tol=tol, keep_trace=True)
        yield text, DEEP
    for n in range(1, 6):
        for m in itertools.product(range(n + 1), repeat=n + 1):
            c = comb.Combinatorics(m, comb.default_degrees(m))
            if comb.validate(c).passed:
                yield comb.render(c), thurston.RunOptions(keep_trace=True)


def fields(result) -> list:
    """Everything a run returns, as text."""
    def numbers(values):
        return None if values is None else [repr(v) for v in values]

    return [
        result.iterations, result.digits, result.converged, repr(result.fit),
        list(result.precision_history), numbers(result.residuals),
        comb.render(result.combinatorics),
        numbers(result.polynomial.coefficients) if result.polynomial else None,
        numbers(result.configuration.points) if result.configuration else None,
        [(e.step, e.groups, e.before, e.after) for e in result.collapse_events],
        [(r.step, r.digits, repr(r.fit), numbers(r.polynomial.coefficients),
          numbers(r.configuration.points)) for r in result.trace],
    ]


def main() -> None:
    digest = hashlib.sha256()
    runs = errors = 0
    for text, options in corpus():
        try:
            out = fields(thurston.run(thurston.parse(text), options))
        except Exception as exc:  # noqa: BLE001 - the failure is part of the output
            out = [type(exc).__name__, str(exc)]
            errors += 1
        runs += 1
        digest.update(f"{text} {options.tol} {out!r}\n".encode())
    print(f"{runs} runs, {errors} errors, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
