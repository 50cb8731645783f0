"""One hash over the full output of a fixed corpus of runs.

    python tools/digest.py [--answers] [SRC_DIR]

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

With ``--answers`` it prints one line per run instead, for a change that is
not meant to be bit-identical: the text, the tolerance, then either the
outcome (converged or not), the outer steps, the final combinatorics, the
steps of the collapse events and the coefficients to 30 significant digits
of the largest, or ``error`` with the exception's type and message.
``diff`` between the outputs of two source trees shows exactly which runs
changed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from decimal import Decimal
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--answers", action="store_true", help="one line per run, not one hash")
parser.add_argument("src", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
ARGS = parser.parse_args()
sys.path.insert(0, str(ARGS.src.resolve()))

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


def to_digits(values, digits=30) -> list:
    """Each value in decimal, rounded at the last of ``digits`` significant
    digits of the largest, so that a value that is 0 up to rounding (the
    constant term of a map fixing 0) prints as 0."""
    ctx = values[-1].context
    top = max(map(abs, values)) or 1
    exponent = int(ctx.floor(ctx.log10(top))) - digits + 1
    scale = ctx.mpf(10) ** exponent
    return [str(Decimal(f"{int(ctx.nint(v / scale))}e{exponent}")) for v in values]


def answer(result) -> str:
    """What a run found, without the bits of its path there."""
    f = result.polynomial
    coefficients = f and to_digits(f.coefficients)
    return (f"{'converged' if result.converged else 'not-converged'} steps {result.iterations} "
            f"final {comb.render(result.combinatorics)} "
            f"collapses {[e.step for e in result.collapse_events]} coefficients {coefficients}")


def main() -> None:
    digest = hashlib.sha256()
    runs = errors = 0
    for text, options in corpus():
        try:
            result = thurston.run(thurston.parse(text), options)
            out = answer(result) if ARGS.answers else fields(result)
        except Exception as exc:  # noqa: BLE001 - the failure is part of the output
            out = [type(exc).__name__, str(exc)]
            if ARGS.answers:
                out = f"error {out[0]}: {out[1]}"
            errors += 1
        runs += 1
        if ARGS.answers:
            print(f"{text} tol {options.tol} {out}")
        else:
            digest.update(f"{text} {options.tol} {out!r}\n".encode())
    if not ARGS.answers:
        print(f"{runs} runs, {errors} errors, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
