"""Every sequence the benchmark can draw, solved once and checked.

    python tools/population.py [ROOT]

imports ``thurston`` from ROOT/src and the benchmark's ``workloads`` and
``checker`` from ROOT/bench (default ROOT: this repository), then solves
every sequence of the ``unimodal`` and ``multimodal`` populations
(``workloads.population``: 812 and 2,092 sequences) once at the default
options.  Every seed of either workload draws from these populations, so a
draw that some seed would fail fails here.  Each converged result goes
through ``checker.check``.  The script prints, per population, the
sequences, how many converged, the checker's rejections and the errors,
then one sha256 over the lines

    <text> <outcome> <steps> <final combinatorics>

(outcome ``converged``, ``not-converged`` or the exception's type).  Two
trees that print the same sha256 took the same outer steps to the same
final combinatorics on every sequence.  It exits 1, naming each, on any
checker rejection, and on any error or unconverged run of a sequence that
is not in the population's ledger (``bench/failing-<name>.txt``).  It takes
about 20 s.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checker  # noqa: E402
import thurston  # noqa: E402
import workloads  # noqa: E402
from thurston import combinatorics as comb  # noqa: E402


def main() -> int:
    digest, bad = hashlib.sha256(), []
    for name in ("unimodal", "multimodal"):
        ledger = set(workloads.listed("failing", name))
        texts = workloads.population(name)
        converged = rejected = errors = 0
        for text in texts:
            case = workloads.Case(text, thurston.RunOptions())
            try:
                result = thurston.run(thurston.parse(text), case.options)
            except Exception as exc:  # noqa: BLE001 - a failure is part of the output
                errors += 1
                line = f"{text} {type(exc).__name__}"
                if text not in ledger:
                    bad.append(f"{name} {text}: {type(exc).__name__}: {exc}")
            else:
                outcome = "converged" if result.converged else "not-converged"
                line = f"{text} {outcome} {result.iterations} {comb.render(result.combinatorics)}"
                if not result.converged:
                    if text not in ledger:
                        bad.append(f"{name} {text}: not converged")
                else:
                    converged += 1
                    if problems := checker.check(case, result):
                        rejected += 1
                        bad.append(f"{name} {text}: check: {'; '.join(problems)}")
            digest.update(f"{line}\n".encode())
        print(f"{name}: {len(texts)} sequences, {converged} converged, "
              f"{rejected} rejected, {errors} errors ({len(ledger)} in the ledger)")
    print(f"sha256 {digest.hexdigest()}")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
