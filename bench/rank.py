"""Write the cost order that the seeded draws are stratified by, and the
sequences that fail.

    python3 bench/rank.py            # both drawn populations, about 5 minutes

Solves every sequence of each drawn population once, in one process, and
writes ``order-<workload>.txt``: the rendered sequences, cheapest first;
and ``failing-<workload>.txt``: those whose run raised or did not converge.
Only the order is kept, so a rerun on other hardware moves few sequences
between blocks.  Rerun it when the populations change; the committed files
come from the commit that introduced the benchmark.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import thurston  # noqa: E402
import workloads  # noqa: E402


def solve(text: str) -> tuple:
    """Seconds taken, and whether the run failed."""
    start = time.perf_counter()
    try:
        failed = not thurston.run(thurston.parse(text)).converged
    except Exception:  # failing sequences are ranked by their time too
        failed = True
    return time.perf_counter() - start, failed


def main():
    for name in workloads.POPULATIONS:
        pop = workloads.population(name)
        outcome = {text: solve(text) for text in pop}
        ordered = sorted(pop, key=lambda t: (outcome[t][0], t))
        failing = [t for t in pop if outcome[t][1]]
        (HERE / f"order-{name}.txt").write_text("\n".join(ordered) + "\n")
        (HERE / f"failing-{name}.txt").write_text("".join(t + "\n" for t in failing))
        total = sum(t for t, _ in outcome.values())
        print(f"{name}: {len(pop)} sequences, {len(failing)} failing, {total:.1f} s", flush=True)


if __name__ == "__main__":
    main()
