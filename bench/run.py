"""Benchmark of the pull-back solver: one workload, one seed, one process.

    python3 bench/run.py --workload multimodal --seed 1 --seconds 45 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The workload's sequences are
solved one after another by ``thurston.run`` (a closed loop: one caller, no
threads or pool), in passes over the same inputs until ``--seconds`` is
used up.  Every result is checked outside the timed span (``checker.py``).
After the timed passes, the workload's ledger of sequences that failed at
the seed commit is solved once more, untimed, and checked the same way.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, and the JSON holds the per-layer metrics and the tracing
overhead.  Spans of the traced passes are
written to ``bench/out/``.  Lines before the JSON repeat the metrics with
their units, the check results and the failure ledger.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from mpmath.ctx_mp import MPContext

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "thurston" / "__init__.py").is_file():
    sys.exit(f"bench: no thurston package under {SRC}")
sys.path.insert(0, str(SRC))

import thurston  # noqa: E402

if Path(thurston.__file__).resolve().parent != (SRC / "thurston").resolve():
    sys.exit(f"bench: imported thurston from {thurston.__file__}, not from {SRC}")

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A fresh-process set-up is timed between sequences once this many seconds
# have passed since the last, so that the reported median samples the whole
# run rather than the machine's state at one moment.
SETUP_EVERY_S = 2.5

# On a shared host the speed drifts: on a 2-vCPU VM the same work took
# 20-35% longer from one minute to the next.  After every sequence a fixed mpmath
# computation, the probe, is timed, repeatedly until the probes have taken
# PROBE_SHARE of the sequence's time, so that each second of solving gets
# the same number of samples.  The end-to-end times are divided by the
# run's median probe time over PROBE_REF_S: they are seconds at the
# reference speed.  The probe uses its own context, not the package's code.
PROBE_SHARE = 0.02
PROBE = MPContext()
PROBE.dps = 40
PROBE_COEFFS = [PROBE.mpf(1) / (k + 3) for k in range(12)]
PROBE_POINTS = [PROBE.mpf(k) / 41 for k in range(41)]
PROBE_REF_S = 0.0015  # the probe's median time on a quiet 2-vCPU Xeon VM

# A fresh interpreter: import the package, then parse and validate every
# input, stopping where the first run would start.  Interpreter start-up
# itself is not counted.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import thurston
for text in sys.stdin.read().split():
    thurston.validate(thurston.parse(text))
print(time.perf_counter() - start)
"""


@dataclass
class Pass:
    wall: float
    times: list  # per-case wall seconds
    cpus: list  # per-case process CPU seconds
    probes: list  # probe seconds, at least one after each case
    steps: list = field(default_factory=list)  # outer steps per case, 0 where the run raised
    failures: dict = field(default_factory=dict)  # case index -> "Type: message"
    problems: dict = field(default_factory=dict)  # case index -> check misses
    digits: int = 0
    escalations: int = 0
    collapses: int = 0


def probe() -> float:
    """Seconds the probe takes, with the collector held off."""
    gc.disable()
    try:
        start = perf_counter()
        for x in PROBE_POINTS:
            acc = PROBE_COEFFS[-1]
            for c in reversed(PROBE_COEFFS[:-1]):
                acc = acc * x + c
            PROBE.sqrt(acc)
        return perf_counter() - start
    finally:
        gc.enable()


def solve_pass(cases, tracer=None, gap=None) -> Pass:
    """Solve every case once, timing each; checks happen afterwards.

    ``gap()``, if given, runs before each case, outside its timed span.
    """
    results, times, cpus, probes = [], [], [], []
    wall0 = perf_counter()
    for i, case in enumerate(cases):
        if gap is not None:
            gap()
        if tracer is not None:
            tracer.sequence = i
        start, cpu = perf_counter(), process_time()
        try:
            result = thurston.run(thurston.parse(case.text), case.options)
        except Exception as exc:  # a failing sequence goes to the ledger
            result = exc
        times.append(perf_counter() - start)
        cpus.append(process_time() - cpu)
        results.append(result)
        spent = 0.0
        while not spent or spent < PROBE_SHARE * times[-1]:
            probes.append(probe())
            spent += probes[-1]
    done = Pass(perf_counter() - wall0, times, cpus, probes)

    for i, (case, result) in enumerate(zip(cases, results)):
        if isinstance(result, Exception):
            done.steps.append(0)
            done.failures[i] = f"{type(result).__name__}: {result}"
            continue
        done.steps.append(result.iterations)
        done.digits = max(done.digits, result.digits)
        done.escalations += len(result.precision_history) - 1
        done.collapses += len(result.collapse_events)
        if not result.converged:
            done.failures[i] = f"not converged after {result.iterations} steps"
            continue
        problems = checker.check(case, result)
        if problems:
            done.problems[i] = problems
            done.failures[i] = "check: " + "; ".join(problems)
    return done


def timed_passes(cases, seconds, trace_path=None, gap=None) -> tuple:
    """Passes until the next one would overrun ``seconds``; at least one.

    With a ``trace_path``, each untraced pass is followed by a traced one,
    so that both see the host in much the same state, and the spans go to
    that file.  Returns the untraced passes, the traced ones and the
    tracers' summaries.
    """
    plain, traced, summaries = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(solve_pass(cases, gap=gap))
        if trace_path is not None:
            with tracing.Tracer() as tracer:
                traced.append(solve_pass(cases, tracer))
            summaries.append(tracer.summary())
            tracer.write(trace_path, len(summaries) - 1, "w" if len(summaries) == 1 else "a")
            del tracer
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced, summaries


def setup_seconds(cases) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        input="\n".join(case.text for case in cases),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def per_case(passes, attr="times") -> list:
    """Each case's median over the passes of its wall (or CPU) seconds."""
    return [statistics.median(getattr(p, attr)[i] for p in passes)
            for i in range(len(passes[0].times))]


def p90_line(passes) -> list:
    """seq_s.p90, printed only where at least ten sequences lie beyond it."""
    times = per_case(passes)
    if len(times) < 100:
        return []
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return [metric_line("seq_s.p90", p90 / speed(passes), "s")]


def speed(passes) -> float:
    """The run's median probe time over the reference: above 1 is slower."""
    return statistics.median(t for p in passes for t in p.probes) / PROBE_REF_S


def end_to_end(passes, setups) -> dict:
    """Times at the reference speed.  A pass's time is the sum of its cases'
    medians, not the median of the pass totals: a burst of load on the host
    then spoils one sample of a few cases, not a whole pass."""
    slow = speed(passes)
    return {
        "wall_s": (sum(per_case(passes)) / slow, "s"),
        "cpu_s": (sum(per_case(passes, "cpus")) / slow, "s"),
        "seq_s.p50": (statistics.median(per_case(passes)) / slow, "s"),
        "outer_steps": (sum(passes[0].steps), "count"),
        "setup_s": (statistics.median(setups) / slow, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_lines(passes, setups) -> list:
    """The measured times before scaling, and the scale."""
    slow = speed(passes)
    return [
        f"host speed: probe median {slow * PROBE_REF_S * 1e3:.4g} ms,"
        f" {slow:.4g} x the reference {PROBE_REF_S * 1e3:g} ms; times above are divided by {slow:.4g}",
        metric_line("wall_s as measured", sum(per_case(passes)), "s"),
        metric_line("cpu_s as measured", sum(per_case(passes, "cpus")), "s"),
        metric_line("seq_s.p50 as measured", statistics.median(per_case(passes)), "s"),
        metric_line("setup_s as measured", statistics.median(setups), "s"),
    ]


def pass_counters(first: Pass) -> dict:
    return {
        "pullback.escalations": (first.escalations, "count"),
        "pullback.final_digits.max": (first.digits, "digits"),
        "pullback.collapses": (first.collapses, "count"),
    }


def metric_line(name, value, unit) -> str:
    return f"  {name:<40} {value:>14.6g} {unit}"


def report(workload, seed, traced, cases, passes, metrics, ledger, retry, extra_lines=()) -> dict:
    """Print the human-readable report; return the final JSON object.

    ``retry`` is the untimed pass over the ``ledger`` cases.
    """
    first = passes[0]
    consistent = all(
        p.failures == first.failures and p.steps == first.steps for p in passes
    )
    print(f"workload {workload}  seed {seed}  inputs {len(cases)}"
          f"  digest {workloads.digest(cases)}  ledger {len(ledger)}")
    print(f"closed loop, one caller, tracing {'on' if traced else 'off'}; {len(passes)} pass(es)"
          f" of {', '.join(f'{p.wall:.3f}' for p in passes)} s")
    for name, (value, unit) in metrics.items():
        print(metric_line(name, value, unit))
    for line in extra_lines:
        print(line)
    failed = len(first.failures) + len(retry.failures)
    print(metric_line("fail_frac", failed / (len(cases) + len(ledger)), "ratio")
          + f" ({len(first.failures)} of {len(cases)} timed sequences,"
          f" {len(retry.failures)} of {len(ledger)} in the ledger)")
    checked = len(cases) + len(ledger) - failed + len(first.problems) + len(retry.problems)
    print(f"checks: {checked} converged results checked,"
          f" {len(first.problems) + len(retry.problems)} failed;"
          f" reference rows checked: {sum(len(c.rows) for c in cases)}")
    if not consistent:
        print("checks: passes disagree on steps or failures; the run is not deterministic")
    print(f"failure ledger ({failed}):")
    for group, outcome in ((cases, first), (ledger, retry)):
        for i, why in sorted(outcome.failures.items()):
            print(f"  {group[i].text}  {why}")
    return {
        "correct": consistent and not first.failures and not retry.problems
        and not any(p.problems for p in passes),
        "attempted": len(cases),
        "failed": len(first.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(workload, seed, seconds, trace, cases, ledger) -> dict:
    """Run one workload; print the report and return the final JSON object."""
    if not trace:
        setups, last = [], float("-inf")

        def gap():
            nonlocal last
            if perf_counter() - last >= SETUP_EVERY_S:
                setups.append(setup_seconds(cases))
                last = perf_counter()

        passes, _, _ = timed_passes(cases, seconds, gap=gap)
        metrics = end_to_end(passes, setups)
        retry = solve_pass(ledger)
        return report(workload, seed, trace, cases, passes, metrics, ledger, retry,
                      p90_line(passes) + raw_lines(passes, setups))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{workload}-{seed}.csv"
    plain, passes, summaries = timed_passes(cases, seconds, trace_path)
    # Both kinds of pass are scaled by the untraced passes' probes: the spans
    # held in memory during a traced pass could slow the probe itself.
    # Shares are ratios within the traced passes and need no scaling.
    slow = speed(plain)
    metrics = {
        name: (value / slow if unit == "s" else value, unit)
        for name, (value, unit) in tracing.layer_metrics(summaries, sum(per_case(passes))).items()
    }
    metrics.update(pass_counters(passes[0]))
    traced_wall = sum(per_case(passes)) / slow
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(per_case(plain)) / slow, "s")
    lines = [metric_line(name, *metrics.pop(name)) for name in tracing.PRINTED_ONLY]
    lines.append(f"host speed: {slow:.4g} x the reference untraced, {speed(passes):.4g} traced;"
                 f" times above are divided by {slow:.4g}")
    lines += [f"spans: {trace_path}", f"passes: {len(plain)} untraced and {len(passes)} traced, alternating"]
    retry = solve_pass(ledger)
    return report(workload, seed, trace, cases, plain + passes, metrics, ledger, retry, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cases = workloads.cases(args.workload, args.seed)
    ledger = workloads.ledger_cases(args.workload)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, cases, ledger)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
