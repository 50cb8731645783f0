"""Command-line surface.

Commands: ``validate`` (structural checks and expansiveness), ``run`` (the
full iteration, emitting a structured result document), ``plot`` (CSV
samples of a converged map for external plotting), and ``table`` (batch
rerun of the published reference rows with per-row deviations).

Exit codes: 0 success, 2 invalid combinatorics or a usage error (such as
``--digits`` below 15, a ``--tol`` that is not a positive number,
``--max-iter`` below 1, or ``--max-digits`` below the starting digits),
3 parse error, 4 non-convergence or a run that failed with a
``PullbackError`` (reported on stderr as ``run failed: <message>``).
All numbers in structured output are decimal strings; no binary floats
cross the tool boundary.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import sys

import click

from . import combinatorics as comb
from . import pullback
from ._table import ROWS
from .mpnum import MIN_DIGITS, PrecisionContext

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_NO_CONVERGENCE = 4

PLOT_DIGITS = 17


def _parse_or_exit(text):
    try:
        return comb.parse(text)
    except comb.ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _run_or_exit(c, options):
    try:
        return pullback.run(c, options)
    except pullback.InvalidCombinatorics as exc:
        click.echo(f"invalid combinatorics: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    except pullback.PullbackError as exc:
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


def result_document(
    text: str,
    result: pullback.RunResult,
    options: pullback.RunOptions,
    include_trace: bool = False,
) -> dict:
    """Stable structured form of a finished run."""
    ctx = PrecisionContext(result.digits)
    report = comb.validate(result.original)
    doc = {
        "schema": "thurston.run.v1",
        "input": {
            "combinatorics": text,
            "tolerance": options.tol,
            "max_iterations": options.max_iter,
            "start_digits": options.start_digits,
            "max_digits": options.max_digits,
        },
        "validation": report.to_dict(),
        "degree": result.combinatorics.total_degree(),
        "converged": result.converged,
        "iterations": result.iterations,
        "fit_error": ctx.format(result.fit) if result.fit is not None else None,
        "working_digits": result.digits,
        "precision_history": [
            {"step": step, "digits": digits} for step, digits in result.precision_history
        ],
        "coefficients": [ctx.format(c) for c in result.polynomial.coefficients]
        if result.polynomial else None,
        "marked_points": [ctx.format(p) for p in result.configuration.points]
        if result.configuration else None,
        "combinatorics": comb.render(result.combinatorics),
        "mapping_pattern": comb.mapping_pattern(result.combinatorics).render(),
        "collapse": [
            {
                "step": ev.step,
                "groups": [list(g) for g in ev.groups],
                "before": ev.before,
                "after": ev.after,
            }
            for ev in result.collapse_events
        ],
    }
    if include_trace:
        doc["trace"] = [
            {
                "step": rec.step,
                "digits": rec.digits,
                "fit_error": ctx.format(rec.fit),
                "coefficients": [ctx.format(c) for c in rec.polynomial.coefficients],
                "marked_points": [ctx.format(p) for p in rec.configuration.points],
            }
            for rec in result.trace
        ]
    return doc


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def parse_document(text: str) -> dict:
    return json.loads(text)


def _emit(payload: str, out):
    if out:
        with open(out, "w") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")
    else:
        click.echo(payload)


def _poly_text(doc) -> str:
    terms = []
    for power, coeff in enumerate(doc["coefficients"]):
        if coeff.lstrip("-").rstrip("0").rstrip(".") in ("", "0"):
            continue
        if power == 0:
            terms.append(coeff)
        elif power == 1:
            terms.append(f"{coeff}*x")
        else:
            terms.append(f"{coeff}*x^{power}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


@click.group()
def main():
    """Critically finite real polynomial maps from combinatorics."""


def _positive_tolerance(click_ctx, param, value):
    """Reject a fit tolerance that is not a finite number above 0."""
    ctx = PrecisionContext(MIN_DIGITS)
    try:
        tol = ctx.mpf(value)
    except ValueError:
        tol = None
    if tol is None or not 0 < tol < ctx.mp.inf:
        raise click.BadParameter(f"{value!r} is not a positive number")
    return value


def _ceiling_not_below_start(click_ctx, param, value):
    """Reject a precision ceiling below the starting precision."""
    digits = click_ctx.params["digits"]
    if value < digits:
        raise click.BadParameter(f"{value} is below the starting precision of {digits} digits")
    return value


_run_options = [
    click.option("--tol", default="1e-10", show_default=True, callback=_positive_tolerance,
                 help="Fit tolerance."),
    click.option("--max-iter", default=100, show_default=True, type=click.IntRange(min=1),
                 help="Iteration cap."),
    # Eager, so that --max-digits can be checked against it.
    click.option("--digits", default=40, show_default=True, envvar="THURSTON_DIGITS",
                 type=click.IntRange(min=MIN_DIGITS), is_eager=True,
                 help="Starting working precision (decimal digits)."),
    click.option("--max-digits", default=640, show_default=True,
                 callback=_ceiling_not_below_start,
                 help="Precision ceiling for automatic escalation."),
]


def _with_run_options(fn):
    for opt in reversed(_run_options):
        fn = opt(fn)
    return fn


@main.command()
@click.argument("combinatorics_text", metavar="COMBINATORICS")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def validate(combinatorics_text, fmt):
    """Check a combinatorics sequence; exit 0 (pass), 2 (fail), 3 (unparseable)."""
    c = _parse_or_exit(combinatorics_text)
    report = comb.validate(c)
    if fmt == "json":
        click.echo(serialize_document(report.to_dict()))
    else:
        status = "pass" if report.passed else "fail"
        expansive = {True: "yes", False: "no", None: "n/a"}[report.expansive]
        click.echo(f"{comb.render(c)}: {status}, degree {report.total_degree}, "
                   f"expansive: {expansive}")
        for k, ok in sorted(report.conditions.items()):
            click.echo(f"  condition {k}: {'ok' if ok else 'FAIL'}")
        for warning in report.warnings:
            click.echo(f"  warning: {warning}")
        if report.passed:
            click.echo(f"  turning points: {list(report.turning_points)}")
            click.echo(f"  mapping pattern: {comb.mapping_pattern(c).render()}")
    sys.exit(EXIT_OK if report.passed else EXIT_INVALID)


@main.command(name="run")
@click.argument("combinatorics_text", metavar="COMBINATORICS")
@_with_run_options
@click.option("--trace", is_flag=True, help="Include per-step records in the output.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write the document here.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True)
def run_command(combinatorics_text, tol, max_iter, digits, max_digits, trace, out, fmt):
    """Run the pull-back iteration and emit the result document."""
    c = _parse_or_exit(combinatorics_text)
    options = pullback.RunOptions(
        tol=tol, max_iter=max_iter, start_digits=digits, max_digits=max_digits,
        keep_trace=trace,
    )
    result = _run_or_exit(c, options)
    doc = result_document(combinatorics_text, result, options, include_trace=trace)
    if fmt == "json":
        _emit(serialize_document(doc), out)
    else:
        lines = [
            f"combinatorics: {doc['combinatorics']} (degree {doc['degree']})",
            f"converged: {doc['converged']} after {doc['iterations']} iterations, "
            f"fit error {doc['fit_error']}",
            f"f(x) = {_poly_text(doc)}",
            f"marked points: {', '.join(doc['marked_points'])}",
            f"mapping pattern: {doc['mapping_pattern']}",
        ]
        for ev in doc["collapse"]:
            lines.append(
                f"collapse at step {ev['step']}: {ev['before']} -> {ev['after']} "
                f"(merged {ev['groups']})"
            )
        _emit("\n".join(lines), out)
    sys.exit(EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


@main.command()
@click.argument("combinatorics_text", metavar="COMBINATORICS", required=False)
@click.option("--result", "result_path", type=click.Path(exists=True, dir_okay=False),
              help="Sample a stored result document instead of running.")
@_with_run_options
@click.option("--samples", default=201, show_default=True, help="Grid sample count.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write CSV here.")
def plot(combinatorics_text, result_path, tol, max_iter, digits, max_digits, samples, out):
    """Emit CSV samples (x, f(x)) of the converged map plus its marked points."""
    if samples < 2:
        raise click.BadParameter("need at least 2 samples")
    if result_path:
        with open(result_path) as fh:
            doc = parse_document(fh.read())
    elif combinatorics_text:
        c = _parse_or_exit(combinatorics_text)
        options = pullback.RunOptions(tol=tol, max_iter=max_iter,
                                      start_digits=digits, max_digits=max_digits)
        result = _run_or_exit(c, options)
        if not result.converged:
            click.echo("run did not converge; nothing to plot", err=True)
            sys.exit(EXIT_NO_CONVERGENCE)
        doc = result_document(combinatorics_text, result, options)
    else:
        raise click.UsageError("give a combinatorics sequence or --result FILE")
    if not doc.get("coefficients"):
        click.echo("document holds no polynomial", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)

    ctx = PrecisionContext(max(doc["working_digits"], 15))
    from .mpnum import Polynomial

    f = Polynomial(tuple(ctx.mpf(s) for s in doc["coefficients"]))
    final = comb.parse(doc["combinatorics"])
    lines = ["x,f(x)"]
    for i in range(samples):
        xval = ctx.mp.mpf(i) / (samples - 1)
        lines.append(f"{ctx.format(xval, PLOT_DIGITS)},{ctx.format(f(xval), PLOT_DIGITS)}")
    lines.append("# marked,j,x,image_index,image_x,local_degree")
    for j, point in enumerate(doc["marked_points"]):
        xj = ctx.mpf(point)
        lines.append(
            "# marked,%d,%s,%d,%s,%d" % (
                j, ctx.format(xj, PLOT_DIGITS), final.m[j],
                ctx.format(f(xj), PLOT_DIGITS), final.local_degree[j],
            )
        )
    _emit("\n".join(lines), out)
    sys.exit(EXIT_OK)


def _row_report(row, result: pullback.RunResult) -> dict:
    """One reference row against the run of its combinatorics, as plain strings."""
    ctx = PrecisionContext(result.digits)
    if row.step is not None:
        record = next(rec for rec in result.trace if rec.step == row.step)
        coeffs, fit, iters = record.polynomial.coefficients, record.fit, row.step
    else:
        coeffs, fit, iters = result.polynomial.coefficients, result.fit, result.iterations
    reference = [ctx.mpf(s) for s in row.coefficients]
    computed = list(coeffs) + [ctx.mp.mpf(0)] * (len(reference) - len(coeffs))
    deviation = max(abs(a - b) for a, b in zip(computed, reference))
    return {
        "key": row.key,
        "combinatorics": row.combinatorics,
        "step": row.step,
        "computed": [ctx.format(c) for c in coeffs],
        "reference": list(row.coefficients),
        "max_deviation": ctx.format(deviation, 6),
        "fit_error": ctx.format(fit, 6),
        "reference_error": row.error,
        "iterations": iters,
        "reference_iterations": row.iterations,
        "collapse": [ev.after for ev in result.collapse_events],
        "note": row.note,
        "ok": True,
    }


def _run_reference_rows(keys: tuple) -> list:
    """Worker: one run serves every reference row in ``keys``, which share
    a combinatorics and a tolerance."""
    rows = [row for row in ROWS if row.key in keys]
    try:
        c = comb.parse(rows[0].combinatorics)
        keep_trace = any(row.step is not None for row in rows)
        result = pullback.run(c, pullback.RunOptions(tol=rows[0].run_tol, keep_trace=keep_trace))
        return [_row_report(row, result) for row in rows]
    except Exception as exc:  # row failures must not sink the batch
        return [{"key": row.key, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
                for row in rows]


@main.command()
@click.option("--jobs", default=0, show_default="cpu count",
              help="Parallel row workers; 1 forces serial.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write JSON report here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def table(jobs, out, fmt):
    """Recompute all published reference rows and show deviations."""
    runs = {}
    for row in ROWS:
        runs.setdefault((row.combinatorics, row.run_tol), []).append(row.key)
    batches = [tuple(keys) for keys in runs.values()]
    workers = jobs if jobs > 0 else min(len(batches), os.cpu_count() or 1)
    if workers > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_run_reference_rows, batches))
        except (OSError, concurrent.futures.process.BrokenProcessPool):
            reports = [_run_reference_rows(b) for b in batches]
    else:
        reports = [_run_reference_rows(b) for b in batches]
    order = {row.key: i for i, row in enumerate(ROWS)}
    results = sorted((r for batch in reports for r in batch), key=lambda r: order[r["key"]])

    if fmt == "json":
        _emit(serialize_document({"schema": "thurston.table.v1", "rows": results}), out)
    else:
        lines = []
        for res in results:
            if not res["ok"]:
                lines.append(f"{res['key']}: FAILED ({res['error']})")
                continue
            where = "limit" if res["step"] is None else f"step {res['step']}"
            lines.append(
                f"{res['key']} [{res['combinatorics']}] ({where}): "
                f"max coefficient deviation {res['max_deviation']}, "
                f"fit {res['fit_error']} (reference {res['reference_error']}), "
                f"iterations {res['iterations']} (reference {res['reference_iterations']})"
            )
            if res["collapse"]:
                lines.append(f"    collapsed to: {', '.join(res['collapse'])}")
            if res["note"]:
                lines.append(f"    note: {res['note']}")
        _emit("\n".join(lines), out)
    sys.exit(EXIT_OK if all(r["ok"] for r in results) else EXIT_NO_CONVERGENCE)


if __name__ == "__main__":
    main()
