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

import json
import sys

import click

from . import combinatorics as comb
from . import pullback
from ._table import ROWS
from .mpnum import Polynomial, PrecisionContext

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


def result_document(text: str, result: pullback.RunResult, options: pullback.RunOptions) -> dict:
    """Stable structured form of a finished run, with its trace if it kept one."""
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
        "fit_error": ctx.format(result.fit),
        "working_digits": result.digits,
        "precision_history": [
            {"step": step, "digits": digits} for step, digits in result.precision_history
        ],
        "coefficients": [ctx.format(c) for c in result.polynomial.coefficients],
        "marked_points": [ctx.format(p) for p in result.configuration.points],
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
    if result.trace:
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


def _emit(payload: str, out):
    if out:
        with open(out, "w") as handle:
            handle.write(payload)
            if not payload.endswith("\n"):
                handle.write("\n")
    else:
        click.echo(payload)


def _load_result(path) -> dict:
    """A stored result document; anything else is a usage error naming the problem."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise click.UsageError(f"--result {path} is not JSON: {exc}") from exc
    keys = ["coefficients", "working_digits", "combinatorics", "marked_points"]
    missing = [k for k in keys if k not in doc] if isinstance(doc, dict) else keys
    if missing:
        raise click.UsageError(f"--result {path} is not a result document: no {', '.join(missing)}")
    return doc


def _plotted(doc) -> tuple:
    """The context, map, combinatorics and marked points (x, f(x)) of a result
    document; a field of the wrong JSON type or value is a usage error that names it."""
    def read(name, kind, convert):
        try:
            if type(doc[name]) is not kind:  # a bool is no integer here
                raise TypeError(f"expected {kind.__name__}, got {type(doc[name]).__name__}")
            if kind is list and any(type(v) is not str for v in doc[name]):
                raise TypeError("elements must be decimal strings")
            return convert(doc[name])
        except (ValueError, TypeError) as exc:
            raise click.UsageError(f"malformed {name} in the result document: {exc}") from exc

    def marked(values):
        if len(values) != final.n + 1:
            raise ValueError(f"{len(values)} points, but the combinatorics has {final.n + 1}")
        return [(xj, f(xj)) for xj in map(ctx.mpf, values)]  # f refuses inf and nan

    ctx = PrecisionContext(max(read("working_digits", int, int), 15))
    f = read("coefficients", list, lambda values: Polynomial(tuple(map(ctx.mpf, values))))
    final = read("combinatorics", str, comb.parse)
    return ctx, f, final, read("marked_points", list, marked)


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


_run_options = [
    click.option("--tol", default="1e-10", show_default=True, help="Fit tolerance."),
    click.option("--max-iter", default=100, show_default=True, help="Iteration cap."),
    click.option("--digits", default=40, show_default=True,
                 help="Starting working precision (decimal digits)."),
    click.option("--max-digits", default=640, show_default=True,
                 help="Precision ceiling for automatic escalation."),
]


def _with_run_options(fn):
    for opt in reversed(_run_options):
        fn = opt(fn)
    return fn


def _options(tol, max_iter, digits, max_digits, keep_trace=False) -> pullback.RunOptions:
    """The run options the flags give; a value RunOptions refuses is a usage
    error that names its flag."""
    try:
        return pullback.RunOptions(tol=tol, max_iter=max_iter, start_digits=digits,
                                   max_digits=max_digits, keep_trace=keep_trace)
    except ValueError as exc:
        field, why = str(exc).split(": ", 1)
        flag = {"start_digits": "--digits"}.get(field, "--" + field.replace("_", "-"))
        raise click.BadParameter(why, param_hint=f"'{flag}'") from exc


@main.command()
@click.argument("combinatorics_text", metavar="COMBINATORICS")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def validate(combinatorics_text, fmt):
    """Check a combinatorics sequence; exit 0 (pass), 2 (fail), 3 (unparseable)."""
    c = _parse_or_exit(combinatorics_text)
    report = comb.validate(c)
    if fmt == "json":
        click.echo(json.dumps(report.to_dict(), indent=2))
    else:
        status = "pass" if report.passed else "fail"
        expansive = {True: "yes", False: "no", None: "n/a"}[report.expansive]
        click.echo(f"{comb.render(c)}: {status}, degree {report.total_degree}, "
                   f"expansive: {expansive}")
        for k, ok in sorted(report.conditions.items()):
            verdict = "ok" if ok else "FAIL" if k in report.REQUIRED else "not met (advisory)"
            click.echo(f"  condition {k}: {verdict}")
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
    options = _options(tol, max_iter, digits, max_digits, keep_trace=trace)
    c = _parse_or_exit(combinatorics_text)
    result = _run_or_exit(c, options)
    doc = result_document(combinatorics_text, result, options)
    if fmt == "json":
        _emit(json.dumps(doc, indent=2), out)
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
@click.option("--samples", default=201, show_default=True, type=click.IntRange(min=2),
              help="Grid sample count.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write CSV here.")
def plot(combinatorics_text, result_path, tol, max_iter, digits, max_digits, samples, out):
    """Emit CSV samples (x, f(x)) of the converged map plus its marked points."""
    options = _options(tol, max_iter, digits, max_digits)
    if result_path:
        doc = _load_result(result_path)
    elif combinatorics_text:
        c = _parse_or_exit(combinatorics_text)
        result = _run_or_exit(c, options)
        if not result.converged:
            click.echo("run did not converge; nothing to plot", err=True)
            sys.exit(EXIT_NO_CONVERGENCE)
        doc = result_document(combinatorics_text, result, options)
    else:
        raise click.UsageError("give a combinatorics sequence or --result FILE")
    if doc["coefficients"] is None:
        click.echo("document holds no polynomial", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)

    ctx, f, final, points = _plotted(doc)
    lines = ["x,f(x)"]
    for i in range(samples):
        xval = ctx.mp.mpf(i) / (samples - 1)
        lines.append(f"{ctx.format(xval, PLOT_DIGITS)},{ctx.format(f(xval), PLOT_DIGITS)}")
    lines.append("# marked,j,x,image_index,image_x,local_degree")
    for j, (xj, image) in enumerate(points):
        lines.append(
            "# marked,%d,%s,%d,%s,%d" % (
                j, ctx.format(xj, PLOT_DIGITS), final.m[j],
                ctx.format(image, PLOT_DIGITS), final.local_degree[j],
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
    """One run serves every reference row in ``keys``, which share a
    combinatorics and a tolerance."""
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
@click.option("--out", type=click.Path(dir_okay=False), help="Write JSON report here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def table(out, fmt):
    """Recompute all published reference rows and show deviations."""
    runs = {}
    for row in ROWS:
        runs.setdefault((row.combinatorics, row.run_tol), []).append(row.key)
    reports = [_run_reference_rows(tuple(keys)) for keys in runs.values()]
    order = {row.key: i for i, row in enumerate(ROWS)}
    results = sorted((r for batch in reports for r in batch), key=lambda r: order[r["key"]])

    if fmt == "json":
        _emit(json.dumps({"schema": "thurston.table.v1", "rows": results}, indent=2), out)
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
