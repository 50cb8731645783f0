"""Smoke test of the benchmark itself.

A tiny pass of each workload runs untraced and traced, every metric that
BENCHMARK.json names comes out with its unit, counts repeat exactly, and
the checker rejects a perturbed reference coefficient.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import checker
import run
import thurston
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
FAST_REFERENCE = "0,3,2,1,4"  # cubic exact: the quickest reference run


def tiny(name):
    cases = workloads.cases(name, seed=7)
    if name == "deep-digits":
        return [c for c in cases if c.text == FAST_REFERENCE]
    if name == "multimodal":
        return [c for c in cases if c.text == FAST_REFERENCE] + cases[-2:]
    return cases[:3]


def units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_reports_every_metric(name, capsys):
    cases = tiny(name)
    ledger = workloads.ledger_cases(name)[:1]
    plain = run.measure(name, 7, 0, 0, cases, ledger)
    traced = run.measure(name, 7, 0, 1, cases, ledger)
    out = capsys.readouterr().out
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["attempted"] == len(cases)
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units(kind)
        for metric, unit in units(kind).items():
            assert f"{metric} " in out and f" {unit}" in out
    assert all(f"{name} " in out for name in tracing.PRINTED_ONLY)
    assert "failure ledger" in out and "fail_frac" in out
    assert "wall_s as measured" in out and "host speed: probe median" in out
    for case in ledger:  # failing at the seed commit, so listed with its error
        assert f"  {case.text}  PullbackError: " in out
    if name == "unimodal":
        assert traced["metrics"]["critvals.invert_phi.calls"]["value"] == 0


def test_draws_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.draw("unimodal", 3) == workloads.draw("unimodal", 3)
    assert workloads.draw("unimodal", 3) != workloads.draw("unimodal", 4)
    assert workloads.digest(workloads.cases("multimodal", 3)) == workloads.digest(
        workloads.cases("multimodal", 3))


def test_draws_leave_the_ledger_out():
    for name in workloads.POPULATIONS:
        failing = set(workloads.listed("failing", name))
        assert failing and not failing & set(workloads.draw(name, 3))


def test_traced_counts_repeat_exactly():
    cases = tiny("multimodal")
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            run.solve_pass(cases, tracer)
        summary = tracer.summary()
        counts.append((summary["calls"], summary["newton_iters"], summary["poly_evals"]))
    assert counts[0] == counts[1]
    assert thurston.run is tracing.pullback.run  # patches are undone


def test_checker_rejects_a_perturbed_reference_coefficient():
    case = next(c for c in workloads.reference_cases() if c.text == FAST_REFERENCE)
    result = thurston.run(thurston.parse(case.text), case.options)
    assert checker.check(case, result) == []

    row = case.rows[0]
    bent = row.coefficients[:1] + ("6.0001",) + row.coefficients[2:]
    perturbed = dataclasses.replace(case, rows=(dataclasses.replace(row, coefficients=bent),))
    assert any("deviate" in p for p in checker.check(perturbed, result))

    slower = dataclasses.replace(case, iterations=case.iterations + 1)
    assert any("steps" in p for p in checker.check(slower, result))
