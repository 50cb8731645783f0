"""Command-line surface: exit codes, document schema, plot format, table."""

import json

import pytest
from click.testing import CliRunner

from thurston import cli
from thurston._table import ROWS


def invoke(*args, env=None):
    return CliRunner().invoke(cli.main, list(args), env=env, catch_exceptions=False)


# ---------------------------------------------------------------- validate

def test_validate_pass():
    result = invoke("validate", "0,4,3,1,2,5")
    assert result.exit_code == 0
    assert "degree 3" in result.output
    assert "expansive: yes" in result.output


def test_validate_warns_on_non_expansive():
    result = invoke("validate", "0,4,3,2,1,2,0")
    assert result.exit_code == 0
    assert "edge [2,3] is not expansive" in result.output


def test_validate_prints_advisory_conditions_as_advisory():
    # x2 of 0,3,2,1,4 is neither critical nor postcritical: condition 5 is
    # not met, but it is advisory and the sequence passes
    result = invoke("validate", "0,3,2,1,4")
    assert result.exit_code == 0
    assert "0,3,2,1,4: pass" in result.output
    assert "condition 5: not met (advisory)" in result.output
    assert "FAIL" not in result.output


def test_validate_hard_failure():
    result = invoke("validate", "1,2,0")
    assert result.exit_code == 2
    assert "FAIL" in result.output


def test_validate_parse_failure():
    assert invoke("validate", "0,,1").exit_code == 3


def test_validate_json():
    result = invoke("validate", "0,4,3,1,2,5", "--format", "json")
    doc = json.loads(result.output)
    assert doc["passed"] is True and doc["total_degree"] == 3


# ---------------------------------------------------------------- run

def test_run_emits_document():
    result = invoke("run", "0,3,2,1,4", "--tol", "1e-12")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == "thurston.run.v1"
    assert doc["converged"] is True
    coeffs = [float(s) for s in doc["coefficients"]]
    for got, want in zip(coeffs, (0, 6, -15, 10)):
        assert abs(got - want) < 1e-9
    # all numbers are strings, none are binary floats
    assert all(isinstance(s, str) for s in doc["coefficients"])
    assert all(isinstance(s, str) for s in doc["marked_points"])
    # framing: coefficients sum to the image of the right endpoint
    assert abs(sum(coeffs) - 1) < 10 * float(doc["fit_error"]) + 1e-12


def test_run_document_round_trips(tmp_path):
    out = tmp_path / "result.json"
    result = invoke("run", "0,1,0", "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    doc = json.loads(text)
    assert json.loads(json.dumps(doc)) == doc
    assert text == json.dumps(doc, indent=2) + "\n"


def test_run_reports_collapse():
    result = invoke("run", "0,4,3,2,1,2,0")
    doc = json.loads(result.output)
    assert doc["collapse"] and doc["collapse"][0]["after"] == "0,3,2,1,2,0"
    assert doc["combinatorics"] == "0,3,2,1,2,0"


@pytest.mark.parametrize("command", ["run", "plot"])
def test_run_invalid_exit_code(command):
    result = invoke(command, "1,2,0")
    assert result.exit_code == 2
    # stderr names the failed condition: endpoints must map to endpoints
    assert "invalid combinatorics" in result.output and "3" in result.output


@pytest.mark.parametrize("command", ["run", "plot"])
def test_run_failure_exit_code(command):
    # collapses onto a combinatorics that fails validation
    result = invoke(command, "0,1,2,0,1,0")
    assert result.exit_code == 4
    assert "run failed: step 24: merged combinatorics 0,1,0^2,0^2,0 is invalid" in result.output


@pytest.mark.parametrize("command", ["run", "plot"])
@pytest.mark.parametrize("args, env, option", [
    (["--digits", "10"], None, "--digits"),
    (["--digits", "14"], None, "--digits"),
    (["--tol", "abc"], None, "--tol"),
    (["--tol", "-1"], None, "--tol"),
    (["--tol", "0"], None, "--tol"),
])
def test_run_options_out_of_range_are_usage_errors(command, args, env, option):
    result = invoke(command, "0,3,2,1,4", *args, env=env)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("command", ["run", "plot"])
@pytest.mark.parametrize("args, env, option", [
    (["--max-iter", "0"], None, "--max-iter"),
    (["--max-iter", "-3"], None, "--max-iter"),
    (["--max-digits", "5"], None, "--max-digits"),
    (["--max-digits", "25", "--digits", "30"], None, "--max-digits"),
    (["--digits", "30", "--max-digits", "25"], None, "--max-digits"),
    (["--digits", "35", "--max-digits", "30"], None, "--max-digits"),
])
def test_run_iteration_and_precision_caps_are_range_checked(command, args, env, option):
    result = invoke(command, "0,3,2,1,4", *args, env=env)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output


def test_plot_checks_its_run_options_before_it_reads_a_stored_result(tmp_path):
    path = tmp_path / "res.json"
    invoke("run", "0,1,0", "--out", str(path))
    result = invoke("plot", "--result", str(path), "--tol", "abc")
    assert result.exit_code == 2
    assert "Invalid value for '--tol'" in result.output


@pytest.mark.parametrize("command", ["run", "plot"])
def test_run_precision_ceiling_may_equal_the_start(command):
    result = invoke(command, "0,1,0", "--digits", "30", "--max-digits", "30", "--max-iter", "1")
    assert result.exit_code == 0


def test_run_non_convergence_exit_code():
    result = invoke("run", "0,4,3,1,2,5", "--max-iter", "2")
    assert result.exit_code == 4


def test_run_trace():
    result = invoke("run", "0,3,2,1,4", "--trace")
    doc = json.loads(result.output)
    assert len(doc["trace"]) == doc["iterations"]
    assert doc["trace"][0]["step"] == 1


# ---------------------------------------------------------------- plot

def test_plot_samples_and_marked_block():
    result = invoke("plot", "0,1,0", "--samples", "3")
    lines = result.output.strip().splitlines()
    assert lines[0] == "x,f(x)"
    assert lines[1].startswith("0.0,")
    xs = [line.split(",") for line in lines[1:4]]
    assert abs(float(xs[1][0]) - 0.5) < 1e-15
    assert abs(float(xs[1][1]) - 0.5) < 1e-9
    assert abs(float(xs[2][1])) < 1e-9
    marked = [line for line in lines if line.startswith("# marked,")]
    # the interior marked point: x=0.5 with image index 1
    assert any(part.startswith("# marked,1,0.5") and ",1," in part for part in marked)


def test_plot_from_stored_document(tmp_path):
    out = tmp_path / "res.json"
    invoke("run", "0,3,2,1,4", "--out", str(out))
    result = invoke("plot", "--result", str(out), "--samples", "5")
    lines = result.output.strip().splitlines()
    assert lines[0] == "x,f(x)"
    samples = [line for line in lines if not line.startswith("#")][1:]
    assert len(samples) == 5
    assert abs(float(samples[-1].split(",")[1]) - 1.0) < 1e-9  # f(1) = 1


@pytest.mark.parametrize("text,problem", [
    ("not a document", "is not JSON"),
    ('{"coefficients": ["0", "1"]}', "no working_digits, combinatorics, marked_points"),
    ('["0", "1"]', "is not a result document"),
])
def test_plot_rejects_a_stored_file_that_is_not_a_result_document(tmp_path, text, problem):
    path = tmp_path / "d.json"
    path.write_text(text)
    result = invoke("plot", "--result", str(path))
    assert result.exit_code == 2
    assert problem in result.output


@pytest.mark.parametrize("field,change", [
    ("coefficients", lambda doc: ["abc"] + doc["coefficients"][1:]),
    ("coefficients", lambda doc: ["inf"] + doc["coefficients"][1:]),
    ("working_digits", lambda doc: "x"),
    ("combinatorics", lambda doc: "0,9,1"),
    ("marked_points", lambda doc: doc["marked_points"] + ["1"]),
    ("marked_points", lambda doc: doc["marked_points"][:-1]),
    ("marked_points", lambda doc: doc["marked_points"][:-1] + ["nan"]),
    ("coefficients", lambda doc: "123"),
    ("coefficients", lambda doc: {"0": 1, "4": 2}),
    ("working_digits", lambda doc: True),
    ("marked_points", lambda doc: "0" * len(doc["marked_points"])),
    ("coefficients", lambda doc: [True] + doc["coefficients"][1:]),
    ("coefficients", lambda doc: doc["coefficients"][:-1] + [0.1]),
    ("marked_points", lambda doc: doc["marked_points"][:-1] + [True]),
    ("marked_points", lambda doc: [0] + doc["marked_points"][1:]),
    ("marked_points", lambda doc: doc["marked_points"][:-1] + [None]),
], ids=["coefficient abc", "coefficient inf", "digits x", "combinatorics", "one more point",
        "one point fewer", "point nan", "coefficients string", "coefficients object",
        "digits true", "points string", "coefficient true", "coefficient number",
        "point true", "point number", "point null"])
def test_plot_names_a_malformed_field_of_a_stored_document(tmp_path, field, change):
    path = tmp_path / "res.json"
    invoke("run", "0,3,2,1,4", "--out", str(path))
    doc = json.loads(path.read_text())
    doc[field] = change(doc)
    path.write_text(json.dumps(doc))
    result = invoke("plot", "--result", str(path))
    assert result.exit_code == 2
    assert f"malformed {field}" in result.output


@pytest.mark.parametrize("samples", ["1", "-3"])
def test_plot_refuses_fewer_than_two_samples(samples):
    result = CliRunner().invoke(cli.main, ["plot", "0,1,0", "--samples", samples])
    assert result.exit_code == 2
    assert "--samples" in result.output


# ---------------------------------------------------------------- table

def test_table_runs_all_reference_rows():
    result = invoke("table", "--format", "json")
    doc = json.loads(result.output)
    assert result.exit_code == 0
    rows = {r["key"]: r for r in doc["rows"]}
    assert all(r["ok"] for r in rows.values())

    def dev(key):
        return float(rows[key]["max_deviation"])

    assert dev("cubic exact") < 1e-9
    assert dev("cubic-period4") < 1e-6
    assert dev("quintic limit") < 1e-4
    assert dev("quintic step 1") < 1e-4
    assert dev("degree 6") < 1e-6
    assert dev("collapse quartic") < 1e-6
    assert dev("collapse sextic") < 1e-5
    # the flagged row: deviation is dominated by the reference misprint
    assert 19 < dev("degree 7") < 21
    assert "framing-inconsistent" in rows["degree 7"]["note"]
    assert rows["collapse quartic"]["collapse"] == ["0,3,2,1,2,0"]
    assert rows["collapse sextic"]["collapse"] == ["0,4,0,1,0,6,0"]


def test_table_keeps_row_order_when_one_run_fails(monkeypatch):
    failing = ROWS[0].combinatorics
    run = cli.pullback.run

    def sometimes(c, options):
        if cli.comb.render(c) == failing:
            raise cli.pullback.PullbackError("no luck")
        return run(c, options)

    monkeypatch.setattr(cli.pullback, "run", sometimes)
    result = invoke("table", "--format", "json")
    rows = json.loads(result.output)["rows"]
    assert result.exit_code == 4
    assert [r["key"] for r in rows] == [row.key for row in ROWS]
    assert all(r["ok"] == (row.combinatorics != failing) for r, row in zip(rows, ROWS))
