"""Command-line interface: parsing, exit codes, report round-trips."""

import json

import numpy as np
import pytest

from ssnbilevel import PenaltyParams, certify, cli

from conftest import make_ex_box, root_ex_box


def _box_doc(with_start=True, alpha=30.0):
    """JSON document for the box desk example, optionally started at its
    known root so `solve` converges immediately."""
    doc = {
        "kind": "generic",
        "D": [[-1.0], [1.0]], "d": [-1.0, 2.0],
        "A": [[-1.0], [1.0]], "b": [0.0, 2.0],
        "objective": {"Qxx": [[-6.0]], "Qxy": [[10.0]], "Qyy": [[-6.0]]},
        "params": {"alpha": alpha},
    }
    if with_start:
        u = root_ex_box(alpha)
        doc["start"] = {name: getattr(u, name).tolist()
                        for name in cli.START_KEYS}
    return doc


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_generic_converges(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    out = str(tmp_path / "report.json")
    rc = cli.main(["solve", path, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "status: converged" in text
    report = cli.report_from_json((tmp_path / "report.json").read_text())
    assert report.converged
    assert report.final_u.x[0] == pytest.approx(2.0)
    assert report.iterates == report.iterates  # tuples survived the trip
    assert report.alpha == 30.0


def test_solve_nonconvergence_exit_code(tmp_path):
    doc = _box_doc(with_start=False)
    doc["params"]["max_iter"] = 1
    path = _write(tmp_path, doc)
    rc = cli.main(["solve", path])
    assert rc == 1


def test_malformed_json_reports_byte_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "generic", }')
    rc = cli.main(["solve", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "byte offset" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    doc = _box_doc()
    doc["extra_field"] = 1
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err

    doc = _box_doc()
    doc["params"]["gamma"] = 2.0
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2


def test_missing_kind_and_missing_matrix(tmp_path, capsys):
    rc = cli.main(["solve", _write(tmp_path, {"kind": "other"})])
    assert rc == 2
    doc = _box_doc()
    del doc["A"]
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert "missing 'A'" in capsys.readouterr().err


def test_nonfinite_entries_rejected(tmp_path):
    doc = _box_doc()
    doc["b"] = [0.0, None]  # json null -> nan
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2


def test_objective_const_not_finite(tmp_path, capsys):
    """A const that reads as nan is a parse error (exit 2), not a solve
    with F = nan and a report that is not valid JSON."""
    doc = _box_doc()
    doc["objective"]["const"] = "nan"
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert "objective.const: not finite" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    (None, "A", "abc"),
    (None, "A", [[-1.0], [1.0, 2.0]]),
    (None, "b", {"lo": 0.0}),
    ("objective", "Qxx", "x"),
    ("objective", "kx", [[1.0], [1.0, 2.0]]),
    ("objective", "const", "x"),
], ids=["A-text", "A-ragged", "b-object", "Qxx-text", "kx-ragged",
        "const-text"])
def test_matrix_not_numeric_rejected(tmp_path, capsys, block, key, value):
    """A non-numeric or ragged matrix is a parse error (exit 2) that
    names its key, not a traceback."""
    doc = _box_doc()
    (doc if block is None else doc[block])[key] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "not a num" in err


@pytest.mark.parametrize("block, value", [
    ("Qxx", [[1.0, 0.0], [0.0, 1.0]]),
    ("kx", [1.0, 2.0]),
])
def test_objective_block_shape_rejected(tmp_path, capsys, block, value):
    """A one-column A fixes n = 1, so a 2x2 Q block or a length-2
    linear term is a validation failure (exit 2), not a crash."""
    doc = _box_doc()
    doc["objective"][block] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert f"objective.{block}" in capsys.readouterr().err


def test_param_flags_override_file(tmp_path, capsys):
    path = _write(tmp_path, _box_doc(alpha=30.0))
    rc = cli.main(["solve", path, "--alpha", "31.0", "--max-iter", "5"])
    # the stored start is a root for alpha = 30 only, so the run iterates
    out = capsys.readouterr().out
    assert "alpha = 31" in out
    assert rc in (0, 1)


def test_alpha_schedule_flag(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    rc = cli.main(["solve", path, "--alpha-schedule", "30,60"])
    assert rc == 0
    assert "accepted" in capsys.readouterr().out

    rc = cli.main(["solve", path, "--alpha-schedule", "abc"])
    assert rc == 2


@pytest.mark.parametrize("schedule, reason", [
    ("10,1", "strictly increasing"),
    ("1,1", "strictly increasing"),
    ("0,1", "finite and positive"),
    ("-1,1", "finite and positive"),
    ("1,inf", "finite and positive"),
    ("nan", "finite and positive"),
])
def test_alpha_schedule_rejected(tmp_path, capsys, schedule, reason):
    """A schedule that is not finite, positive and strictly increasing
    is a parse error (exit 2), not a traceback or a solve at alpha inf."""
    path = _write(tmp_path, _box_doc())
    rc = cli.main(["solve", path, f"--alpha-schedule={schedule}"])
    assert rc == 2
    assert reason in capsys.readouterr().err


def test_verify_agrees_on_box_example(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    rc = cli.main(["verify", path, "--alpha-schedule", "30,100"])
    out = capsys.readouterr().out
    assert "brute force: F = -12" in out
    assert "verdict: agree" in out
    assert rc == 0


def test_verify_dim_cap(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    rc = cli.main(["verify", path, "--dim-cap", "2"])
    assert rc == 3
    assert "exceeds" in capsys.readouterr().out


def test_check_jacobian(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    rc = cli.main(["check-jacobian", path, "--points", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finite differences" in out


def test_toll_kind_and_preset(tmp_path, capsys):
    doc = {
        "kind": "toll",
        "nodes": [1, 2, 3],
        "arcs": [
            {"tail": 1, "head": 2, "cost": 1.0, "tolled": True},
            {"tail": 2, "head": 3, "cost": 1.0},
            {"tail": 1, "head": 3, "cost": 4.0},
        ],
        "od": [{"origin": 1, "destination": 3, "demand": 1.0}],
        "params": {"alpha": 5.0, "max_iter": 60},
    }
    rc = cli.main(["solve", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "revenue" in out
    assert rc in (0, 1)

    rc = cli.main(["solve", "--preset", "network1", "--max-iter", "3"])
    out = capsys.readouterr().out
    assert "alpha = 0.45" in out
    assert rc == 1  # the benchmark start is far from any residual root


def _toll_doc():
    return {
        "kind": "toll",
        "nodes": [1, 2, 3],
        "arcs": [
            {"tail": 1, "head": 2, "cost": 1.0, "tolled": True},
            {"tail": 2, "head": 3, "cost": 1.0},
            {"tail": 1, "head": 3, "cost": 4.0},
        ],
        "od": [{"origin": 1, "destination": 3, "demand": 1.0}],
    }


@pytest.mark.parametrize("group, key, value", [
    ("arcs", "cost", None), ("arcs", "tail", None), ("arcs", "head", None),
    ("od", "origin", None), ("od", "destination", None),
    ("arcs", "cost", "cheap"), ("arcs", "toll_lb", "low"),
    ("od", "demand", "lots"), ("od", "demand", [1.0]),
    ("arcs", "cost", "nan"), ("arcs", "toll_lb", "inf"),
    ("od", "demand", "inf"),
])
def test_toll_entry_missing_or_not_numeric(tmp_path, capsys, group, key,
                                           value):
    """A missing key (value None) or a non-numeric or non-finite cost,
    bound or demand is a parse error (exit 2) that names the entry, not
    a traceback or a solve that prints a toll of nan."""
    doc = _toll_doc()
    if value is None:
        del doc[group][0][key]
    else:
        doc[group][0][key] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert f"{group}[0].{key}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, params", [
    (["--delta", "inf"], {}),
    (["--alpha", "inf"], {}),
    (["--t1", "inf"], {}),
    (["--eps", "nan"], {}),
    ([], {"delta": float("inf")}),  # written as JSON Infinity
    ([], {"t": [0.045, float("inf"), 0.025, 0.005, 0.0025]}),
], ids=["delta-flag", "alpha-flag", "t1-flag", "eps-flag", "delta-file",
        "t-file"])
def test_nonfinite_params_rejected(tmp_path, capsys, flags, params):
    """A non-finite parameter from a flag or the file is a validation
    failure (exit 2), not a solve that reports convergence at once or
    writes NaN into the report."""
    doc = _box_doc()
    doc["params"].update(params)
    rc = cli.main(["solve", _write(tmp_path, doc), *flags])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    ({"max_iter": 1.5}, "integer"),
    ({"max_iter": True}, "not a bool"),
    ({"alpha": True}, "not a bool"),
    ({"beta": False}, "not a bool"),
], ids=["max_iter-fraction", "max_iter-bool", "alpha-bool", "beta-bool"])
def test_non_integer_or_bool_params_rejected(tmp_path, capsys, params,
                                             message):
    """A fractional or boolean max_iter and a boolean scalar in the file
    are validation failures (exit 2), not a run at a rounded or unit
    value."""
    doc = _box_doc()
    doc["params"].update(params)
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value, context", [
    ("toll", "arcs", [5], "arcs[0]: must be an object"),
    ("toll", "od", [5], "od[0]: must be an object"),
    ("toll", "arcs", 5, "arcs: must be a list"),
    ("toll", "od", {"origin": 1}, "od: must be a list"),
    ("toll", "nodes", 5, "nodes: must be a list"),
    ("generic", "params", 5, "params: must be an object"),
    ("generic", "objective", 3, "objective: must be an object"),
    ("generic", "start", [1, 2], "start: must be an object"),
], ids=["arc", "od-pair", "arcs", "od", "nodes", "params", "objective",
        "start"])
def test_block_of_wrong_json_type(tmp_path, capsys, kind, key, value,
                                  context):
    """A block or list of the wrong JSON type is a parse error (exit 2)
    that names it, not a traceback."""
    doc = _toll_doc() if kind == "toll" else _box_doc()
    doc[key] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert f":{context}" in capsys.readouterr().err


@pytest.mark.parametrize("block, value", [
    ("lam1", [0.0, 12.0, 1.0]),  # length 3 where D has 2 rows
    ("lam7", None),  # missing
])
def test_start_block_wrong_length_or_missing(tmp_path, capsys, block,
                                             value):
    doc = _box_doc()
    if value is None:
        del doc["start"][block]
    else:
        doc["start"][block] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert block in capsys.readouterr().err


def test_check_jacobian_needs_a_point(tmp_path, capsys):
    path = _write(tmp_path, _box_doc())
    for points in ("0", "-3"):
        rc = cli.main(["check-jacobian", path, "--points", points])
        assert rc == 2
        assert "--points" in capsys.readouterr().err


def test_toll_no_path_is_parse_error(tmp_path, capsys):
    doc = {
        "kind": "toll",
        "nodes": [1, 2],
        "arcs": [{"tail": 2, "head": 1, "cost": 1.0}],
        "od": [{"origin": 1, "destination": 2}],
    }
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert "no directed path" in capsys.readouterr().err


def test_report_json_round_trip(tmp_path):
    path = _write(tmp_path, _box_doc())
    out = str(tmp_path / "rep.json")
    assert cli.main(["solve", path, "--out", out]) == 0
    report = cli.report_from_json((tmp_path / "rep.json").read_text())
    assert report.status == "converged"
    assert report.residual_norm <= 1e-6
    for name in cli.START_KEYS:
        assert getattr(report.final_u, name).ndim == 1


def _exhausted_doc():
    """Box instance whose penalized residual has a root with pi = 0.6 at
    every weight of the schedule 0.5, 1, 2, so a continuation from the
    default start converges at each stage and exhausts the schedule."""
    return {
        "kind": "generic",
        "D": [[-1.0], [1.0]], "d": [0.6, 1.2],
        "A": [[-1.0], [1.0]], "b": [1.6, 0.7],
        "objective": {"Qxx": [[-0.5]], "Qxy": [[0.4]], "Qyy": [[-2.75]],
                      "kx": [2.9], "ky": [-0.85]},
    }


def _solve_out(tmp_path, doc, *flags):
    """Run solve with --out; return its exit code, report document and
    the certificates certify gives at the report's final iterate and
    weight, as they read after a JSON round trip."""
    out = tmp_path / "rep.json"
    rc = cli.main(["solve", _write(tmp_path, doc), "--out", str(out),
                   *flags])
    text = out.read_text()
    report = cli.report_from_json(text)
    problem, _, file_params, _ = cli.load_problem_file(
        str(tmp_path / "problem.json"))
    params = PenaltyParams(**file_params).with_alpha(report.alpha)
    expected = json.loads(json.dumps(certify(problem, report.final_u,
                                             params)))
    return rc, json.loads(text), expected


def test_solve_out_carries_certificates(tmp_path):
    rc, doc, expected = _solve_out(tmp_path, _box_doc())
    assert rc == 0
    assert set(doc["certificates"]) == {"index_sets", "theorem_invertibleA",
                                        "theorem_fullrank_yy", "probe"}
    assert doc["certificates"] == expected


def test_solve_out_without_convergence_has_no_certificates(tmp_path):
    box = _box_doc(with_start=False)
    box["params"]["max_iter"] = 1
    rc, doc, _ = _solve_out(tmp_path, box)
    assert rc == 1
    assert doc["status"] == "max_iter"
    assert doc["certificates"] == {}


def test_alpha_schedule_certifies_final_weight(tmp_path):
    """The certificates belong to the weight the schedule ended at (1 for
    the box root, not the file's 30), also when the schedule is
    exhausted after a converged last stage."""
    rc, doc, expected = _solve_out(tmp_path, _box_doc(), "--alpha-schedule",
                                   "1,10,100")
    assert rc == 0 and doc["alpha"] == 1.0
    assert doc["certificates"] == expected
    u = cli.report_from_json(json.dumps(doc)).final_u
    at_file_alpha = certify(make_ex_box(), u, PenaltyParams(alpha=30.0))
    assert doc["certificates"]["probe"] != at_file_alpha["probe"]

    rc, doc, expected = _solve_out(tmp_path, _exhausted_doc(),
                                   "--alpha-schedule", "0.5,1,2")
    assert rc == 1
    assert doc["status"] == "schedule_exhausted" and doc["alpha"] == 2.0
    assert doc["residual_norm"] <= 1e-6
    assert doc["certificates"] and doc["certificates"] == expected


def test_solve_nonfinite_start_writes_strict_json(tmp_path, capsys):
    """At alpha = 1e300 the preset's start residual overflows: solve
    stops at once with a status naming it (it used to report a line
    search stall) and --out writes strict JSON, the infinite norm as
    null, which report_from_json reads back as NaN."""
    out = tmp_path / "o.json"
    with np.errstate(over="ignore"):
        rc = cli.main(["solve", "--preset", "network1", "--alpha", "1e300",
                       "--max-iter", "3", "--out", str(out)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "status: nonfinite_residual (residual not finite" in text
    assert "linesearch_stall" not in text

    def refuse(constant):
        raise AssertionError(f"{constant} is not strict JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert doc["status"] == "nonfinite_residual" and not doc["converged"]
    assert doc["residual_norm"] is None and doc["iterations"] == 0
    assert doc["iterates"] == [[0, None, None, "initial", 0.0]]
    assert doc["alpha"] == 1e300 and doc["certificates"] == {}
    report = cli.report_from_json(out.read_text())
    assert report.status == "nonfinite_residual" and not report.converged
    assert np.isnan(report.residual_norm)
