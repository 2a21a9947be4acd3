"""Command-line interface: parsing, exit codes, report round-trips."""

import json

import numpy as np
import pytest

from ssnbilevel import cli

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
])
def test_toll_entry_missing_or_not_numeric(tmp_path, capsys, group, key,
                                           value):
    """A missing key (value None) or a non-numeric cost, bound or demand
    is a parse error (exit 2) that names the entry, not a traceback."""
    doc = _toll_doc()
    if value is None:
        del doc[group][0][key]
    else:
        doc[group][0][key] = value
    rc = cli.main(["solve", _write(tmp_path, doc)])
    assert rc == 2
    assert f"{group}[0].{key}" in capsys.readouterr().err


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
