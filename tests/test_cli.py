import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bayespol import UpperFamilyKind, compare, limit
from bayespol.cli import ScenarioError, load_scenario, parse_scenario, run, scenario_to_doc

from conftest import DIAGONAL, MIRROR_HIGH, MIRROR_LOW

MIRROR_DOC = {
    "name": "mirror",
    "dims": [["0", "1"], ["0", "1"]],
    "prior_low": ["3/8", "1/4", "1/4", "1/8"],
    "prior_high": ["1/8", "1/4", "1/4", "3/8"],
    "identified_set": [[0, 0], [1, 1]],
    "likelihood": ["1/2", "1/2", "1/2", "1/2"],
}


@pytest.fixture
def mirror_scenario(tmp_path):
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(MIRROR_DOC))
    return str(path)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_subcommand(mirror_scenario, capsys):
    code, doc = _run_json(capsys, ["classify", mirror_scenario])
    assert code == 0
    assert doc["can_strongly_polarize"] is True
    assert doc["spanning"] and doc["complement_spanning"] and doc["balanced"]
    assert doc["states"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_update_with_constant_likelihood_returns_the_priors(mirror_scenario, capsys):
    code, doc = _run_json(capsys, ["update", mirror_scenario])
    assert code == 0
    assert doc["posterior_low"] == MIRROR_DOC["prior_low"]
    assert doc["posterior_high"] == MIRROR_DOC["prior_high"]


def test_polarize_matches_the_library_verdict(mirror_scenario, capsys):
    code, doc = _run_json(
        capsys, ["polarize", mirror_scenario, "--order", "cw", "--mode", "limit"]
    )
    assert code == 0
    expected = limit(UpperFamilyKind.UPPER_PROJECTION, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert doc["verdict"] == expected.verdict is True
    assert doc["posterior_low"] == ["3/4", "0", "0", "1/4"]
    assert doc["strictness_convention"] == "one_event"


def test_compare_subcommand_matches_library(mirror_scenario, capsys):
    code, doc = _run_json(capsys, ["compare", mirror_scenario, "--order", "st"])
    assert code == 0
    expected = compare(MIRROR_LOW, MIRROR_HIGH, UpperFamilyKind.UPPER_SET)
    assert doc["relation"] == expected.relation.value


def test_construct_subcommand(mirror_scenario, capsys):
    code, doc = _run_json(capsys, ["construct", mirror_scenario])
    assert code == 0
    assert doc["certificate"]["verdict"] is True
    masses = [F(m) for m in doc["prior_low"]]
    assert sum(masses) == 1


def test_tradeoff_table_is_exact(tmp_path, capsys):
    table = tmp_path / "curve.tsv"
    code, doc = _run_json(
        capsys, ["tradeoff", "--grid", "9", "--table", str(table)]
    )
    assert code == 0
    assert len(doc["rows"]) == 9
    for row in doc["rows"]:
        assert F(row["magnitude"]) == F(row["delta"]) / 2
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "delta\tmagnitude\tprob_identified"
    assert len(lines) == 10


def test_simulate_subcommand(tmp_path, capsys):
    doc = dict(MIRROR_DOC)
    doc["signal"] = {
        "realizations": ["a", "b"],
        "table": {
            "a": ["1/2", "1/4", "3/4", "1/2"],
            "b": ["1/2", "3/4", "1/4", "1/2"],
        },
    }
    doc["truth"] = [0, 0]
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    code, out = _run_json(
        capsys, ["simulate", str(path), "--horizon", "30", "--seed", "5"]
    )
    assert code == 0
    assert out["identified_set"] == [[0, 0], [1, 1]]
    assert len(out["table"]) == 31
    # deterministic rerun
    code2, out2 = _run_json(
        capsys, ["simulate", str(path), "--horizon", "30", "--seed", "5"]
    )
    assert out2["final_tv_to_limit"] == out["final_tv_to_limit"]


def test_sweep_subcommand(capsys):
    code, doc = _run_json(
        capsys,
        ["sweep", "--order", "uo", "--mode", "limit", "--dims", "2x2",
         "--trials", "300", "--seed", "9"],
    )
    assert code == 0
    assert doc["trials_run"] == 300
    assert doc["counterexamples_found"] == 0


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("BAYESPOL_TRIALS", "120")
    monkeypatch.setenv("BAYESPOL_SEED", "4")
    code, doc = _run_json(capsys, ["sweep", "--order", "uo", "--mode", "limit"])
    assert code == 0
    assert doc["trials_run"] == 120
    assert doc["seed"] == 4


def test_scenario_round_trip_is_canonical(mirror_scenario):
    scenario = load_scenario(mirror_scenario)
    doc = scenario_to_doc(scenario)
    again = scenario_to_doc(parse_scenario(doc))
    assert doc == again


def test_malformed_scenario_names_the_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [["0", "1"], ["0", "1"]],
                                "prior_low": ["1/2", "1/2", "0"]}))
    code = run(["update", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "prior_low" in err


def test_floats_are_rejected(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"dims": [["0", "1"], ["0", "1"]],
                                "prior_low": [0.25, 0.25, 0.25, 0.25]}))
    code = run(["update", str(path)])
    assert code == 1
    assert "p/q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value,named",
    [
        ("identified_set", [[0.9, 0], [1, 1.2]], "identified_set[0][0]"),
        ("identified_set", [[0, 0], [1, 1.2]], "identified_set[1][1]"),
        ("identified_set", [[0, 0], [True, 1]], "identified_set[1][0]"),
        ("truth", [0, 1.0], "truth[1]"),
        ("truth", [False, 0], "truth[0]"),
        ("seed", True, "seed"),
    ],
)
def test_index_fields_reject_floats_and_bools(field, value, named):
    doc = dict(MIRROR_DOC, **{field: value})
    with pytest.raises(ScenarioError, match=re.escape(f"'{named}'")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "var,value", [("BAYESPOL_TRIALS", "abc"), ("BAYESPOL_SEED", "1.5"), ("BAYESPOL_ORDER", "xx")]
)
def test_malformed_env_default_is_a_usage_error(monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--trials", "1"])
    assert exc.value.code == 2
    assert var in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["tradeoff", "--deltas", "1/0"], "--deltas"),
        (["tradeoff", "--deltas", "abc"], "--deltas"),
        (["sweep", "--dims", "3x"], "--dims"),
        (["sweep", "--dims", "3xa"], "--dims"),
    ],
)
def test_malformed_flag_value_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--trials", "1"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_domain_error_exits_one(tmp_path, capsys):
    doc = dict(MIRROR_DOC)
    doc["identified_set"] = [[0, 1], [1, 0]]  # fails the classifier gate
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    code = run(["construct", str(path)])
    assert code == 1
    assert "compensatory" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_report_out_file(mirror_scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["classify", mirror_scenario, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["can_strongly_polarize"] is True


def test_closed_reader_exits_without_a_traceback():
    # ``bayespol sweep ... | head -1``: the reader closes before the report
    # is written.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BAYESPOL_")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from bayespol.cli import main; main()",
         "sweep", "--dims", "2x2", "--trials", "50"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""
