import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayespol import (
    StateSpace,
    StateSubset,
    UpperFamilyKind,
    UtilityFamilyKind,
    classify,
    compare,
    limit,
)
from bayespol import cli
from bayespol.cli import (
    ScenarioError,
    build_parser,
    load_scenario,
    parse_scenario,
    run,
    scenario_to_doc,
)

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


def test_polarize_reports_the_scenarios_action_movement(tmp_path, capsys):
    scenario = SCENARIOS / "mirror-priors-2x2.json"
    flags = ["--order", "cw", "--mode", "limit"]
    code, plain = _run_json(capsys, ["polarize", str(scenario), *flags])
    assert code == 0 and "action" not in plain
    doc = json.loads(scenario.read_text())
    path = tmp_path / "with-utility.json"
    path.write_text(json.dumps({**doc, "utility": ["0", "1", "1", "2"], "utility_family": "sums"}))
    code, report = _run_json(capsys, ["polarize", str(path), *flags])
    assert code == 0
    # E[s1 + s2]: low 3/4 -> 1/2, high 5/4 -> 3/2
    assert report.pop("action") == {
        "utility_family": "sums",
        "low_before": "3/4",
        "low_after": "1/2",
        "high_before": "5/4",
        "high_after": "3/2",
        "polarizes": True,
    }
    assert report == plain


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


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_readme_simulate_example_runs_the_noisy_diagonal_scenario(tmp_path, capsys):
    table = tmp_path / "traj.tsv"
    code, doc = _run_json(
        capsys,
        ["simulate", str(SCENARIOS / "noisy-diagonal-2x2.json"), "--horizon", "500",
         "--seed", "7", "--table", str(table)],
    )
    assert code == 0
    assert doc["seed"] == 7
    assert doc["identified_set"] == [[0, 0], [1, 1]]
    lines = table.read_text().strip().split("\n")
    assert lines[0].split("\t")[:3] == ["t", "realization", "tv_to_limit"]
    assert len(lines) == 1 + 501
    assert [line.split("\t")[0] for line in lines[1:]] == [str(t) for t in range(501)]


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


ENV_VARS = {
    "BAYESPOL_SEED": "5",
    "BAYESPOL_TRIALS": "9",
    "BAYESPOL_DENOMINATOR_BOUND": "6",
    "BAYESPOL_ORDER": "st",
    "BAYESPOL_MODE": "oneshot",
}


@pytest.fixture
def no_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def test_env_is_read_again_on_every_call(capsys, no_env):
    no_env.setenv("BAYESPOL_TRIALS", "30")
    _, first = _run_json(capsys, ["sweep", "--order", "uo"])
    no_env.setenv("BAYESPOL_TRIALS", "45")
    _, second = _run_json(capsys, ["sweep", "--order", "uo"])
    no_env.delenv("BAYESPOL_TRIALS")
    _, third = _run_json(capsys, ["sweep", "--order", "uo", "--trials", "12"])
    assert [d["trials_run"] for d in (first, second, third)] == [30, 45, 12]


def test_flags_do_not_carry_into_the_next_call(tmp_path, capsys, no_env):
    out = tmp_path / "report.json"
    argv = ["sweep", "--trials", "20", "--seed", "7", "--order", "st", "--mode", "oneshot"]
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["seed"] == 7
    code, doc = _run_json(capsys, ["sweep", "--trials", "20"])
    assert code == 0
    assert (doc["seed"], doc["order"], doc["mode"]) == (0, "cw", "limit")


def test_repeated_argv_prints_the_same_report(capsys, no_env):
    # an exhaustive sweep of a possible cell, so a counterexample is compared too
    argv = ["sweep", "--order", "cw", "--mode", "limit", "--denominator-bound", "5"]
    docs = [_run_json(capsys, argv)[1] for _ in range(2)]
    for doc in docs:
        doc.pop("elapsed_s")
        doc["table"][0][-1] = None  # the elapsed_s column
    assert docs[0]["counterexamples_found"] > 0
    assert docs[0] == docs[1]


def test_build_parser_does_not_read_the_environment(no_env):
    clean = vars(build_parser().parse_args(["sweep"]))
    for var, value in ENV_VARS.items():
        no_env.setenv(var, value)
    assert vars(build_parser().parse_args(["sweep"])) == clean
    no_env.setenv("BAYESPOL_TRIALS", "abc")
    assert vars(build_parser().parse_args(["sweep"])) == clean
    assert all(clean[flag] is None for flag in ("seed", "trials", "denominator_bound", "order", "mode"))


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
    "doc,named",
    [
        ({"dims": [[False, True], [0, 1]], "prior_low": [True, 0, 0, 0]}, "dims[0]"),
        (dict(MIRROR_DOC, dims=[["0", "1"], [0, True]]), "dims[1]"),
        (dict(MIRROR_DOC, prior_low=[True, 0, 0, 0]), "prior_low[0]"),
        (dict(MIRROR_DOC, prior_high=["1/2", "1/2", False, "0"]), "prior_high[2]"),
        (dict(MIRROR_DOC, likelihood=["1/2", True, "1/2", "1/2"]), "likelihood[1]"),
        (dict(MIRROR_DOC, utility=[0, 0, 0, True]), "utility[3]"),
    ],
)
def test_rational_fields_reject_bools(doc, named):
    with pytest.raises(ScenarioError, match=re.escape(f"'{named}'")):
        parse_scenario(doc)


# -- fuzzed scenarios ------------------------------------------------------------

_RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
_NONNEGATIVE = st.builds(F, st.integers(0, 12), st.integers(1, 6))


def _written(draw, value):
    """A rational as the JSON a user may write: a 'p/q' string or a bare int."""
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    return str(value)


@st.composite
def scenario_docs(draw):
    shape = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    size = math.prod(shape)
    states = [list(s) for s in product(*(range(n) for n in shape))]
    doc = {
        "dims": [
            [_written(draw, v) for v in sorted(draw(st.sets(_RATIONALS, min_size=n, max_size=n)))]
            for n in shape
        ]
    }
    weights = st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any)
    quarters = st.lists(st.integers(0, 4), min_size=size, max_size=size)
    if draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=8))
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**40))
    for field in ("prior_low", "prior_high"):
        if draw(st.booleans()):
            w = draw(weights)
            doc[field] = [_written(draw, F(x, sum(w))) for x in w]
    if draw(st.booleans()):
        doc["likelihood"] = [_written(draw, F(x, 4)) for x in draw(quarters.filter(any))]
    if draw(st.booleans()):
        q = draw(quarters.filter(lambda q: any(q) and not all(x == 4 for x in q)))
        doc["signal"] = {
            "realizations": ["a", "b"],
            "table": {
                "a": [_written(draw, F(x, 4)) for x in q],
                "b": [_written(draw, F(4 - x, 4)) for x in q],
            },
        }
    if draw(st.booleans()):
        picked = draw(st.sets(st.integers(0, size - 1), min_size=1))
        doc["identified_set"] = [states[f] for f in sorted(picked)]
    if draw(st.booleans()):
        doc["truth"] = draw(st.sampled_from(states))
    if draw(st.booleans()):
        # a member of the family: sums of nondecreasing per-axis parts, or
        # for products, products of nonnegative nondecreasing parts
        family = draw(st.sampled_from(list(UtilityFamilyKind)))
        products = family is UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING
        entries = _NONNEGATIVE if products else _RATIONALS
        parts = [sorted(draw(st.lists(entries, min_size=n, max_size=n))) for n in shape]
        combine = math.prod if products else sum
        values = [combine(part[i] for part, i in zip(parts, s)) for s in states]
        doc["utility"] = [_written(draw, F(v)) for v in values]
        doc["utility_family"] = family.value
    return json.loads(json.dumps(doc))


def _scalar_fields(doc):
    """``(path into doc, field name an error must give)`` for every scalar field."""
    for k, axis in enumerate(doc["dims"]):
        for i in range(len(axis)):
            yield ("dims", k, i), f"dims[{k}]"
    for field in ("prior_low", "prior_high", "likelihood", "utility", "truth"):
        for i in range(len(doc.get(field, ()))):
            yield (field, i), f"{field}[{i}]"
    for label, values in doc.get("signal", {}).get("table", {}).items():
        for i in range(len(values)):
            yield ("signal", "table", label, i), f"signal.table['{label}'][{i}]"
    for i, state in enumerate(doc.get("identified_set", ())):
        for j in range(len(state)):
            yield ("identified_set", i, j), f"identified_set[{i}][{j}]"
    if "seed" in doc:
        yield ("seed",), "seed"


# A host stall can make one draw slow; that is no fault of the scenario code.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(scenario_docs())
def test_fuzzed_scenarios_round_trip(doc):
    scenario = parse_scenario(doc)
    canonical = scenario_to_doc(scenario)
    assert json.loads(json.dumps(canonical)) == canonical
    again = parse_scenario(canonical)
    assert again == scenario
    assert scenario_to_doc(again) == canonical


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(scenario_docs(), st.data())
def test_fuzzed_floats_and_bools_are_refused_by_field(doc, data):
    path, named = data.draw(st.sampled_from(list(_scalar_fields(doc))))
    bad = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, True, False]))
    corrupted = copy.deepcopy(doc)
    owner = corrupted
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = bad
    with pytest.raises(ScenarioError, match=re.escape(f"'{named}'")):
        parse_scenario(corrupted)


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


def test_over_budget_exhaustive_sweep_exits_at_once_with_the_count(capsys):
    # C(29, 8)^2 full-support prior pairs over denominator 30 on 3x3, times
    # the 2^9 - 2 evidence sets: the sweep is refused before it starts
    code = run(["sweep", "--dims", "3x3", "--denominator-bound", "30"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 1
    assert "denominator_bound" in error
    assert f"{math.comb(29, 8) ** 2 * 510:,}" in error


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


# -- one flag set per subcommand ---------------------------------------------------

SUBCOMMAND_FLAGS = {
    "update": {"--out"},
    "compare": {"--order", "--out"},
    "classify": {"--out"},
    "construct": {"--out"},
    "polarize": {"--order", "--mode", "--out"},
    "simulate": {"--seed", "--horizon", "--table", "--out"},
    "sweep": {"--order", "--mode", "--seed", "--trials", "--denominator-bound",
              "--dims", "--table", "--out"},
    "tradeoff": {"--deltas", "--grid", "--table", "--out"},
    "table": {"--dims", "--trials", "--seed", "--table", "--out"},
    "scan": {"--dims", "--table", "--out"},
}
SCENARIO_COMMANDS = {"update", "compare", "classify", "construct", "polarize", "simulate"}
ALL_FLAGS = sorted(set().union(*SUBCOMMAND_FLAGS.values()))


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    subparsers = _subparsers()
    assert set(subparsers) == set(SUBCOMMAND_FLAGS)
    for name, sub in subparsers.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert flags == SUBCOMMAND_FLAGS[name], name
        assert positionals == (["scenario"] if name in SCENARIO_COMMANDS else []), name
    old = [n for n in SUBCOMMAND_FLAGS if n not in ("table", "scan")]
    assert sum(len(SUBCOMMAND_FLAGS[n]) for n in old) == 24


def _flag_value(flag, tmp_path):
    return {
        "--order": "st", "--mode": "limit", "--seed": "1", "--trials": "1",
        "--denominator-bound": "5", "--dims": "2x2", "--horizon": "3",
        "--deltas": "1/2", "--grid": "2", "--table": str(tmp_path / "t.tsv"),
        "--out": str(tmp_path / "o.json"),
    }[flag]


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, flags in SUBCOMMAND_FLAGS.items() for f in ALL_FLAGS if f not in flags],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
    command, flag, mirror_scenario, tmp_path, capsys, no_env
):
    argv = [command] + ([mirror_scenario] if command in SCENARIO_COMMANDS else [])
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, _flag_value(flag, tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "mirror.json"]


def test_malformed_env_is_a_usage_error_without_its_flag(mirror_scenario, capsys, no_env):
    no_env.setenv("BAYESPOL_TRIALS", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["classify", mirror_scenario])
    assert exc.value.code == 2
    assert "BAYESPOL_TRIALS" in capsys.readouterr().err


def test_env_fills_only_the_flags_a_subcommand_has(mirror_scenario, capsys, no_env):
    for var, value in ENV_VARS.items():
        no_env.setenv(var, value)
    code, doc = _run_json(capsys, ["classify", mirror_scenario])
    assert code == 0 and doc["can_strongly_polarize"] is True
    code, doc = _run_json(capsys, ["polarize", mirror_scenario])
    assert (code, doc["order"], doc["mode"]) == (0, "st", "oneshot")
    code, doc = _run_json(capsys, ["table", "--dims", "2x2"])
    assert code == 0 and doc["seed"] == 5
    assert [c["trials"] for c in doc["cells"]] == [9] * 6


@pytest.mark.parametrize("grid", ["0", "-3", "two"])
def test_tradeoff_grid_below_one_is_a_usage_error(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tradeoff", "--grid", grid])
    assert exc.value.code == 2
    assert "argument --grid" in capsys.readouterr().err


# -- strict scenario fields ----------------------------------------------------------


@pytest.mark.parametrize(
    "doc,named",
    [
        ({**MIRROR_DOC, "prior_lwo": MIRROR_DOC["prior_low"]}, "prior_lwo"),
        ({**MIRROR_DOC, "Truth": [0, 0]}, "Truth"),
        ({**MIRROR_DOC, "name": 5}, "name"),
        ({**MIRROR_DOC, "name": None}, "name"),
        ({**MIRROR_DOC, "utility_family": "sums"}, "utility_family"),
    ],
)
def test_unknown_fields_and_a_non_string_name_are_refused(doc, named):
    with pytest.raises(ScenarioError, match=re.escape(f"'{named}'")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "family,values",
    [
        (None, ["1", "0", "0", "0"]),
        ("increasing", ["1", "0", "0", "0"]),
        ("sums", ["0", "0", "0", "1"]),
        ("products", ["-1", "0", "0", "1"]),
    ],
)
def test_a_utility_outside_its_family_is_refused(family, values):
    doc = {"dims": [["0", "1"], ["0", "1"]], "utility": values}
    if family is not None:
        doc["utility_family"] = family
    with pytest.raises(ScenarioError, match="field 'utility': values do not belong"):
        parse_scenario(doc)


def test_a_misspelt_field_is_named_by_the_cli(tmp_path, capsys):
    doc = {k: v for k, v in MIRROR_DOC.items() if k != "prior_low"}
    doc["prior_lwo"] = MIRROR_DOC["prior_low"]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert run(["compare", str(path), "--order", "cw"]) == 1
    assert "'prior_lwo'" in json.loads(capsys.readouterr().err)["error"]


# -- bayespol scan -------------------------------------------------------------------


def test_scan_classifies_every_subset_and_certifies_the_passing_ones(tmp_path, capsys):
    tsv = tmp_path / "scan.tsv"
    code, doc = _run_json(capsys, ["scan", "--dims", "2x3", "--table", str(tsv)])
    assert code == 0
    space = StateSpace.grid(2, 3)
    rows = doc["subsets"]
    assert len(rows) == 62
    assert doc["passing"] == 7 == sum(r["can_strongly_polarize"] for r in rows)
    for row in rows:
        subset = StateSubset.from_states(space, [tuple(s) for s in row["identified_set"]])
        rep = classify(space, subset)
        for field in ("spanning", "complement_spanning", "biased_down", "biased_up",
                      "balanced", "compensatory", "can_strongly_polarize"):
            assert row[field] == getattr(rep, field), (row["identified_set"], field)
        if rep.can_strongly_polarize:
            assert row["certificate"] is True
            assert F(row["delta"]) > 0
        else:
            assert row["certificate"] is None and row["delta"] is None
    lines = tsv.read_text().splitlines()
    assert lines[0].split("\t") == [
        "subset", "spanning", "complement_spanning", "balanced", "compensatory",
        "passes", "certificate", "delta",
    ]
    assert len(lines) == 63
    assert sum(line.split("\t")[6] == "True" for line in lines[1:]) == 7


def test_scan_refuses_a_grid_that_is_not_two_dimensional(capsys):
    assert run(["scan", "--dims", "2x2x2"]) == 1
    assert "two dimensions" in json.loads(capsys.readouterr().err)["error"]


def test_three_dimensional_grids_are_refused_with_their_dims(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({
        "dims": [["0", "1"]] * 3, "identified_set": [[0, 0, 0], [1, 1, 1]],
    }))
    for argv in (["scan", "--dims", "2x2x2"], ["classify", str(path)],
                 ["construct", str(path)]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert "dims 2x2x2" in error, argv
        assert "proven for two-dimensional grids" in error, argv
        assert "allow_high_dim" not in captured.out + captured.err, argv


def test_a_foreign_flag_shows_the_subcommand_usage(mirror_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["classify", mirror_scenario, "--trials", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bayespol classify")
    assert "unrecognized arguments: --trials 5" in err


def _no_classify(space, subset):
    raise ValueError("classify reached")


def test_over_budget_scan_exits_at_once_with_the_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "classify", _no_classify)
    assert run(["scan", "--dims", "4x5"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "dims 4x5" in error
    assert f"{2**20 - 2:,}" in error
    # 4x4's 65,534 subsets are within the budget: the scan gets to classify
    assert run(["scan", "--dims", "4x4"]) == 1
    assert "classify reached" in capsys.readouterr().err


# -- bayespol table ------------------------------------------------------------------


def test_table_sweeps_the_six_cells_reproducibly(tmp_path, capsys, no_env):
    tsv = tmp_path / "table.tsv"
    argv = ["table", "--dims", "2x2", "--trials", "300", "--table", str(tsv)]
    docs, tables = [], []
    for _ in range(2):
        code, doc = _run_json(capsys, argv)
        assert code == 0
        for cell in doc["cells"]:
            cell.pop("elapsed_s")
        docs.append(doc)
        tables.append([line.split("\t")[:-1] for line in tsv.read_text().splitlines()])
    assert docs[0] == docs[1] and tables[0] == tables[1]
    cells = docs[0]["cells"]
    assert [(c["order"], c["mode"]) for c in cells] == [
        (o, m) for o in ("cw", "uo", "st") for m in ("oneshot", "limit")
    ]
    assert all(c["trials"] == 300 for c in cells)
    assert [c["hits"] for c in cells if c["expected"] == "impossible"] == [0, 0, 0]
    assert [c["expected"] for c in cells].count("impossible") == 3
    assert tables[0][0] == ["order", "mode", "expected", "trials", "hits"]
    assert len(tables[0]) == 7


def test_a_hit_in_an_impossible_cell_is_an_internal_error(capsys, monkeypatch, no_env):
    # seed 0 finds a CW one-shot instance on 2x2 in 300 trials; declare the
    # cell impossible and the table must refuse the result
    cells = [(o, m, "impossible") for o, m, _ in cli.TABLE_CELLS]
    monkeypatch.setattr(cli, "TABLE_CELLS", cells)
    assert run(["table", "--dims", "2x2", "--trials", "300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cw oneshot (1 of 300 trials)" in json.loads(captured.err)["error"]
