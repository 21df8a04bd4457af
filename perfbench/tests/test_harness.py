"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from array import array
from collections import Counter

import pytest

import run
import tracing
from conftest import BENCH, ROOT
from workloads import DRAWS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pinned():
    pinned = run.load_pinned()
    for workload in WORKLOADS.values():
        workload.warm_up(pinned)
    DRAWS.install()
    yield pinned
    DRAWS.uninstall()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_input_digest_follows_the_seed(name, pinned):
    workload = WORKLOADS[name]
    digest = run.input_digest(workload.inputs(3, pinned))
    assert digest == run.input_digest(workload.inputs(3, pinned))
    assert digest != run.input_digest(workload.inputs(4, pinned))


def _run_tasks(name, pinned, count):
    workload = WORKLOADS[name]
    tasks = workload.prepare(workload.inputs(0, pinned))[:count]
    rec = run.Recorder(golden=pinned["trial_digests"].get(name, []))
    for task in tasks:
        rec.run_task(workload, task)
    return rec


def test_clean_tasks_pass(pinned):
    for name in WORKLOADS:
        rec = _run_tasks(name, pinned, 8)
        assert rec.attempted > 0 and rec.failed == 0, (name, rec.problems)


def _wrong_relation(low, high, kind, *args, **kwargs):
    from bayespol.orders import DominanceVerdict, Relation

    return DominanceVerdict(Relation.EQUAL)


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


@pytest.mark.parametrize("replacement", [_wrong_relation, _raise])
def test_injected_failures_count_in_failed_frac(replacement, pinned, monkeypatch):
    import bayespol.orders

    monkeypatch.setattr(bayespol.orders, "compare", replacement)
    rec = _run_tasks("order-compare", pinned, 4)
    values, _ = run.end_to_end(rec, 1, [0.1])
    assert rec.attempted == 16
    # the three compare calls of every pair fail; compare_strong_cw stays correct
    assert rec.failed == 12
    assert values["failed_frac"] == 12 / 16


def _classify_build_tasks(pinned, count):
    tasks = WORKLOADS["classify-build"].inputs(0, pinned)[:count]
    passing = sum(passes for _, _, passes in tasks)
    assert 0 < passing < len(tasks)
    return tasks, passing


def _run_classify_build(tasks):
    workload = WORKLOADS["classify-build"]
    rec = run.Recorder()
    for task in workload.prepare(tasks):
        rec.run_task(workload, task)
    return rec


def test_build_refusing_every_set_counts(pinned, monkeypatch):
    import bayespol.construct

    def refuses(space, subset, *args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(bayespol.construct, "build_polarizing_priors", refuses)
    tasks, passing = _classify_build_tasks(pinned, 40)
    # a refusal is right on a rejected set and wrong on every pinned pass
    assert _run_classify_build(tasks).failed == passing


def test_wrong_classify_verdict_counts(pinned, monkeypatch):
    import bayespol.classifier

    real = bayespol.classifier.classify

    def rejects_all(space, subset, *args):
        report = real(space, subset, *args)
        return type(report)(**{**vars(report), "can_strongly_polarize": False})

    monkeypatch.setattr(bayespol.classifier, "classify", rejects_all)
    tasks, passing = _classify_build_tasks(pinned, 40)
    rec = _run_classify_build(tasks)
    # only classify is wrong; the builds are judged by the pinned verdicts
    assert rec.failed == passing
    assert "pinned" in rec.problems[0]


def test_changed_draws_count_without_hits(pinned, monkeypatch):
    import bayespol.verifier

    real = bayespol.verifier._random_belief

    def shifted(rng, *args):
        rng.random()
        return real(rng, *args)

    monkeypatch.setattr(bayespol.verifier, "_random_belief", shifted)
    rec = _run_tasks("strong-necessity", pinned, 4)
    # no call finds a hit, so only the recorded draws tell the streams apart
    assert rec.failed == 4
    assert all("pinned digest" in p for p in rec.problems)


def test_changed_trial_stream_counts(pinned):
    golden = ["0" * 12] * 4
    workload = WORKLOADS["strong-necessity"]
    rec = run.Recorder(golden=golden)
    for task in workload.prepare(workload.inputs(0, pinned))[:4]:
        rec.run_task(workload, task)
    assert rec.failed == 4
    assert "pinned digest" in rec.problems[0]


def test_self_times_on_a_synthetic_tree():
    # root [0, 100] with children a [10, 40] and b [50, 90]; a has c [20, 30]
    start = array("q", [0, 10, 20, 50])
    end = array("q", [100, 40, 30, 90])
    parent = array("i", [-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent) == [30, 20, 10, 40]


def test_layer_metrics_on_a_synthetic_tree():
    spans = tracing.Spans()
    # limit -> compare.cw x2 and limit_posterior -> condition; then a sample span
    rows = [
        ("polarization.limit", 0, 100, -1),
        ("orders.compare.cw", 5, 25, 0),
        ("orders.compare.cw", 30, 40, 0),
        ("bayes.limit_posterior", 50, 90, 0),
        ("core.condition", 60, 80, 3),
        ("verifier.sample", 120, 130, -1),
    ]
    for name, s, e, p in rows:
        spans.name.append(spans.name_id(name))
        spans.start.append(s * 10**9)
        spans.end.append(e * 10**9)
        spans.parent.append(p)
        spans.call.append(1)
        spans.ok.append(1)
    m = tracing.layer_metrics(spans, Counter())
    assert m["polarization.self_s"] == 30
    assert m["orders.compare.cw.calls"] == 2 and m["orders.compare.cw.self_s"] == 30
    assert m["bayes.self_s"] == 20 and m["core.condition.self_s"] == 20
    assert m["polarization.compares_per_report"] == 2
    assert m["trace.self_sum_s"] == 110
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == 110


def test_tracer_restores_every_binding():
    import bayespol
    import bayespol.core
    import bayespol.polarization

    before = (bayespol.polarization.compare, bayespol.compare, vars(bayespol.core.Belief)["condition"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bayespol.polarization.compare is not before[0]
        assert bayespol.compare is bayespol.polarization.compare
    finally:
        tracer.uninstall()
    after = (bayespol.polarization.compare, bayespol.compare, vars(bayespol.core.Belief)["condition"])
    assert after == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_fit_in_the_wall_time(name, pinned, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.setattr(workload, "trace_tasks", 6)
    tasks = workload.prepare(workload.inputs(0, pinned))
    values, passes, spans, attempted, failed, problems = run.traced_phase(
        workload, tasks, 0, pinned["trial_digests"].get(name, []), 0.0
    )
    assert passes == 1 and failed == 0, problems
    assert len(spans) > 0
    assert 0 < values["trace.self_sum_s"] <= values["trace.wall_s"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    done = _bench(ROOT, "--workload", "classify-build", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = [m for m in expected] + ([{"name": "failed_frac", "unit": "ratio"}] if trace == "0" else [])
    for m in printed:
        assert any(
            line.startswith(f"metric {m['name']} = ") and f" {m['unit']} (" in line
            for line in lines
        ), m["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(tmp_path, "--workload", "order-compare", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
