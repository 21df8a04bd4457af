"""The benchmark harness hooks library functions by name; those names must resolve.

``perfbench/tracing.py`` wraps the verifier's private samplers and some
``Belief`` methods by name, and ``perfbench/workloads.py`` records every
trial through ``verifier.one_shot``, ``verifier.limit`` and
``actions._all_basis_movements_polarize``.  A rename in ``src/`` would leave
the traced benchmark silently blind, so it fails here instead.  Both files
are loaded by path and used as they are.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bayespol.core import Belief

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    # workloads.py imports its sibling oracle.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return _load("tracing", monkeypatch)


@pytest.fixture
def workloads(monkeypatch):
    return _load("workloads", monkeypatch)


def test_traced_names_resolve(tracing):
    modules = {layer: importlib.import_module(f"bayespol.{layer}") for layer in tracing.LAYERS}
    for name in tracing.VERIFIER_SAMPLERS:
        assert callable(vars(modules["verifier"]).get(name)), f"verifier.{name}"
    for name in tracing.CORE_FUNCTIONS:
        assert callable(vars(modules["core"]).get(name)), f"core.{name}"
    for name in tracing.CORE_BELIEF_METHODS:
        assert name in vars(Belief), f"Belief.{name}"


def test_tracer_wraps_every_sampler_and_restores_it(tracing):
    verifier = importlib.import_module("bayespol.verifier")
    before = {name: vars(verifier)[name] for name in tracing.VERIFIER_SAMPLERS}
    methods = {name: vars(Belief)[name] for name in tracing.CORE_BELIEF_METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in before.items():
            assert vars(verifier)[name] is not fn, f"verifier.{name} is not traced"
    finally:
        tracer.uninstall()
    assert {name: vars(verifier)[name] for name in before} == before
    assert {name: vars(Belief)[name] for name in methods} == methods


def test_draw_log_hooks_resolve(workloads):
    log = workloads.DrawLog()
    log.install()
    try:
        hooked = [(owner.__name__, attr, original) for owner, attr, original in log._undo]
    finally:
        log.uninstall()
    assert sorted((owner, attr) for owner, attr, _ in hooked) == [
        ("bayespol.actions", "_all_basis_movements_polarize"),
        ("bayespol.verifier", "limit"),
        ("bayespol.verifier", "one_shot"),
    ]
    for owner, attr, original in hooked:
        assert callable(original)
        assert getattr(sys.modules[owner], attr) is original
