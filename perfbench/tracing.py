"""Spans around bayespol's public functions, installed at runtime from outside.

``Tracer.install`` wraps each layer's public functions and rebinds every
name under which a bayespol module or the package looks them up (for example
``bayespol.polarization.compare`` and ``bayespol.verifier.limit``), so calls
between layers pass through the wrappers.  Spans are kept in memory as
parallel arrays (name, start, end, parent, call id, returned normally) and
written out when the benchmark ends; self times are derived from them.
"""
from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

LAYERS = (
    "cli",
    "verifier",
    "actions",
    "polarization",
    "classifier",
    "construct",
    "bayes",
    "orders",
    "core",
)

# core is wrapped only at these entry points: its other public functions
# (frac, leq, ll) are called per state and would dominate the overhead.
CORE_FUNCTIONS = ("mixture",)
CORE_BELIEF_METHODS = ("from_fractions", "from_weights", "condition", "marginal_nums")
# verifier's trial samplers are private, but sampling time is what the sweep
# workloads need to see, so they are traced under one name.
VERIFIER_SAMPLERS = ("_random_belief", "_random_likelihood", "_random_strong_pair")


def self_times(start: array, end: array, parent: array) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and the
    part of a span its children cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Spans:
    """Span records as parallel arrays, cheap enough for ~10^6 spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def write(self, path: Path) -> None:
        """Tab-separated spans, one per line, times in nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tcall\tok\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.call[i]}\t{self.ok[i]}\n"
                )


def _observe_sweep(counters: Counter, report) -> None:
    counters["verifier.trials"] += report.trials_run
    counters["verifier.hits"] += len(report.counterexamples)
    if report.config.strong:
        counters["verifier.strong_trials"] += report.trials_run


def _observe_family(counters: Counter, outcome) -> None:
    if outcome.sweep is not None:
        counters["actions.trials"] += outcome.sweep.trials


def _observe_classify(counters: Counter, report) -> None:
    counters["classifier.passes"] += int(report.can_strongly_polarize)


OBSERVERS = {
    "verifier.sweep": _observe_sweep,
    "actions.family_polarization_search": _observe_family,
    "classifier.classify": _observe_classify,
}


class Tracer:
    """Records spans while ``active``; the benchmark activates it per call."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counters: Counter = Counter()
        self.active = False
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = Spans()
        self.counters = Counter()
        self.call_id = 0

    def wrap(self, name: str, fn: Callable, by_kind: bool = False) -> Callable:
        """Wrapper recording one span per call; ``by_kind`` appends the order."""
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            label = name
            if by_kind:
                kind = args[2] if len(args) > 2 else kwargs["kind"]
                label = f"{name}.{kind.value}"
            idx = len(spans.name)
            spans.name.append(spans.name_id(label))
            spans.parent.append(stack[-1] if stack else -1)
            spans.call.append(tracer.call_id)
            spans.ok.append(0)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = time.perf_counter_ns()
                stack.pop()
            spans.ok[idx] = 1
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions wherever bayespol binds them."""
        package = importlib.import_module("bayespol")
        modules = [importlib.import_module(f"bayespol.{layer}") for layer in LAYERS]
        wrappers: dict[int, tuple[object, Callable]] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if layer == "core" and attr not in CORE_FUNCTIONS:
                    continue
                if layer == "verifier" and attr in VERIFIER_SAMPLERS:
                    wrappers[id(obj)] = (obj, self.wrap("verifier.sample", obj))
                    continue
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                by_kind = layer == "orders" and attr == "compare"
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj, by_kind))
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        belief = modules[LAYERS.index("core")].Belief
        for attr in CORE_BELIEF_METHODS:
            raw = vars(belief)[attr]
            self._undo.append((belief, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(belief, attr, staticmethod(self.wrap(f"core.{attr}", raw.__func__)))
            else:
                setattr(belief, attr, self.wrap(f"core.{attr}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, counters: Counter) -> dict[str, float]:
    """Per-layer counts, self times and waste ratios derived from the spans."""
    own = self_times(spans.start, spans.end, spans.parent)
    names = spans.names
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, nid in enumerate(spans.name):
        name = names[nid]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] += 1
            self_ns[key] += own[i]

    strong_from_verifier = compares_from_reports = certificates = 0
    for nid, p in zip(spans.name, spans.parent):
        if p < 0:
            continue
        name, parent = names[nid], names[spans.name[p]]
        if name == "orders.compare_strong_cw" and parent.startswith("verifier."):
            strong_from_verifier += 1
        elif name.startswith("orders.compare.") and parent.startswith("polarization."):
            compares_from_reports += 1
        elif name == "polarization.limit" and parent == "construct.build_polarizing_priors":
            certificates += 1
    # Share of sweep-call time spent in the spans verifier.sweep calls directly
    # (sampling and the predicates), against the whole public call around it,
    # CLI parsing and JSON output included.
    sweep_id = spans.ids.get("verifier.sweep")
    in_trials = 0
    sweep_roots = set()
    for i, (nid, p) in enumerate(zip(spans.name, spans.parent)):
        if p >= 0 and spans.name[p] == sweep_id:
            in_trials += spans.end[i] - spans.start[i]
        if nid == sweep_id:
            while spans.parent[i] >= 0:
                i = spans.parent[i]
            sweep_roots.add(i)
    sweep_ns = sum(spans.end[r] - spans.start[r] for r in sweep_roots)
    build_id = spans.ids.get("construct.build_polarizing_priors")
    builds_ok = sum(
        1 for nid, ok in zip(spans.name, spans.ok) if nid == build_id and ok
    )
    reports = calls["polarization.one_shot"] + calls["polarization.limit"]

    out: dict[str, float] = {}
    for key in [*LAYERS, "orders.compare.st", "orders.compare.uo", "orders.compare.cw",
                "orders.compare_strong_cw", "verifier.sample", "bayes.update",
                "bayes.limit_posterior", "core.mixture",
                *(f"core.{m}" for m in CORE_BELIEF_METHODS)]:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_ns[key] / 1e9
    out["verifier.trials"] = counters["verifier.trials"]
    out["verifier.hits"] = counters["verifier.hits"]
    out["verifier.strong_draws_per_trial"] = _ratio(
        strong_from_verifier, counters["verifier.strong_trials"]
    )
    out["verifier.trial_frac"] = _ratio(in_trials, sweep_ns)
    out["polarization.compares_per_report"] = _ratio(compares_from_reports, reports)
    out["construct.certificates_per_build"] = _ratio(certificates, builds_ok)
    out["classifier.pass_ratio"] = _ratio(
        counters["classifier.passes"], calls["classifier.classify"]
    )
    out["actions.trials"] = counters["actions.trials"]
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(own) / 1e9
    return out
