"""Command-line surface: scenario files in, reports and tables out.

Scenario files are JSON.  Rationals are written as "p/q" strings end to end
(never floats), priors are row-major mass vectors over the state grid with
the last axis fastest, and every report echoes the state order it assumed.
Reports are JSON documents on stdout; tabular results (trajectories, sweep
summaries, tradeoff curves, the possibility table, subset scans) also ship
as tab-separated tables via --table.

Each subcommand takes only the flags it reads (``_COMMANDS``); any other
flag is a usage error that names it, under the subcommand's own usage line.
``table`` sweeps the six order x mode cells, and a hit in a cell the paper
proves impossible is an internal error.  ``scan`` classifies every proper
nonempty subset of a 2-D grid and builds and certifies the priors of each
subset that passes.  The library's ``classify`` refuses a grid that is not
two-dimensional, where the characterization is not proven; ``scan``,
``classify`` and ``construct`` exit 1 with its error, which names the dims.

Exit status: 0 on success, 1 on domain errors (including malformed scenario
content, reported with the offending field named), 2 on usage errors.

Environment overrides, mirroring the flags: BAYESPOL_SEED, BAYESPOL_TRIALS,
BAYESPOL_DENOMINATOR_BOUND, BAYESPOL_ORDER, BAYESPOL_MODE.  All five are
read on every ``run`` call and fill in the flags the subcommand has and left
unset, so a change between two calls in one process takes effect.  A
malformed value is a usage error that names the variable, even when its
flag is given or the subcommand has no such flag.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .actions import UtilityFamilyKind, UtilityFn, action_polarizes, tradeoff_curve
from .bayes import LikelihoodFn, Signal, identified_set, simulate, update
from .classifier import ClassificationReport, classify
from .construct import build_polarizing_priors
from .core import Belief, StateSpace, StateSubset, frac
from .orders import StrongCwVerdict, UpperFamilyKind, compare
from .polarization import Mode, PolarizationReport, limit, one_shot
from .verifier import SweepConfig, sweep

ENV_PREFIX = "BAYESPOL_"

_ORDER_BY_FLAG = {
    "st": UpperFamilyKind.UPPER_SET,
    "uo": UpperFamilyKind.UPPER_ORTHANT,
    "cw": UpperFamilyKind.UPPER_PROJECTION,
}
_MODE_BY_FLAG = {"oneshot": Mode.ONE_SHOT, "limit": Mode.LIMIT}


class ScenarioError(ValueError):
    """Malformed scenario content; the message names the offending field."""


# ---------------------------------------------------------------------------
# Scenario parsing and serialization
# ---------------------------------------------------------------------------


def _rationals(values) -> list[str]:
    """Rationals as "p/q" strings ("p" for integers)."""
    return [str(v) for v in values]


def _indices(states) -> list[list[int]]:
    """States as index lists."""
    return [list(s) for s in states]


@dataclass
class Scenario:
    space: StateSpace
    name: Optional[str] = None
    seed: Optional[int] = None
    prior_low: Optional[Belief] = None
    prior_high: Optional[Belief] = None
    likelihood: Optional[LikelihoodFn] = None
    signal: Optional[Signal] = None
    identified: Optional[StateSubset] = None
    truth: Optional[tuple[int, ...]] = None
    utility: Optional[UtilityFn] = None


def _parse_fraction(raw, field: str) -> Fraction:
    if isinstance(raw, float):
        raise ScenarioError(f"field '{field}': floats are not accepted, write 'p/q'")
    try:
        return frac(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"field '{field}': bad rational {raw!r}") from exc


def _parse_mass_vector(raw, field: str, space: StateSpace) -> list[Fraction]:
    if not isinstance(raw, list):
        raise ScenarioError(f"field '{field}': expected a list of 'p/q' strings")
    if len(raw) != space.size:
        raise ScenarioError(
            f"field '{field}': expected {space.size} entries (row-major, last axis fastest), got {len(raw)}"
        )
    return [_parse_fraction(v, f"{field}[{i}]") for i, v in enumerate(raw)]


def _parse_index_vector(raw, field: str, space: StateSpace) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != space.ndim:
        raise ScenarioError(
            f"field '{field}': expected an index vector of length {space.ndim}"
        )
    for j, v in enumerate(raw):
        # bool is an int subclass; JSON true/false are not indices
        if isinstance(v, bool) or not isinstance(v, int):
            raise ScenarioError(f"field '{field}[{j}]': expected an integer index, got {v!r}")
    return tuple(raw)


def _parse_states(raw, field: str, space: StateSpace) -> StateSubset:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"field '{field}': expected a nonempty list of index vectors")
    states = [
        _parse_index_vector(entry, f"{field}[{i}]", space) for i, entry in enumerate(raw)
    ]
    try:
        return StateSubset.from_states(space, states)
    except ValueError as exc:
        raise ScenarioError(f"field '{field}': {exc}") from exc


_SCENARIO_FIELDS = (
    "name", "dims", "seed", "prior_low", "prior_high", "likelihood", "signal",
    "identified_set", "truth", "utility", "utility_family",
)


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    for field in doc:
        if field not in _SCENARIO_FIELDS:
            raise ScenarioError(
                f"field '{field}': unknown field; expected one of {', '.join(_SCENARIO_FIELDS)}"
            )
    if "name" in doc and not isinstance(doc["name"], str):
        raise ScenarioError(f"field 'name': expected a string, got {doc['name']!r}")
    if "utility_family" in doc and "utility" not in doc:
        raise ScenarioError("field 'utility_family': given without 'utility'")
    if "dims" not in doc:
        raise ScenarioError("field 'dims' is required")
    dims = doc["dims"]
    if not isinstance(dims, list) or not dims:
        raise ScenarioError("field 'dims': expected a list of axes")
    axes = []
    for k, axis in enumerate(dims):
        if not isinstance(axis, list):
            raise ScenarioError(f"field 'dims[{k}]': expected a list of rationals")
        axes.append([_parse_fraction(v, f"dims[{k}]") for v in axis])
    try:
        space = StateSpace.make(axes)
    except ValueError as exc:
        raise ScenarioError(f"field 'dims': {exc}") from exc

    sc = Scenario(space=space, name=doc.get("name"), seed=doc.get("seed"))
    if sc.seed is not None and (isinstance(sc.seed, bool) or not isinstance(sc.seed, int)):
        raise ScenarioError("field 'seed': expected an integer")

    for field, attr in (("prior_low", "prior_low"), ("prior_high", "prior_high")):
        if field in doc:
            masses = _parse_mass_vector(doc[field], field, space)
            try:
                setattr(sc, attr, Belief.from_fractions(space, masses))
            except ValueError as exc:
                raise ScenarioError(f"field '{field}': {exc}") from exc
    if "likelihood" in doc:
        values = _parse_mass_vector(doc["likelihood"], "likelihood", space)
        try:
            sc.likelihood = LikelihoodFn.from_fractions(space, values)
        except ValueError as exc:
            raise ScenarioError(f"field 'likelihood': {exc}") from exc
    if "signal" in doc:
        raw = doc["signal"]
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("realizations"), list)
            or not isinstance(raw.get("table"), dict)
        ):
            raise ScenarioError(
                "field 'signal': expected {'realizations': [...], 'table': {label: [...]}}"
            )
        labels = [str(x) for x in raw["realizations"]]
        table = []
        for label in labels:
            if label not in raw["table"]:
                raise ScenarioError(f"field 'signal.table': missing realization '{label}'")
            values = _parse_mass_vector(
                raw["table"][label], f"signal.table['{label}']", space
            )
            try:
                table.append(LikelihoodFn.from_fractions(space, values))
            except ValueError as exc:
                raise ScenarioError(f"field 'signal.table['{label}']': {exc}") from exc
        try:
            sc.signal = Signal(space, tuple(labels), tuple(table))
        except ValueError as exc:
            raise ScenarioError(f"field 'signal': {exc}") from exc
    if "identified_set" in doc:
        sc.identified = _parse_states(doc["identified_set"], "identified_set", space)
    if "truth" in doc:
        sc.truth = _parse_index_vector(doc["truth"], "truth", space)
        try:
            space.flat(sc.truth)  # bounds check
        except ValueError as exc:
            raise ScenarioError(f"field 'truth': {exc}") from exc
    if "utility" in doc:
        values = _parse_mass_vector(doc["utility"], "utility", space)
        family = doc.get("utility_family", "increasing")
        try:
            kind = UtilityFamilyKind(family)
        except ValueError as exc:
            raise ScenarioError(f"field 'utility_family': unknown family {family!r}") from exc
        try:
            sc.utility = UtilityFn(space, tuple(values), kind)
        except ValueError as exc:
            raise ScenarioError(f"field 'utility': {exc}") from exc
    return sc


def scenario_to_doc(sc: Scenario) -> dict:
    """Canonical JSON form; parse(serialize(parse(x))) == parse(x)."""
    doc: dict = {"dims": [_rationals(axis) for axis in sc.space.axes]}
    if sc.name is not None:
        doc["name"] = sc.name
    if sc.seed is not None:
        doc["seed"] = sc.seed
    if sc.prior_low is not None:
        doc["prior_low"] = _rationals(sc.prior_low.masses())
    if sc.prior_high is not None:
        doc["prior_high"] = _rationals(sc.prior_high.masses())
    if sc.likelihood is not None:
        doc["likelihood"] = _rationals(sc.likelihood.values())
    if sc.signal is not None:
        doc["signal"] = {
            "realizations": list(sc.signal.realizations),
            "table": {
                label: _rationals(ell.values())
                for label, ell in zip(sc.signal.realizations, sc.signal.table)
            },
        }
    if sc.identified is not None:
        doc["identified_set"] = _indices(sc.identified.states())
    if sc.truth is not None:
        doc["truth"] = list(sc.truth)
    if sc.utility is not None:
        doc["utility"] = _rationals(sc.utility.values)
        doc["utility_family"] = sc.utility.kind.value
    return doc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _verdict_doc(v) -> dict:
    if isinstance(v, StrongCwVerdict):
        return {
            "strong_coordinatewise": v.holds,
            "failed_axis": v.axis,
            "failed_cut": v.cut,
        }
    doc = {"relation": v.relation.value}
    if v.witness is not None:
        doc["witness"] = _indices(v.witness.states())
    if v.opposite_witness is not None:
        doc["opposite_witness"] = _indices(v.opposite_witness.states())
    return doc


def _polarization_doc(report: PolarizationReport) -> dict:
    return {
        "order": report.kind.value,
        "mode": report.mode.value,
        "verdict": report.verdict,
        "strictness_convention": report.strictness.value,
        "strong_middle": report.strong_middle,
        "checks": report.checks,
        "low_drop": _verdict_doc(report.low_drop),
        "prior_gap": _verdict_doc(report.prior_gap),
        "high_rise": _verdict_doc(report.high_rise),
        "posterior_low": _rationals(report.posterior_low.masses()),
        "posterior_high": _rationals(report.posterior_high.masses()),
        "directions": [
            {"state": list(s), "low": dl, "high": dh}
            for s, dl, dh in report.directions.rows()
        ],
    }


def _classify_doc(rep: ClassificationReport) -> dict:
    return {
        "spanning": rep.spanning,
        "complement_spanning": rep.complement_spanning,
        "biased_down": rep.biased_down,
        "biased_up": rep.biased_up,
        "balanced": rep.balanced,
        "compensatory": rep.compensatory,
        "can_strongly_polarize": rep.can_strongly_polarize,
    }


def _require(sc: Scenario, attr: str, field: str, command: str):
    value = getattr(sc, attr)
    if value is None:
        raise ScenarioError(f"field '{field}' is required for '{command}'")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (report dict, table rows or None)
# ---------------------------------------------------------------------------

Table = tuple[list[str], list[list[str]]]

# The possibility table: each order x mode cell with the paper's verdict.
TABLE_CELLS = (
    ("cw", "oneshot", "possible"),
    ("cw", "limit", "possible"),
    ("uo", "oneshot", "possible"),
    ("uo", "limit", "impossible"),
    ("st", "oneshot", "impossible"),
    ("st", "limit", "impossible"),
)

# ``scan`` refuses grids with more proper nonempty subsets than this before
# it starts: 2^16 - 2, so every 16-state grid (4x4, 2x8) fits.  A 4x4 scan
# classifies all 65,534 subsets and builds priors for the 37,054 that pass
# in about 31 s, JSON report included (2-vCPU VM, CPython 3.11).
SCAN_SUBSET_BUDGET = 2**16 - 2
# The report fields of one scanned subset that its TSV row shows, in order.
_SCAN_FIELDS = (
    "spanning", "complement_spanning", "balanced", "compensatory",
    "can_strongly_polarize", "certificate", "delta",
)


def _cmd_update(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    ell = _require(sc, "likelihood", "likelihood", "update")
    report: dict = {}
    for field, prior in (("prior_low", sc.prior_low), ("prior_high", sc.prior_high)):
        if prior is not None:
            report[f"posterior_{field.removeprefix('prior_')}"] = _rationals(
                update(prior, ell).masses()
            )
    if not report:
        raise ScenarioError("field 'prior_low' is required for 'update'")
    return report, None


def _cmd_compare(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    low = _require(sc, "prior_low", "prior_low", "compare")
    high = _require(sc, "prior_high", "prior_high", "compare")
    kind = _ORDER_BY_FLAG[args.order]
    verdict = compare(low, high, kind)
    return {"order": args.order, **_verdict_doc(verdict)}, None


def _cmd_classify(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    ident = _require(sc, "identified", "identified_set", "classify")
    rep = classify(sc.space, ident)
    return {"identified_set": _indices(ident.states()), **_classify_doc(rep)}, None


def _cmd_construct(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    ident = _require(sc, "identified", "identified_set", "construct")
    result = build_polarizing_priors(sc.space, ident)
    return {
        "identified_set": _indices(ident.states()),
        "prior_low": _rationals(result.prior_low.masses()),
        "prior_high": _rationals(result.prior_high.masses()),
        "epsilon": str(result.epsilon),
        "delta": str(result.delta),
        "certificate": _polarization_doc(result.certificate),
    }, None


def _cmd_polarize(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    low = _require(sc, "prior_low", "prior_low", "polarize")
    high = _require(sc, "prior_high", "prior_high", "polarize")
    kind = _ORDER_BY_FLAG[args.order]
    if args.mode == "oneshot":
        ell = _require(sc, "likelihood", "likelihood", "polarize --mode oneshot")
        report = one_shot(kind, low, high, ell)
    else:
        ident = _require(sc, "identified", "identified_set", "polarize --mode limit")
        report = limit(kind, low, high, ident)
    doc = _polarization_doc(report)
    if sc.utility is not None:
        move = action_polarizes(sc.utility, low, high, report.evidence)
        doc["action"] = {
            "utility_family": sc.utility.kind.value,
            "low_before": str(move.low_before),
            "low_after": str(move.low_after),
            "high_before": str(move.high_before),
            "high_after": str(move.high_after),
            "polarizes": move.polarizes,
        }
    return doc, None


def _cmd_simulate(sc: Scenario, args) -> tuple[dict, Optional[Table]]:
    prior = _require(sc, "prior_low", "prior_low", "simulate")
    sig = sc.signal
    if sig is None:
        ident = _require(sc, "identified", "signal (or identified_set)", "simulate")
        sig = Signal.reveal_set(sc.space, ident)
    truth = _require(sc, "truth", "truth", "simulate")
    seed = args.seed if args.seed is not None else (sc.seed or 0)
    records = simulate(prior, sig, truth, args.horizon, seed)
    ident = identified_set(sig, truth)
    header = ["t", "realization", "tv_to_limit"] + [
        f"mass{list(s)}" for s in sc.space.states
    ]
    rows = [
        [str(r.t), r.realization or "", str(r.tv_to_limit)]
        + _rationals(r.posterior.masses())
        for r in records
    ]
    report = {
        "seed": seed,
        "horizon": args.horizon,
        "truth": list(truth),
        "identified_set": _indices(ident.states()),
        "final_tv_to_limit": str(records[-1].tv_to_limit),
        "table": rows,
    }
    return report, (header, rows)


def _cmd_sweep(sc_unused, args) -> tuple[dict, Optional[Table]]:
    dims = args.dims
    config = SweepConfig(
        kind=_ORDER_BY_FLAG[args.order],
        mode=_MODE_BY_FLAG[args.mode],
        dims=dims,
        trials=args.trials,
        seed=args.seed if args.seed is not None else 0,
        denominator_bound=args.denominator_bound,
    )
    report = sweep(config)
    header = ["order", "mode", "dims", "trials", "counterexamples", "elapsed_s"]
    row = [
        args.order,
        args.mode,
        "x".join(map(str, dims)),
        str(report.trials_run),
        str(len(report.counterexamples)),
        f"{report.elapsed:.3f}",
    ]
    doc = {
        "order": args.order,
        "mode": args.mode,
        "dims": list(dims),
        "seed": config.seed,
        "trials_run": report.trials_run,
        "exhaustive": config.denominator_bound is not None,
        "counterexamples_found": len(report.counterexamples),
        "counterexamples": [
            {
                "prior_low": _rationals(rep.prior_low.masses()),
                "prior_high": _rationals(rep.prior_high.masses()),
                "likelihood": (
                    _rationals(rep.evidence.values()) if rep.mode is Mode.ONE_SHOT else None
                ),
                "identified_set": (
                    _indices(rep.evidence.states()) if rep.mode is Mode.LIMIT else None
                ),
            }
            for rep in (hit.report for hit in report.counterexamples[:100])
        ],
        "elapsed_s": report.elapsed,
        "table": [row],
    }
    return doc, (header, [row])


def _cmd_tradeoff(sc_unused, args) -> tuple[dict, Optional[Table]]:
    if args.deltas:
        deltas = args.deltas
    else:
        n = args.grid
        deltas = [Fraction(k, n + 1) for k in range(1, n + 1)]
    rows = tradeoff_curve(deltas)
    header = ["delta", "magnitude", "prob_identified"]
    table = [
        [str(r.delta), str(r.magnitude), str(r.prob_identified)] for r in rows
    ]
    doc = {
        "rows": [
            {
                "delta": str(r.delta),
                "magnitude": str(r.magnitude),
                "prob_identified": str(r.prob_identified),
                "posterior_low": _rationals(r.posterior_low.masses()),
                "posterior_high": _rationals(r.posterior_high.masses()),
            }
            for r in rows
        ],
        "table": table,
    }
    return doc, (header, table)


def _cmd_table(sc_unused, args) -> tuple[dict, Optional[Table]]:
    seed = args.seed if args.seed is not None else 0
    header = ["order", "mode", "expected", "trials", "hits", "elapsed_s"]
    cells, wrong = [], []
    for order, mode, expected in TABLE_CELLS:
        config = SweepConfig(
            _ORDER_BY_FLAG[order], _MODE_BY_FLAG[mode], args.dims, args.trials, seed
        )
        report = sweep(config)
        hits = len(report.counterexamples)
        if hits and expected == "impossible":
            wrong.append(f"{order} {mode} ({hits} of {report.trials_run} trials)")
        cells.append({
            "order": order, "mode": mode, "expected": expected,
            "trials": report.trials_run, "hits": hits, "elapsed_s": report.elapsed,
        })
    rows = [
        [c["order"], c["mode"], c["expected"], str(c["trials"]), str(c["hits"]),
         f"{c['elapsed_s']:.3f}"]
        for c in cells
    ]
    if wrong:
        raise RuntimeError(
            f"internal error: counterexamples in cells proved impossible: {', '.join(wrong)};"
            " replay them with 'bayespol sweep' and the same --dims, --trials and --seed"
        )
    return {"dims": list(args.dims), "seed": seed, "cells": cells}, (header, rows)


def _cmd_scan(sc_unused, args) -> tuple[dict, Optional[Table]]:
    dims = args.dims
    n = math.prod(dims)
    # a cap on n first, so an absurd grid is refused without building 2^n
    if n > 64 or 2**n - 2 > SCAN_SUBSET_BUDGET:
        count = f"{2**n - 2:,}" if n <= 64 else f"2^{n} - 2"
        raise ValueError(
            f"dims {'x'.join(map(str, dims))} has {count} proper nonempty subsets to"
            f" scan, over the budget of {SCAN_SUBSET_BUDGET:,}"
        )
    space = StateSpace.grid(*dims)
    header = ["subset", "spanning", "complement_spanning", "balanced", "compensatory",
              "passes", "certificate", "delta"]
    subsets, rows = [], []
    for mask in range(1, space.full_mask):
        subset = StateSubset(space, mask)
        rep = classify(space, subset)
        doc = {"identified_set": _indices(subset.states()), **_classify_doc(rep)}
        doc["certificate"] = doc["delta"] = None
        if rep.can_strongly_polarize:
            result = build_polarizing_priors(space, subset)
            doc["certificate"] = result.certificate.verdict
            doc["delta"] = str(result.delta)
        subsets.append(doc)
        label = ";".join("".join(map(str, s)) for s in subset.states())
        rows.append([label] + ["" if doc[k] is None else str(doc[k]) for k in _SCAN_FIELDS])
    passing = sum(doc["can_strongly_polarize"] for doc in subsets)
    return {"dims": list(dims), "passing": passing, "subsets": subsets}, (header, rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _env(parser: argparse.ArgumentParser, name: str, cast, fallback, choices=None):
    """Value of ``BAYESPOL_<name>``, or ``fallback`` when it is unset; a
    malformed value exits 2."""
    var = ENV_PREFIX + name
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        value = cast(raw)
    except ValueError:
        parser.error(f"environment variable {var}: invalid {cast.__name__} value {raw!r}")
    if choices is not None and value not in choices:
        parser.error(f"environment variable {var}: {raw!r} is not one of {', '.join(choices)}")
    return value


def _dims_arg(raw: str) -> tuple[int, ...]:
    """``--dims``: axis sizes joined by 'x'."""
    try:
        return tuple(int(d) for d in raw.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected axis sizes joined by 'x', e.g. 3x3; got {raw!r}"
        ) from None


def _deltas_arg(raw: str) -> list[Fraction]:
    """``--deltas``: comma-separated rationals."""
    try:
        return [frac(d) for d in raw.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rationals, e.g. 1/10,1/4; got {raw!r}"
        ) from None


def _positive_int_arg(raw: str) -> int:
    """``--grid``: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


# Every flag, by name.  The flags that BAYESPOL_* variables back default to
# None, and ``run`` fills them in (``_ENV_FLAGS``).
_FLAGS = {
    "--order": dict(
        choices=tuple(_ORDER_BY_FLAG),
        help="stochastic order: upper sets, upper orthants, or coordinatewise",
    ),
    "--mode": dict(choices=tuple(_MODE_BY_FLAG)),
    "--seed": dict(type=int),
    "--trials": dict(type=int),
    "--denominator-bound": dict(
        type=int, help="exhaustive prior grid with this common denominator"
    ),
    "--dims": dict(
        type=_dims_arg, default="2x2", help="state space shape, e.g. 3x3 or 2x2x2"
    ),
    "--horizon": dict(type=int, default=100),
    "--deltas": dict(
        type=_deltas_arg, help="comma-separated rationals, e.g. 1/10,1/4"
    ),
    "--grid": dict(type=_positive_int_arg, default=9, help="use deltas k/(grid+1)"),
    "--table": dict(help="also write the tabular output to this TSV file"),
    "--out": dict(help="write the JSON report here instead of stdout"),
}

# Each subcommand: its handler, whether it reads a scenario file, the flags
# it reads (in help order), and its help line.  The parser is built from
# this table alone, so a flag a handler does not read is a usage error.
_COMMANDS = {
    "update": (_cmd_update, True, ("--out",), "posteriors after one likelihood"),
    "compare": (_cmd_compare, True, ("--order", "--out"), "order the two priors"),
    "classify": (_cmd_classify, True, ("--out",), "can the identified set polarize? (2-D)"),
    "construct": (_cmd_construct, True, ("--out",), "build certified polarizing priors"),
    "polarize": (_cmd_polarize, True, ("--order", "--mode", "--out"), "the polarization chain"),
    "simulate": (_cmd_simulate, True, ("--seed", "--horizon", "--table", "--out"),
                 "a seeded posterior trajectory"),
    "sweep": (_cmd_sweep, False, ("--order", "--mode", "--seed", "--trials",
                                  "--denominator-bound", "--dims", "--table", "--out"),
              "seeded or exhaustive counterexample search in one cell"),
    "tradeoff": (_cmd_tradeoff, False, ("--deltas", "--grid", "--table", "--out"),
                 "magnitude against probability on the 2x2 diagonal"),
    "table": (_cmd_table, False, ("--dims", "--trials", "--seed", "--table", "--out"),
              "sweep all six order x mode cells"),
    "scan": (_cmd_scan, False, ("--dims", "--table", "--out"),
             "classify every subset of a 2-D grid and build the passing ones"),
}


class _RootParser(argparse.ArgumentParser):
    """Reports a subcommand's unrecognized arguments through that
    subcommand's own parser, so the usage line shows the flags it takes."""

    commands: dict[str, argparse.ArgumentParser]

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            chosen = self.commands.get(getattr(parsed, "command", None), self)
            chosen.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  It does not read the environment."""
    parser = _RootParser(
        prog="bayespol",
        description="Exact-arithmetic belief polarization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for name, (_, scenario, flags, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, description=summary)
        if scenario:
            p.add_argument("scenario", help="path to a JSON scenario file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process; parse_args leaves it unchanged.
    return build_parser()


# Flags backed by BAYESPOL_<NAME>: (attribute, NAME, cast, fallback, choices).
_ENV_FLAGS = (
    ("order", "ORDER", str, "cw", tuple(_ORDER_BY_FLAG)),
    ("mode", "MODE", str, "limit", tuple(_MODE_BY_FLAG)),
    ("seed", "SEED", int, None, None),
    ("trials", "TRIALS", int, 10_000, None),
    ("denominator_bound", "DENOMINATOR_BOUND", int, None, None),
)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # Every variable is read, even behind a given flag or for a subcommand
    # without that flag, so a malformed one is always a usage error.
    for attr, name, cast, fallback, choices in _ENV_FLAGS:
        value = _env(parser, name, cast, fallback, choices)
        if getattr(args, attr, False) is None:
            setattr(args, attr, value)
    try:
        scenario = load_scenario(args.scenario) if hasattr(args, "scenario") else None
        report, table = _COMMANDS[args.command][0](scenario, args)
        doc = {"command": args.command}
        if scenario is not None:
            if scenario.name:
                doc["scenario"] = scenario.name
            doc["states"] = _indices(scenario.space.states)
        doc.update(report)
        rendered = json.dumps(doc, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        else:
            print(rendered)
        if table is not None and args.table:
            header, rows = table
            with open(args.table, "w", encoding="utf-8") as fh:
                fh.write("\t".join(header) + "\n")
                for row in rows:
                    fh.write("\t".join(row) + "\n")
        return 0
    except (ValueError, RuntimeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``bayespol ... | head``).  Point stdout at
        # devnull so the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
