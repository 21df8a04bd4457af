"""The four workloads: seeded inputs, warm-up, timed public calls and their checks.

Inputs are plain data made from the seed and ``pinned.json`` alone
(``inputs``), so their digest can be taken without importing bayespol;
``prepare`` turns them into library objects outside the timed phase.  Each
task makes its calls through ``Recorder.call``, which times them, and then
settles every call with the problem its check found, or ``None``.  Functions
are looked up on their modules at call time, so the traced run sees the calls
through its wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import time
from fractions import Fraction
from typing import Optional

import oracle

DEFAULT_SEED = 0
ORDERS = ("st", "uo", "cw")
_SEED_RANGE = 2**31


def _bp(name: str):
    return importlib.import_module(f"bayespol.{name}")


def _kind(order: str):
    return _bp("orders").UpperFamilyKind(order)


def _shape(dims: str) -> tuple[int, ...]:
    return tuple(int(n) for n in dims.split("x"))


def _problem(outcome) -> Optional[str]:
    if outcome.error is not None:
        return f"raised {outcome.error!r}"
    return None


class DrawLog:
    """Records the priors and evidence every sweep trial hands to its predicate.

    Installed on the names the sweeps call: ``bayespol.verifier.one_shot``,
    ``bayespol.verifier.limit`` and the action search's private predicate
    ``bayespol.actions._all_basis_movements_polarize``.  A trial-stream
    digest built from these entries depends on the seeded draws even when a
    call finds no hit.  The verifier wrappers look ``bayespol.polarization``
    up at call time, so a tracer installed later still sees those calls.
    Installed for every seed, so all runs pay the same small cost.
    """

    def __init__(self) -> None:
        self.entries: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            return
        verifier, polarization, actions = _bp("verifier"), _bp("polarization"), _bp("actions")

        def via(name):
            def predicate(kind, low, high, evidence, **kwargs):
                self.entries.append((low, high, evidence))
                return getattr(polarization, name)(kind, low, high, evidence, **kwargs)

            return predicate

        basis_predicate = actions._all_basis_movements_polarize

        def all_basis(funcs, low, high, evidence):
            self.entries.append((low, high, evidence))
            return basis_predicate(funcs, low, high, evidence)

        for owner, attr, fn in (
            (verifier, "one_shot", via("one_shot")),
            (verifier, "limit", via("limit")),
            (actions, "_all_basis_movements_polarize", all_basis),
        ):
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def take(self) -> list[tuple]:
        out, self.entries = self.entries, []
        return out


DRAWS = DrawLog()


def _draw_key(obj):
    """Beliefs and likelihoods by their integer weights, subsets by mask."""
    mask = getattr(obj, "mask", None)
    return mask if mask is not None else [obj.nums, obj.den]


def _sweep_call(rec, fn, *args, **kwargs):
    """``rec.call`` that also returns the trials' draws, and only this call's."""
    DRAWS.take()
    out = rec.call(fn, *args, **kwargs)
    return out, DRAWS.take()


def _trial_stream(rec, index: int, payload, draws) -> Optional[str]:
    """Digest of a sweep's trials_run, hit count, hit priors and every trial's
    priors and evidence, pinned per call."""
    payload = [*payload, [[_draw_key(x) for x in entry] for entry in draws]]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:12]
    rec.digests[index] = digest
    if index < len(rec.golden) and rec.golden[index] != digest:
        return "trial stream differs from the pinned digest"
    return None


class Workload:
    name = ""
    # (dims, orders) pairs the workload compares on; warm-up fills their caches.
    grids: tuple[tuple[str, tuple[str, ...]], ...] = ()
    # Tasks per traced pass: a fixed prefix, so per-layer counts repeat exactly.
    trace_tasks = 0
    trials_per_call = 0

    def inputs(self, seed: int, pinned: dict) -> list:
        raise NotImplementedError

    def prepare(self, tasks: list) -> list:
        return tasks

    def warm_extra(self, pinned: dict) -> None:
        """One call of the workload's own kind per distinct grid."""

    def warm_up(self, pinned: dict) -> float:
        """Fill the per-space caches; returns the seconds spent building families."""
        core, orders = _bp("core"), _bp("orders")
        build = 0.0
        for dims, kinds in self.grids:
            space = core.StateSpace.grid(*_shape(dims))
            uniform = core.Belief.uniform(space)
            for order in kinds:
                start = time.perf_counter()
                orders.event_family(space, _kind(order))
                build += time.perf_counter() - start
                orders.compare(uniform, uniform, _kind(order))
        self.warm_extra(pinned)
        return build

    def family_sizes(self) -> dict[str, dict[str, int]]:
        core, orders = _bp("core"), _bp("orders")
        return {
            dims: {
                order: len(orders.event_family(core.StateSpace.grid(*_shape(dims)), _kind(order)))
                for order in kinds
            }
            for dims, kinds in self.grids
        }

    def run(self, task, rec) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep-cells
# ---------------------------------------------------------------------------

SWEEP_DIMS = ("2x2", "2x3", "3x3")
SWEEP_MODES = ("oneshot", "limit")
IMPOSSIBLE_CELLS = {("st", "oneshot"), ("st", "limit"), ("uo", "limit")}
FAMILY_CELLS = (("products", "limit"), ("increasing", "oneshot"), ("increasing", "limit"))
EXHAUSTIVE_BOUND = 4
EXHAUSTIVE_TRIALS = 80  # one prior pair times 3**4 - 1 likelihoods on 2x2


class SweepCells(Workload):
    """CLI sweeps over every order x mode cell, plus impossible action families."""

    name = "sweep-cells"
    grids = tuple((dims, ORDERS) for dims in SWEEP_DIMS)
    rounds = 8  # of 22 calls: every cell once
    trace_tasks = 2 * 22
    trials_per_call = 64

    def inputs(self, seed, pinned):
        tasks = []
        for r in range(self.rounds):
            rng = random.Random(f"{self.name}:{seed}:{r}")
            calls = [
                ["cli", order, mode, dims, rng.randrange(_SEED_RANGE)]
                for dims in SWEEP_DIMS
                for order in ORDERS
                for mode in SWEEP_MODES
            ]
            calls.append(["exhaustive", "st", "oneshot", "2x2", EXHAUSTIVE_BOUND])
            calls += [["family", fam, mode, rng.randrange(_SEED_RANGE)] for fam, mode in FAMILY_CELLS]
            rng.shuffle(calls)
            tasks += calls
        return [[i, *call] for i, call in enumerate(tasks)]

    def warm_extra(self, pinned):
        cli, actions, polarization, core = _bp("cli"), _bp("actions"), _bp("polarization"), _bp("core")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["sweep", "--dims", "2x2", "--trials", "1", "--seed", "0"])
        actions.family_polarization_search(
            actions.UtilityFamilyKind.INCREASING,
            polarization.Mode.LIMIT,
            core.StateSpace.grid(2, 2),
            trials=1,
        )

    def run(self, task, rec):
        if task[1] == "family":
            self._run_family(task, rec)
        else:
            self._run_cli(task, rec)

    def _run_cli(self, task, rec):
        index, what, order, mode, dims, arg = task
        argv = ["sweep", "--order", order, "--mode", mode, "--dims", dims]
        if what == "exhaustive":
            argv += ["--denominator-bound", str(arg)]
            expected_trials = EXHAUSTIVE_TRIALS
        else:
            argv += ["--trials", str(self.trials_per_call), "--seed", str(arg)]
            expected_trials = self.trials_per_call
        buf = io.StringIO()
        cli = _bp("cli")

        def invoke():
            with contextlib.redirect_stdout(buf):
                return cli.run(argv)

        out, draws = _sweep_call(rec, invoke)
        problem = _problem(out)
        if problem is None:
            rec.bytes_out += len(buf.getvalue().encode())
            problem = self._check_cli(
                rec, index, order, mode, dims, out.value, buf.getvalue(), expected_trials, draws
            )
        rec.settle(out, expected_trials, problem)

    def _check_cli(self, rec, index, order, mode, dims, code, text, trials, draws) -> Optional[str]:
        if code != 0:
            return f"exit status {code}"
        doc = json.loads(text)
        if doc["trials_run"] != trials:
            return f"ran {doc['trials_run']} of {trials} trials"
        hits = doc["counterexamples"]
        if (order, mode) in IMPOSSIBLE_CELLS and doc["counterexamples_found"]:
            return f"impossible cell {order}/{mode} on {dims} reported hits"
        for hit in hits:
            problem = self._replay(order, mode, dims, hit)
            if problem:
                return f"hit does not replay: {problem}"
        return _trial_stream(
            rec,
            index,
            [doc["trials_run"], doc["counterexamples_found"],
             [[h["prior_low"], h["prior_high"]] for h in hits]],
            draws,
        )

    @staticmethod
    def _replay(order, mode, dims, hit) -> Optional[str]:
        """Re-run the predicate on a reported hit (``SweepHit.replay``) and
        validate the resulting chain from the definitions."""
        core, bayes, polarization = _bp("core"), _bp("bayes"), _bp("polarization")
        shape = _shape(dims)
        space = core.StateSpace.grid(*shape)
        low = core.Belief.from_fractions(space, hit["prior_low"])
        high = core.Belief.from_fractions(space, hit["prior_high"])
        if mode == "oneshot":
            ell = bayes.LikelihoodFn.from_fractions(space, hit["likelihood"])
            report = polarization.one_shot(_kind(order), low, high, ell)
            weights = [Fraction(v) for v in hit["likelihood"]]
        else:
            members = {tuple(s) for s in hit["identified_set"]}
            ident = core.StateSubset.from_states(space, members)
            report = polarization.limit(_kind(order), low, high, ident)
            weights = [Fraction(int(s in members)) for s in oracle.grid_states(shape)]
        return oracle.check_polarization(order, report, low, high, weights)

    def _run_family(self, task, rec):
        index, _, family, mode, seed = task
        actions, polarization, core = _bp("actions"), _bp("polarization"), _bp("core")
        out, draws = _sweep_call(
            rec,
            actions.family_polarization_search,
            actions.UtilityFamilyKind(family),
            polarization.Mode(mode),
            core.StateSpace.grid(2, 2),
            trials=self.trials_per_call,
            seed=seed,
        )
        problem = _problem(out)
        if problem is None:
            sweep = out.value.sweep
            if out.value.possible or sweep is None:
                problem = f"impossible family cell {family}/{mode} reported possible"
            elif sweep.trials != self.trials_per_call:
                problem = f"ran {sweep.trials} of {self.trials_per_call} trials"
            elif sweep.hits:
                problem = f"impossible family cell {family}/{mode} reported hits"
            else:
                problem = _trial_stream(rec, index, [sweep.trials, 0, []], draws)
        rec.settle(out, self.trials_per_call, problem)


# ---------------------------------------------------------------------------
# strong-necessity
# ---------------------------------------------------------------------------


class StrongNecessity(Workload):
    """Strong coordinatewise limit sweeps pinned to every rejected identified set."""

    name = "strong-necessity"
    grids = (("2x3", ("cw",)), ("3x3", ("cw",)))
    trace_tasks = 60
    trials_per_call = 24

    def inputs(self, seed, pinned):
        rng = random.Random(f"{self.name}:{seed}")
        tasks = [
            [dims, mask, rng.randrange(_SEED_RANGE)]
            for dims, _ in self.grids
            for mask in pinned["failing_sets"][dims]
        ]
        rng.shuffle(tasks)
        return [[i, *t] for i, t in enumerate(tasks)]

    def _config(self, dims, mask, seed, trials):
        verifier, polarization = _bp("verifier"), _bp("polarization")
        shape = _shape(dims)
        return verifier.SweepConfig(
            _kind("cw"),
            polarization.Mode.LIMIT,
            shape,
            trials=trials,
            seed=seed,
            strong=True,
            identified_set=oracle.states_of_mask(shape, mask),
        )

    def prepare(self, tasks):
        return [[i, self._config(dims, mask, seed, self.trials_per_call)] for i, dims, mask, seed in tasks]

    def warm_extra(self, pinned):
        verifier = _bp("verifier")
        for dims, _ in self.grids:
            verifier.sweep(self._config(dims, pinned["failing_sets"][dims][0], 0, 1))

    def run(self, task, rec):
        index, config = task
        out, draws = _sweep_call(rec, _bp("verifier").sweep, config)
        problem = _problem(out)
        if problem is None:
            report = out.value
            if report.trials_run != config.trials:
                problem = f"ran {report.trials_run} of {config.trials} trials"
            elif report.counterexamples:
                replays = [hit.replay().verdict for hit in report.counterexamples]
                problem = (
                    f"rejected set {config.identified_set} strongly polarized "
                    f"({sum(replays)} of {len(replays)} hits replay)"
                )
            else:
                problem = _trial_stream(rec, index, [report.trials_run, 0, []], draws)
        rec.settle(out, config.trials, problem)


# ---------------------------------------------------------------------------
# classify-build
# ---------------------------------------------------------------------------

CLASSIFY_DIMS = "3x4"


class ClassifyBuild(Workload):
    """Half the proper nonempty subsets of 3x4, drawn by the seed, through
    classify, then build.

    Half, so that a pass takes about a second and a run holds enough passes
    for each call's minimum; the ten seeds of a spread check cover nearly
    all 4,094 subsets.
    """

    name = "classify-build"
    grids = ((CLASSIFY_DIMS, ("cw",)),)
    trace_tasks = 1024

    def inputs(self, seed, pinned):
        """Each drawn subset with the verdict pinned for it in ``pinned.json``."""
        size = len(oracle.grid_states(_shape(CLASSIFY_DIMS)))
        failing = set(pinned["failing_sets"][CLASSIFY_DIMS])
        masks = list(range(1, (1 << size) - 1))
        random.Random(f"{self.name}:{seed}").shuffle(masks)
        masks = masks[: len(masks) // 2]
        return [[i, mask, mask not in failing] for i, mask in enumerate(masks)]

    def prepare(self, tasks):
        core = _bp("core")
        space = core.StateSpace.grid(*_shape(CLASSIFY_DIMS))
        return [[space, core.StateSubset(space, mask), passes] for _, mask, passes in tasks]

    def warm_extra(self, pinned):
        core, classifier, construct = _bp("core"), _bp("classifier"), _bp("construct")
        space = core.StateSpace.grid(*_shape(CLASSIFY_DIMS))
        extremes = core.StateSubset.from_states(space, [space.bottom, space.top])
        classifier.classify(space, extremes)
        construct.build_polarizing_priors(space, extremes)

    def run(self, task, rec):
        space, subset, passes = task
        classified = rec.call(_bp("classifier").classify, space, subset)
        built = rec.call(_bp("construct").build_polarizing_priors, space, subset)
        problem = _problem(classified)
        if problem is None and classified.value.can_strongly_polarize != passes:
            problem = f"classify gave {not passes} on mask {subset.mask}, pinned {passes}"
        rec.settle(classified, 0, problem)
        if passes:
            rec.settle(built, 1, _problem(built) or self._check_build(subset, built.value))
        elif not isinstance(built.error, ValueError):
            rec.settle(built, 1, f"build on a rejected set did not raise ValueError: {built.error!r}")
        else:
            rec.settle(built, 1, None)

    @staticmethod
    def _check_build(subset, result) -> Optional[str]:
        cert = result.certificate
        if not cert.strong_middle:
            return "certificate lacks the strong middle link"
        mask = subset.mask
        weights = [Fraction(mask >> f & 1) for f in range(len(result.prior_low.nums))]
        return oracle.check_polarization(
            "cw", cert, result.prior_low, result.prior_high, weights
        )


# ---------------------------------------------------------------------------
# order-compare
# ---------------------------------------------------------------------------

COMPARE_DIMS = ("3x3x3", "6x6", "3x3x4", "3x4x4")
MASS_BOUND = 12
_ABOVE = ("strictly_above", "weakly_above", "equal")


def _transport_up(rng: random.Random, shape, weights: list[int]) -> list[int]:
    """Move integer mass from states to states strictly above them.

    Each move adds mass to every upper set that holds the target and not the
    source and takes none from any, so the result lies strictly above
    ``weights`` in all three orders.
    """
    states = oracle.grid_states(shape)
    out = list(weights)
    for _ in range(rng.randint(1, len(states))):
        src = rng.choice([f for f, w in enumerate(out) if w > 0])
        above = [
            f for f, s in enumerate(states)
            if f != src and all(a >= b for a, b in zip(s, states[src]))
        ]
        if not above:
            continue
        amount = rng.randint(1, out[src])
        out[src] -= amount
        out[rng.choice(above)] += amount
    if out == list(weights):
        top = len(states) - 1
        src = rng.choice(range(top))
        out[src] -= 1
        out[top] += 1
    return out


class OrderCompare(Workload):
    """ST, UO, CW and strong CW comparisons on ordered and independent pairs."""

    name = "order-compare"
    grids = tuple((dims, ORDERS) for dims in COMPARE_DIMS)
    rounds = 32  # of an ordered and a random pair on each grid
    trace_tasks = 8 * 8

    def inputs(self, seed, pinned):
        tasks = []
        for r in range(self.rounds):
            rng = random.Random(f"{self.name}:{seed}:{r}")
            for dims in COMPARE_DIMS:
                shape = _shape(dims)
                size = len(oracle.grid_states(shape))
                low = [rng.randint(1, MASS_BOUND) for _ in range(size)]
                tasks.append([dims, True, low, _transport_up(rng, shape, low)])
                other = [rng.randint(1, MASS_BOUND) for _ in range(size)]
                tasks.append([dims, False, low, other])
        return [[i, *t] for i, t in enumerate(tasks)]

    def prepare(self, tasks):
        core = _bp("core")
        spaces = {dims: core.StateSpace.grid(*_shape(dims)) for dims in COMPARE_DIMS}
        return [
            [i, ordered, core.Belief.from_weights(spaces[dims], low),
             core.Belief.from_weights(spaces[dims], high)]
            for i, dims, ordered, low, high in tasks
        ]

    def warm_extra(self, pinned):
        core, orders = _bp("core"), _bp("orders")
        for dims in COMPARE_DIMS:
            uniform = core.Belief.uniform(core.StateSpace.grid(*_shape(dims)))
            orders.compare_strong_cw(uniform, uniform)

    def run(self, task, rec):
        _, ordered, low, high = task
        orders = _bp("orders")
        verdicts = {
            order: rec.call(orders.compare, low, high, _kind(order)) for order in ORDERS
        }
        strong = rec.call(orders.compare_strong_cw, low, high)
        problems = {}
        for order, out in verdicts.items():
            problems[order] = _problem(out) or oracle.check_verdict(
                order, low, high, out.value, full=order != "st"
            )
            if problems[order] is None and ordered and not out.value.strictly_below:
                problems[order] = f"{order}: ordered pair reported {out.value.relation.value}"
        for strong_order, weak_order in (("st", "uo"), ("uo", "cw")):
            if problems[strong_order] or problems[weak_order]:
                continue
            a, b = verdicts[strong_order].value, verdicts[weak_order].value
            if (a.weakly_below and not b.weakly_below) or (
                a.relation.value in _ABOVE and b.relation.value not in _ABOVE
            ):
                problems[weak_order] = (
                    f"{strong_order} {a.relation.value} but {weak_order} {b.relation.value}"
                )
        for order, out in verdicts.items():
            rec.settle(out, 1, problems[order])
        rec.settle(strong, 1, _problem(strong) or oracle.check_strong(low, high, strong.value))


WORKLOADS = {w.name: w for w in (SweepCells(), StrongNecessity(), ClassifyBuild(), OrderCompare())}
