"""Batch certification sweeps: hunt for counterexamples that must not exist.

Each sweep fixes a cell (stochastic order, one-shot or limit mode) and runs
either a seeded random search or an exhaustive grid over priors and evidence,
recording every trial where the polarization predicate fires.  For cells the
theory rules out, a single hit means an implementation bug; for possible
cells the hits are existence witnesses.  Reports are reproducible bit-exactly
from their config: per-trial generators derive from the master seed and the
trial index, and all arithmetic is exact.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product as _cartesian
from typing import Callable, Iterator, Optional

from .bayes import Evidence, LikelihoodFn
from .core import Belief, State, StateSpace, StateSubset, frac, over_common_denominator
from .orders import UpperFamilyKind, _cdf_failure, _check_member, compare_strong_cw
from .polarization import (
    Mode,
    PolarizationReport,
    direction_analysis,
    limit,
    one_shot,
)

_DEFAULT_LEVELS = (Fraction(0), Fraction(1, 2), Fraction(1))
# Exhaustive sweeps planned to run more trials than this are refused before
# they start.  An exhaustive trial takes about 12-27 us on 2x2 and 3x3 in the
# one-shot cells and in the ST and UO limit cells, where most trials stop at
# the first link of the chain, and 26-49 us in the CW limit cells, strong or
# not, whose conditional-reduction self-check decides both posterior links
# (2-vCPU VM, CPython 3.11, each block of 200 trials timed at its fastest of
# five runs).  So the budget is roughly 2 to 8 minutes of sweeping.
EXHAUSTIVE_TRIAL_BUDGET = 10**7


def _check_int(field: str, value) -> None:
    # bool is an int subclass, but True is not a trial count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an int, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One cell's search plan.

    ``denominator_bound`` switches to exhaustive mode: priors run over all
    full-support mass vectors with that common denominator, and evidence runs
    over the full likelihood grid (one-shot) or every proper nonempty subset
    (limit).  ``strong`` restricts to strongly coordinatewise ordered prior
    pairs and demands the strong middle link, so it needs the coordinatewise
    order in limit mode; ``identified_set`` pins the evidence set instead of
    sampling it.
    """

    kind: UpperFamilyKind
    mode: Mode
    dims: tuple[int, ...]
    trials: int = 10_000
    seed: int = 0
    denominator_bound: Optional[int] = None
    likelihood_levels: tuple[Fraction, ...] = _DEFAULT_LEVELS
    mass_bound: int = 12
    strong: bool = False
    identified_set: Optional[tuple[State, ...]] = None

    def __post_init__(self) -> None:
        _check_member("kind", self.kind, UpperFamilyKind)
        _check_member("mode", self.mode, Mode)
        if not isinstance(self.strong, bool):
            raise ValueError(f"strong must be a bool, got {self.strong!r}")
        if self.strong and (
            self.mode is not Mode.LIMIT or self.kind is not UpperFamilyKind.UPPER_PROJECTION
        ):
            raise ValueError(
                "strong demands the strong middle link, defined for coordinatewise"
                f" limit sweeps; got {self.kind.value} {self.mode.value}"
            )
        if not isinstance(self.dims, tuple) or not self.dims:
            raise ValueError(f"dims must be a nonempty tuple of axis sizes, got {self.dims!r}")
        for k, n in enumerate(self.dims):
            _check_int(f"dims[{k}]", n)
            if n < 2:
                raise ValueError(f"dims[{k}] must be at least 2, got {n}")
        for name in ("trials", "seed", "mass_bound"):
            _check_int(name, getattr(self, name))
        if self.denominator_bound is not None:
            _check_int("denominator_bound", self.denominator_bound)
        if self.denominator_bound is None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        states = math.prod(self.dims)
        if self.denominator_bound is not None and self.denominator_bound < states:
            raise ValueError(
                f"denominator_bound {self.denominator_bound} admits no full-support"
                f" prior on {states} states"
            )
        if self.identified_set is not None:
            if self.mode is not Mode.LIMIT:
                raise ValueError("identified_set pins limit evidence; mode must be limit")
            try:
                pinned = StateSubset.from_states(self.space, self.identified_set)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"identified_set: {exc}") from None
            if pinned.is_empty:
                raise ValueError("identified_set is empty")
        if self.mass_bound < 1:
            raise ValueError(f"mass_bound must be at least 1, got {self.mass_bound}")
        try:
            levels = tuple(frac(v) for v in self.likelihood_levels)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"likelihood_levels: {exc}") from None
        if not levels or not all(0 <= v <= 1 for v in levels):
            raise ValueError(f"likelihood_levels must be nonempty in [0, 1]: {levels}")
        exhaustive = self.denominator_bound is not None
        if exhaustive and self.mode is Mode.ONE_SHOT and not any(levels):
            raise ValueError("likelihood_levels has no positive level: no likelihood to run")
        object.__setattr__(self, "likelihood_levels", levels)
        if exhaustive:
            planned = self.exhaustive_trials()
            if planned > EXHAUSTIVE_TRIAL_BUDGET:
                raise ValueError(
                    f"denominator_bound {self.denominator_bound} on {states} states plans"
                    f" {planned:,} exhaustive trials, over the budget of"
                    f" {EXHAUSTIVE_TRIAL_BUDGET:,}"
                )

    def exhaustive_trials(self) -> int:
        """Trials an exhaustive sweep plans: prior pairs times evidence.

        The full-support priors over ``denominator_bound`` number
        C(D - 1, n - 1) on n states.  Evidence is every likelihood on the
        level grid but the all-zero ones (L^n - Z^n for L levels, Z of them
        zero) in one-shot mode, and every proper nonempty subset (2^n - 2),
        or the one pinned set, in limit mode.  Under ``strong`` the pairs
        that are not strongly ordered are skipped, so this is an upper bound.
        """
        if self.denominator_bound is None:
            raise ValueError("exhaustive_trials needs a denominator_bound")
        n = math.prod(self.dims)
        priors = math.comb(self.denominator_bound - 1, n - 1)
        if self.mode is Mode.ONE_SHOT:
            zeros = sum(1 for v in self.likelihood_levels if v == 0)
            evidence = len(self.likelihood_levels) ** n - zeros**n
        elif self.identified_set is not None:
            evidence = 1
        else:
            evidence = 2**n - 2
        return priors * priors * evidence

    @property
    def space(self) -> StateSpace:
        return StateSpace.grid(*self.dims)


@dataclass(frozen=True)
class SweepHit:
    """One trial where the cell's polarization predicate fired; its report
    holds the trial's priors and evidence."""

    report: PolarizationReport

    def replay(self) -> PolarizationReport:
        """Re-decide the report from its inputs."""
        return replace(self.report)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    trials_run: int
    counterexamples: tuple[SweepHit, ...]
    elapsed: float

    @property
    def found_any(self) -> bool:
        return bool(self.counterexamples)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Positive integer vectors of the given length and sum, lexicographically.

    Stars and bars: the entries are the gaps between ``parts - 1`` ascending
    cut points chosen from ``1 .. total - 1``.
    """
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _exhaustive_priors(space: StateSpace, denominator: int) -> list[Belief]:
    return [
        Belief(space, nums, denominator)
        for nums in _compositions(denominator, space.size)
    ]


def _exhaustive_likelihoods(
    space: StateSpace, levels: tuple[Fraction, ...]
) -> list[LikelihoodFn]:
    out = []
    for values in _cartesian(levels, repeat=space.size):
        if any(v > 0 for v in values):
            out.append(LikelihoodFn.from_fractions(space, values))
    return out


def _draw_weights(rng: random.Random, size: int, bound: int) -> list[int]:
    """``[rng.randint(1, bound) for _ in range(size)]``, draw for draw.

    CPython's ``randint(1, bound)`` is ``1 + rng._randbelow(bound)``: it draws
    ``bound.bit_length()`` random bits until they fall below ``bound``.  The
    loop is inlined here to skip ``randrange``'s argument checks, so
    ``bound`` must be at least 1 (``SweepConfig`` checks ``mass_bound``).
    """
    k = bound.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(size):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r + 1)
    return out


def _random_belief(rng: random.Random, space: StateSpace, bound: int) -> Belief:
    return Belief.from_weights(space, _draw_weights(rng, space.size, bound))


def _random_likelihood(
    rng: random.Random, space: StateSpace, levels: tuple[Fraction, ...]
) -> LikelihoodFn:
    nums, den = over_common_denominator(levels)
    # _draw_weights(rng, k, n) draws 1 + rng.randrange(n), k times over
    picks = [nums[i - 1] for i in _draw_weights(rng, space.size, len(nums))]
    if not any(picks):
        picks[rng.randrange(space.size)] = den
    return LikelihoodFn(space, tuple(picks), den)


def _random_strong_pair(
    rng: random.Random, space: StateSpace, bound: int
) -> tuple[Belief, Belief]:
    """Rejection-sample a strongly coordinatewise ordered full-support pair.

    Each draw is two weight vectors, tested in both directions on the raw
    integers; only the accepted pair becomes ``Belief``s.
    """
    size = space.size
    while True:
        a = _draw_weights(rng, size, bound)
        b = _draw_weights(rng, size, bound)
        sa, sb = sum(a), sum(b)
        if _cdf_failure(space, a, sa, b, sb) is None:
            return Belief(space, tuple(a), sa), Belief(space, tuple(b), sb)
        if _cdf_failure(space, b, sb, a, sa) is None:
            return Belief(space, tuple(b), sb), Belief(space, tuple(a), sa)


def _trials(
    config: SweepConfig, space: StateSpace
) -> Iterator[tuple[Belief, Belief, Evidence]]:
    """The plan's trials on ``space``: prior pair and evidence.

    The evidence is a likelihood in one-shot mode and a set in limit mode.
    Exhaustive mode runs every prior pair (strongly ordered ones only, under
    ``strong``) against every piece of evidence.  Random mode draws trial
    ``t`` from its own generator seeded ``f"{seed}:{t}"``: the prior pair,
    then the likelihood or, unless one is pinned, the evidence set.
    """
    one_shot_mode = config.mode is Mode.ONE_SHOT
    pinned = (
        StateSubset.from_states(space, config.identified_set)
        if config.identified_set is not None
        else None
    )
    if config.denominator_bound is not None:
        priors = _exhaustive_priors(space, config.denominator_bound)
        if one_shot_mode:
            evidence = _exhaustive_likelihoods(space, config.likelihood_levels)
        elif pinned is not None:
            evidence = [pinned]
        else:
            evidence = [StateSubset(space, mask) for mask in range(1, space.full_mask)]
        for pl in priors:
            for ph in priors:
                if config.strong and not compare_strong_cw(pl, ph):
                    continue
                for ev in evidence:
                    yield pl, ph, ev
        return

    for t in range(config.trials):
        rng = random.Random(f"{config.seed}:{t}")
        if config.strong:
            pl, ph = _random_strong_pair(rng, space, config.mass_bound)
        else:
            pl = _random_belief(rng, space, config.mass_bound)
            ph = _random_belief(rng, space, config.mass_bound)
        if one_shot_mode:
            yield pl, ph, _random_likelihood(rng, space, config.likelihood_levels)
        elif pinned is not None:
            yield pl, ph, pinned
        else:
            yield pl, ph, StateSubset(space, rng.randrange(1, space.full_mask))


def _search(
    config: SweepConfig, space: StateSpace, predicate: Callable[..., object]
) -> tuple[int, list, float]:
    """The plan's trials on ``space`` run through ``predicate``: the trial
    count, every outcome but ``None`` in trial order, and the seconds taken."""
    start = time.perf_counter()
    outcomes = []
    trials_run = 0
    for pl, ph, evidence in _trials(config, space):
        trials_run += 1
        outcome = predicate(pl, ph, evidence)
        if outcome is not None:
            outcomes.append(outcome)
    return trials_run, outcomes, time.perf_counter() - start


def sweep(config: SweepConfig) -> SweepReport:
    """Run one cell's search and collect every polarization hit."""

    def trial(pl: Belief, ph: Belief, evidence: Evidence) -> Optional[SweepHit]:
        # one_shot and limit are module globals, looked up per trial, so a
        # hook that rebinds them here sees every trial.
        if config.mode is Mode.ONE_SHOT:
            report = one_shot(config.kind, pl, ph, evidence)
        else:
            report = limit(config.kind, pl, ph, evidence, strong_middle=config.strong)
        return SweepHit(report) if report.verdict else None

    trials_run, hits, elapsed = _search(config, config.space, trial)
    return SweepReport(config, trials_run, tuple(hits), elapsed)


# ---------------------------------------------------------------------------
# Direction-consistency sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionViolation:
    prior: Belief
    prior_other: Belief
    likelihood: LikelihoodFn
    extremes_agree: bool
    crossing_pairs: tuple


@dataclass(frozen=True)
class DirectionSweepReport:
    config: SweepConfig
    trials_run: int
    skipped_constant: int
    violations: tuple[DirectionViolation, ...]
    elapsed: float


def direction_consistency_sweep(config: SweepConfig) -> DirectionSweepReport:
    """Check the two direction restrictions on posterior movements.

    At min- and max-likelihood states both agents must move the same way, and
    a strict one-way crossing forbids even weakly opposite movement anywhere.
    The state structure is irrelevant here, so ``dims`` may describe a plain
    finite set via a single axis (the grid order is never consulted).
    Trials are the one-shot sweep's, random or exhaustive; constant
    likelihoods move nothing and are skipped.
    """
    if config.mode is not Mode.ONE_SHOT:
        raise ValueError("mode must be oneshot: the direction sweep draws likelihoods")
    skipped = 0

    def trial(p: Belief, p_other: Belief, ell: LikelihoodFn) -> Optional[DirectionViolation]:
        nonlocal skipped
        if ell.is_constant:
            skipped += 1
            return None
        outcome = direction_analysis(p, p_other, ell)
        if outcome.consistent:
            return None
        return DirectionViolation(p, p_other, ell, outcome.extremes_agree, outcome.crossing_pairs)

    trials_run, violations, elapsed = _search(config, config.space, trial)
    return DirectionSweepReport(config, trials_run, skipped, tuple(violations), elapsed)


def opposite_direction_witness(space: StateSpace) -> tuple[Belief, Belief, LikelihoodFn]:
    """Three-level likelihood instance where all non-extreme states split.

    One agent concentrates on the max-likelihood state and the other on the
    min-likelihood state, so their expected likelihoods straddle the middle
    level and every middle state moves opposite ways.
    """
    size = space.size
    if size < 3:
        raise ValueError("need at least three states")
    lo_flat, hi_flat = 0, size - 1
    values = [Fraction(1, 2)] * size
    values[lo_flat] = Fraction(1, 4)
    values[hi_flat] = Fraction(1)
    ell = LikelihoodFn.from_fractions(space, values)
    heavy_top = [1] * size
    heavy_top[hi_flat] = 8 * size
    heavy_bottom = [1] * size
    heavy_bottom[lo_flat] = 8 * size
    return (
        Belief.from_weights(space, heavy_top),
        Belief.from_weights(space, heavy_bottom),
        ell,
    )
