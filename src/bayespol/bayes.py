"""Bayesian updating on finite grids: signals, posteriors, and limits.

A likelihood function gives each state's probability of one signal
realization; a signal is a realization-indexed family of likelihoods that
sums to one at every state.  Repeated i.i.d. observation drives the posterior
to the prior conditioned on the identified set (the states observationally
equivalent to the truth), so limit behavior reduces to a single conditioning.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .core import (
    Belief,
    RationalLike,
    State,
    StateSpace,
    StateSubset,
    _INT,
    _refuse_non_int,
    over_common_denominator,
)


@dataclass(frozen=True)
class LikelihoodFn:
    """Per-state probability of one signal realization, in [0, 1]."""

    space: StateSpace
    nums: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if len(self.nums) != self.space.size:
            raise ValueError(f"expected {self.space.size} likelihood values")
        if not (_INT.issuperset(map(type, self.nums)) and type(self.den) is int):
            _refuse_non_int(self.nums, self.den)
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if any(n < 0 or n > self.den for n in self.nums):
            raise ValueError("likelihood values must lie in [0, 1]")
        if all(n == 0 for n in self.nums):
            raise ValueError("likelihood must be positive somewhere")
        g = math.gcd(self.den, *self.nums)
        if g > 1:
            object.__setattr__(self, "nums", tuple([n // g for n in self.nums]))
            object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_fractions(
        space: StateSpace, values: Iterable[RationalLike]
    ) -> "LikelihoodFn":
        return LikelihoodFn(space, *over_common_denominator(values))

    @staticmethod
    def indicator(space: StateSpace, subset: StateSubset) -> "LikelihoodFn":
        if subset.space != space:
            raise ValueError("subset lives on a different space")
        nums = tuple(1 if subset.contains_flat(f) else 0 for f in range(space.size))
        return LikelihoodFn(space, nums, 1)

    def value(self, state: State) -> Fraction:
        return Fraction(self.nums[self.space.flat(tuple(state))], self.den)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_constant(self) -> bool:
        return len(set(self.nums)) == 1

    def support(self) -> StateSubset:
        return StateSubset.from_flats(
            self.space, (f for f, n in enumerate(self.nums) if n > 0)
        )


@dataclass(frozen=True)
class Signal:
    """Realization-indexed family of likelihoods summing to one per state."""

    space: StateSpace
    realizations: tuple[str, ...]
    table: tuple[LikelihoodFn, ...]

    def __post_init__(self) -> None:
        if len(self.realizations) != len(self.table):
            raise ValueError("one likelihood per realization required")
        if len(set(self.realizations)) != len(self.realizations):
            raise ValueError("duplicate realization labels")
        for ell in self.table:
            if ell.space != self.space:
                raise ValueError("likelihood on a different space")
        for f in range(self.space.size):
            total = sum(Fraction(ell.nums[f], ell.den) for ell in self.table)
            if total != 1:
                state = self.space.state_at(f)
                raise ValueError(
                    f"realization probabilities at state {state} sum to {total}"
                )

    @staticmethod
    def partitional(
        space: StateSpace,
        cells: Sequence[StateSubset],
        labels: Optional[Sequence[str]] = None,
    ) -> "Signal":
        """Signal revealing which cell of a partition contains the state."""
        seen = 0
        for cell in cells:
            if cell.space != space:
                raise ValueError("subset lives on a different space")
            if cell.is_empty:
                raise ValueError("empty partition cell")
            if cell.mask & seen:
                raise ValueError("partition cells overlap")
            seen |= cell.mask
        if seen != space.full_mask:
            raise ValueError("partition cells do not cover the space")
        if labels is None:
            labels = tuple(f"g{i}" for i in range(len(cells)))
        table = tuple(LikelihoodFn.indicator(space, cell) for cell in cells)
        return Signal(space, tuple(labels), table)

    @staticmethod
    def reveal_set(
        space: StateSpace, subset: StateSubset, lump_complement: bool = True
    ) -> "Signal":
        """Partitional signal whose cell at ``subset`` is the set itself.

        Outside the set the signal may either lump the complement into one
        cell or reveal each state; the polarization verdict for realizations
        inside the set is the same either way.
        """
        if subset.is_empty or subset.mask == space.full_mask:
            raise ValueError("subset must be a proper nonempty set")
        cells = [subset]
        if lump_complement:
            cells.append(subset.complement())
        else:
            cells.extend(
                StateSubset.from_flats(space, (f,))
                for f in subset.complement().flats()
            )
        return Signal.partitional(space, cells)

    def likelihood_for(self, label: str) -> LikelihoodFn:
        return self.table[self.realizations.index(label)]

    def row(self, state: State) -> tuple[Fraction, ...]:
        """Realization distribution at one state."""
        f = self.space.flat(tuple(state))
        return tuple(Fraction(ell.nums[f], ell.den) for ell in self.table)


# ---------------------------------------------------------------------------
# Updating
# ---------------------------------------------------------------------------


# What both agents observe: one realization's likelihood (one-shot), or the
# identified set the long run reveals (limit).
Evidence = Union[LikelihoodFn, StateSubset]


def _posterior_nums(prior: Belief, evidence: Evidence) -> tuple[list[int], int]:
    """Unnormalized posterior numerators and their sum: ``p·ℓ`` for a
    likelihood, ``p`` masked to the set for limit evidence."""
    nums = prior.nums
    if isinstance(evidence, LikelihoodFn):
        post = list(map(mul, nums, evidence.nums))
    else:
        mask = evidence.mask
        post = [n if mask >> f & 1 else 0 for f, n in enumerate(nums)]
    total = sum(post)
    if not total:
        raise ValueError("zero evidence probability: the evidence rules out the prior")
    return post, total


def _movement(prior: Belief, evidence: Evidence) -> list[int]:
    """``j·D − n·t`` per state, ``t·D`` times posterior − prior: ``j`` and
    ``t`` are ``_posterior_nums``'s numerators and their sum, ``n`` and ``D``
    the prior's.  Every test of how evidence moves a prior reads this."""
    joint, total = _posterior_nums(prior, evidence)
    den = prior.den
    return [j * den - n * total for j, n in zip(joint, prior.nums)]


def update(prior: Belief, ell: LikelihoodFn) -> Belief:
    """One Bayes step: posterior proportional to prior times likelihood."""
    if prior.space != ell.space:
        raise ValueError("prior and likelihood live on different spaces")
    nums, total = _posterior_nums(prior, ell)
    return Belief(prior.space, tuple(nums), total)


def posterior_increases(prior: Belief, ell: LikelihoodFn, event: StateSubset) -> bool:
    """Whether one update raises the probability of ``event``.

    Evaluated two independent ways: direct mass comparison, and the
    conditional-expectation test E[l | event] > E[l].  Disagreement would be
    an arithmetic bug, so it raises.
    """
    if event.space != prior.space:
        raise ValueError("event lives on a different space")
    flats = event.flats()
    p_event = prior.num_on(flats)
    if p_event == 0:
        raise ValueError("conditioning on null event")
    direct = update(prior, ell).prob(event) > prior.prob(event)

    # E[l | A] > E[l]  <=>  sum_A p*l * sum_Theta p  >  sum_Theta p*l * sum_A p
    weighted, total = _posterior_nums(prior, ell)
    lhs = sum(weighted[f] for f in flats) * prior.den
    rhs = total * p_event
    by_expectation = lhs > rhs
    if direct is not by_expectation:
        raise AssertionError(
            "internal error: mass and expectation tests disagree"
        )
    return direct


def identified_set(sig: Signal, truth: State) -> StateSubset:
    """States whose realization distribution matches the truth's exactly."""
    target = sig.row(truth)
    flats = [
        f
        for f, state in enumerate(sig.space.states)
        if sig.row(state) == target
    ]
    return StateSubset.from_flats(sig.space, flats)


def limit_posterior(prior: Belief, identified: StateSubset) -> Belief:
    """Long-run posterior: the prior conditioned on the identified set."""
    if identified.is_empty:
        raise ValueError("identified set is empty")
    return prior.condition(identified)


def _posterior(prior: Belief, evidence: Evidence) -> Belief:
    """``update`` on a likelihood, ``limit_posterior`` on an identified set."""
    if isinstance(evidence, LikelihoodFn):
        return update(prior, evidence)
    return limit_posterior(prior, evidence)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    realization: Optional[str]
    posterior: Belief
    tv_to_limit: Fraction


def simulate(
    prior: Belief,
    sig: Signal,
    truth: State,
    horizon: int,
    seed: int,
) -> list[TrajectoryRecord]:
    """Draw i.i.d. realizations from the truth's row and update sequentially.

    Deterministic given the seed.  Record 0 is the prior; each later record
    carries the drawn realization, the exact posterior, and its total
    variation distance to the limit posterior.
    """
    if type(horizon) is not int:
        raise TypeError(f"horizon must be an int, got {horizon!r}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not prior.full_support:
        raise ValueError("simulation requires a full-support prior")
    rng = random.Random(seed)
    limit = limit_posterior(prior, identified_set(sig, truth))

    row_nums, den = over_common_denominator(sig.row(truth))
    thresholds = list(accumulate(row_nums))

    def draw() -> int:
        u = rng.randrange(den)
        for k, bound in enumerate(thresholds):
            if u < bound:
                return k
        raise AssertionError("unreachable: thresholds cover the range")

    records = [TrajectoryRecord(0, None, prior, prior.tv_distance(limit))]
    posterior = prior
    for t in range(1, horizon + 1):
        k = draw()
        posterior = update(posterior, sig.table[k])
        records.append(
            TrajectoryRecord(
                t, sig.realizations[k], posterior, posterior.tv_distance(limit)
            )
        )
    return records
