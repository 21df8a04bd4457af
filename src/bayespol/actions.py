"""From beliefs to actions: expected-utility divergence.

Actions are monotone in expected utility, so action polarization for a group
of agents reduces to the low group's expected utilities strictly falling and
the high group's strictly rising under common evidence.  Whether that can
happen for every utility in a family turns on the stochastic order the family
generates: additively separable utilities inherit the coordinatewise
possibility results, while families with strong complementarities inherit the
impossibility results.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .bayes import Evidence, LikelihoodFn, _posterior, _posterior_nums, limit_posterior
from .core import (
    Belief,
    RationalLike,
    StateSpace,
    StateSubset,
    frac,
    over_common_denominator,
)
from .construct import (
    ConstructionResult,
    OneShotOrthantInstance,
    find_one_shot_orthant_instance,
    mirror_extremes_instance,
    mirror_extremes_threshold,
)
from .orders import UpperFamilyKind, _generating_basis, in_generating_class
from .polarization import Mode
from .verifier import SweepConfig, _trials


class UtilityFamilyKind(Enum):
    SUMS_OF_INCREASING = "sums"
    PRODUCTS_OF_NONNEG_INCREASING = "products"
    INCREASING = "increasing"


_FAMILY_ORDER = {
    UtilityFamilyKind.SUMS_OF_INCREASING: UpperFamilyKind.UPPER_PROJECTION,
    UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING: UpperFamilyKind.UPPER_ORTHANT,
    UtilityFamilyKind.INCREASING: UpperFamilyKind.UPPER_SET,
}

_POSSIBLE_CELLS = {
    (UtilityFamilyKind.SUMS_OF_INCREASING, Mode.ONE_SHOT),
    (UtilityFamilyKind.SUMS_OF_INCREASING, Mode.LIMIT),
    (UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING, Mode.ONE_SHOT),
}


@dataclass(frozen=True)
class UtilityFn:
    """Per-state payoff with a declared family, verified at construction."""

    space: StateSpace
    values: tuple[Fraction, ...]
    kind: UtilityFamilyKind

    def __post_init__(self) -> None:
        values = tuple(frac(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise ValueError("one utility value per state required")
        if not in_generating_class(self.space, values, _FAMILY_ORDER[self.kind]):
            raise ValueError(f"values do not belong to the {self.kind.value} family")

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    def expectation(self, belief: Belief) -> Fraction:
        return belief.expectation(self.values)


@dataclass(frozen=True)
class ActionMovement:
    """Expected-utility movements for both groups under one piece of evidence."""

    low_before: Fraction
    low_after: Fraction
    high_before: Fraction
    high_after: Fraction

    @property
    def low_moves_down(self) -> bool:
        return self.low_after < self.low_before

    @property
    def high_moves_up(self) -> bool:
        return self.high_after > self.high_before

    @property
    def polarizes(self) -> bool:
        return self.low_moves_down and self.high_moves_up


def action_polarizes(
    u: UtilityFn, prior_low: Belief, prior_high: Belief, evidence: Evidence
) -> ActionMovement:
    """Movement of both groups' expected utilities under shared evidence."""
    if u.space != prior_low.space or prior_low.space != prior_high.space:
        raise ValueError("utility and priors must share one space")
    post_low = _posterior(prior_low, evidence)
    post_high = _posterior(prior_high, evidence)
    return ActionMovement(
        low_before=u.expectation(prior_low),
        low_after=u.expectation(post_low),
        high_before=u.expectation(prior_high),
        high_after=u.expectation(post_high),
    )


# ---------------------------------------------------------------------------
# Family-level search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySweepEvidence:
    trials: int
    seed: int
    hits: tuple[dict, ...]
    elapsed: float


@dataclass(frozen=True)
class FamilySearchOutcome:
    family: UtilityFamilyKind
    mode: Mode
    possible: bool
    instance: Optional[Union[ConstructionResult, OneShotOrthantInstance]]
    evidence_set: Optional[StateSubset]
    likelihood: Optional[LikelihoodFn]
    sweep: Optional[FamilySweepEvidence]


def _all_basis_movements_polarize(
    basis: Sequence[Sequence[Union[int, Fraction]]],
    prior_low: Belief,
    prior_high: Belief,
    evidence: Evidence,
) -> bool:
    """True iff every basis function's expectation strictly falls for the
    low agent and strictly rises for the high agent.

    ``E_q[u] < E_p[u]`` is tested as ``Σu·q · p.den < Σu·p.nums · Σq`` on the
    unnormalized posterior numerators ``q``, which is exact for rational
    ``u`` and pure integer arithmetic when ``u`` has integer entries.  No
    posterior ``Belief`` is built.
    """
    ql, qld = _posterior_nums(prior_low, evidence)
    qh, qhd = _posterior_nums(prior_high, evidence)
    pl, ph = prior_low.nums, prior_high.nums
    pld, phd = prior_low.den, prior_high.den
    for u in basis:
        if sum(map(mul, u, ql)) * pld >= sum(map(mul, u, pl)) * qld:
            return False
        if sum(map(mul, u, qh)) * phd <= sum(map(mul, u, ph)) * qhd:
            return False
    return True


def family_polarization_search(
    family: UtilityFamilyKind,
    mode: Mode,
    space: StateSpace,
    basis: Optional[Sequence[Sequence[RationalLike]]] = None,
    trials: int = 10_000,
    seed: int = 0,
    mass_bound: int = 12,
) -> FamilySearchOutcome:
    """Certified instance for the possible family/mode cells, sweep for the rest.

    For additively separable families any mode works: the mirror-extremes
    priors move every nonconstant member's expectations apart.  For the
    product family only the one-shot concentrated-priors instance exists.
    The remaining cells run the verifier's seeded random trials on ``space``
    (the family's order, ``trials``, ``seed`` and ``mass_bound``), counting
    trials where every basis member's expectations strictly diverge; the
    returned evidence records that none were found.
    """
    # Each function over its own positive common denominator: the same signs
    # in every comparison, and integer arithmetic in the predicate.
    funcs = tuple(
        over_common_denominator(u)[0]
        for u in _generating_basis(space, _FAMILY_ORDER[family], basis)
    )

    if (family, mode) in _POSSIBLE_CELLS:
        if family is UtilityFamilyKind.SUMS_OF_INCREASING:
            if space.size <= 2:
                raise ValueError("space must have more than two states")
            threshold = mirror_extremes_threshold(space)
            inst = mirror_extremes_instance(space, (threshold + 1) / 2)
            if not inst.certificate.verdict:
                raise AssertionError("internal error: mirror instance did not certify")
            identified = inst.certificate.identified_set
            ell = LikelihoodFn.indicator(space, identified)
            evidence: Evidence = identified if mode is Mode.LIMIT else ell
            if not _all_basis_movements_polarize(
                funcs, inst.prior_low, inst.prior_high, evidence
            ):
                raise AssertionError("internal error: basis movement check failed")
            return FamilySearchOutcome(
                family, mode, True, inst, identified, ell, None
            )
        inst = find_one_shot_orthant_instance(
            space, Fraction(1, 2), require_all_strict=True
        )
        if not _all_basis_movements_polarize(
            funcs, inst.prior_low, inst.prior_high, inst.likelihood
        ):
            raise AssertionError("internal error: basis movement check failed")
        return FamilySearchOutcome(family, mode, True, inst, None, inst.likelihood, None)

    config = SweepConfig(
        _FAMILY_ORDER[family], mode, space.shape,
        trials=trials, seed=seed, mass_bound=mass_bound,
    )
    start = time.perf_counter()
    hits: list[dict] = []
    for pl, ph, evidence in _trials(config, space):
        if _all_basis_movements_polarize(funcs, pl, ph, evidence):
            hits.append(
                {
                    "prior_low": pl,
                    "prior_high": ph,
                    "evidence": evidence,
                }
            )
    sweep = FamilySweepEvidence(
        trials=trials,
        seed=seed,
        hits=tuple(hits),
        elapsed=time.perf_counter() - start,
    )
    return FamilySearchOutcome(family, mode, False, None, None, None, sweep)


# ---------------------------------------------------------------------------
# Probability-magnitude tradeoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeoffRow:
    delta: Fraction
    magnitude: Fraction
    prob_identified: Fraction
    posterior_low: Belief
    posterior_high: Belief


def diagonal_tradeoff_priors(delta: RationalLike) -> tuple[Belief, Belief, StateSubset]:
    """Symmetric two-issue priors trading polarization odds against size.

    Both agents put weight 1-delta on the diagonal, split 3:1 toward opposite
    corners, and spread delta evenly off the diagonal; the identified set is
    the diagonal.
    """
    delta = frac(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    space = StateSpace.grid(2, 2)
    diagonal = StateSubset.from_states(space, [(0, 0), (1, 1)])
    half = delta / 2
    low = Belief.from_fractions(
        space, [(1 - delta) * Fraction(3, 4), half, half, (1 - delta) * Fraction(1, 4)]
    )
    high = Belief.from_fractions(
        space, [(1 - delta) * Fraction(1, 4), half, half, (1 - delta) * Fraction(3, 4)]
    )
    return low, high, diagonal


def tradeoff_curve(deltas: Sequence[RationalLike]) -> list[TradeoffRow]:
    """Magnitude and probability of diagonal polarization per mixing weight.

    Magnitude is the growth of the marginal belief gap at the low value;
    it equals delta/2 exactly, while the identified set's common prior
    probability is 1-delta.  Both identities are asserted, not assumed.
    """
    rows = []
    for d in deltas:
        low, high, diagonal = diagonal_tradeoff_priors(d)
        delta = frac(d)
        post_low = limit_posterior(low, diagonal)
        post_high = limit_posterior(high, diagonal)
        prior_gap = low.marginal(0).masses[0] - high.marginal(0).masses[0]
        post_gap = post_low.marginal(0).masses[0] - post_high.marginal(0).masses[0]
        magnitude = post_gap - prior_gap
        gap_axis1 = (
            post_low.marginal(1).masses[0] - post_high.marginal(1).masses[0]
        ) - (low.marginal(1).masses[0] - high.marginal(1).masses[0])
        if magnitude != gap_axis1:
            raise AssertionError("internal error: axis magnitudes disagree")
        if magnitude != delta / 2:
            raise AssertionError(f"internal error: magnitude {magnitude} != delta/2")
        prob = low.prob(diagonal)
        if prob != high.prob(diagonal) or prob != 1 - delta:
            raise AssertionError("internal error: identified-set probability off")
        rows.append(TradeoffRow(delta, magnitude, prob, post_low, post_high))
    return rows
