"""Polarization detectors: does common evidence drive two agents apart?

Polarization in a given order means the chain

    posterior_low  <  prior_low  <  prior_high  <  posterior_high

holds strictly, so the low agent moves down and the high agent moves up while
the priors sit strictly ordered between them.  The evidence is a likelihood
(one-shot mode: one Bayes update) or an identified set (limit mode: the prior
conditioned on it).  Reports carry witness events and a per-state direction
table so failures are debuggable.

A ``PolarizationReport`` is a frozen dataclass of the chain's inputs, and
making it, by ``one_shot``, by ``limit`` or directly, validates every input
and, in the coordinatewise limit cells, runs the conditional-reduction
self-check.  Making it settles ``low_drop`` and ``verdict``, link by link in
chain order (``low_drop``, the middle link, ``high_rise``), and the verdict
stops at the first link that fails.  The two posterior links and the
direction table are read off ``bayes._movement``, the integer vector that is
a positive multiple of posterior − prior, so no posterior ``Belief`` is built
for them and a miss builds none at all.  The links the verdict did not reach,
both posteriors and the direction table are computed on first access and
cached.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Union

from .bayes import Evidence, LikelihoodFn, _movement, _posterior
from .core import Belief, State, StateSubset, _require_subset
from .orders import (
    DominanceVerdict,
    Strictness,
    StrongCwVerdict,
    UpperFamilyKind,
    _cdf_failure,
    _check_member,
    _verdict_from_gaps,
    compare,
    compare_strong_cw,
)

class Mode(Enum):
    ONE_SHOT = "oneshot"
    LIMIT = "limit"


@dataclass(frozen=True)
class DirectionTable:
    """Sign of posterior-minus-prior per state, for each agent."""

    states: tuple[State, ...]
    low_signs: tuple[int, ...]
    high_signs: tuple[int, ...]

    def rows(self) -> tuple[tuple[State, int, int], ...]:
        return tuple(zip(self.states, self.low_signs, self.high_signs))


def _movement_signs(prior: Belief, evidence: Evidence) -> tuple[int, ...]:
    """Sign of posterior − prior per state, off ``_movement``."""
    return tuple([(g > 0) - (g < 0) for g in _movement(prior, evidence)])


def _middle_holds(prior_gap: Union[DominanceVerdict, StrongCwVerdict]) -> bool:
    if isinstance(prior_gap, StrongCwVerdict):
        return prior_gap.holds
    return prior_gap.strictly_below


def _posterior_link(
    kind: UpperFamilyKind,
    prior: Belief,
    evidence: Evidence,
    strictness: Strictness,
    rise: bool,
) -> DominanceVerdict:
    """``compare(posterior, prior)``, or with ``rise`` ``compare(prior,
    posterior)``, without building the posterior.

    The gaps ``compare`` forms are a positive multiple of ``_movement``, or
    of its negation for the high link, so the relation and both witnesses
    come out the same.
    """
    w = _movement(prior, evidence)
    if rise:
        w = [-g for g in w]
    return _verdict_from_gaps(prior.space, kind, w, strictness)


@dataclass(frozen=True)
class PolarizationReport:
    """One chain's verdict, its three links and the per-state directions.

    The fields are the chain's inputs and what making the report settles:
    ``low_drop`` (posterior_low vs prior_low) and ``verdict``, which reads
    ``prior_gap`` and then ``high_rise`` only while the links before hold.
    ``evidence`` is a likelihood (one-shot) or an identified set (limit).
    Both priors must have full support on the evidence's space, an
    identified set must be nonempty, and ``strong_middle`` is a ``bool``
    that, when set, demands the coordinatewise order; any other input raises
    ``ValueError``.  In the coordinatewise order on a proper identified set,
    making the report also decides ``high_rise`` and runs the
    conditional-reduction self-check.

    A report is a pure function of its inputs, so equal inputs give equal
    reports, and ``dataclasses.replace`` re-decides one.  ``prior_gap``,
    ``high_rise``, both posteriors (by ``update`` or ``limit_posterior``)
    and ``directions`` are computed on first access and cached;
    ``cached_property`` writes to the instance ``__dict__``, past the frozen
    ``__setattr__``, and ``__post_init__`` writes there the same way.
    """

    kind: UpperFamilyKind
    prior_low: Belief
    prior_high: Belief
    evidence: Evidence
    strong_middle: bool
    strictness: Strictness
    low_drop: DominanceVerdict = field(init=False)
    verdict: bool = field(init=False)

    def __post_init__(self) -> None:
        kind, pl, ph, evidence = self.kind, self.prior_low, self.prior_high, self.evidence
        _check_member("kind", kind, UpperFamilyKind)
        _check_member("strictness", self.strictness, Strictness)
        limit_mode = isinstance(evidence, StateSubset)
        if not (limit_mode or isinstance(evidence, LikelihoodFn)):
            raise ValueError(
                f"evidence must be a LikelihoodFn or a StateSubset, got {type(evidence).__name__}"
            )
        if not (pl.full_support and ph.full_support):
            mode = "limit" if limit_mode else "one-shot"
            raise ValueError(f"{mode} polarization requires full-support priors")
        if limit_mode and evidence.is_empty:
            raise ValueError("identified set is empty")
        if not isinstance(self.strong_middle, bool):
            raise ValueError(f"strong_middle must be a bool, got {self.strong_middle!r}")
        cw = kind is UpperFamilyKind.UPPER_PROJECTION
        if self.strong_middle and not cw:
            raise ValueError("strong middle link is defined for the coordinatewise order")
        # No posterior is built here, so check what building them would: both
        # priors live on the evidence's space.  A likelihood that rules them
        # out is refused by the low link.
        if pl.space != evidence.space or ph.space != evidence.space:
            raise ValueError(
                "subset lives on a different space"
                if limit_mode
                else "prior and likelihood live on different spaces"
            )
        cache = self.__dict__
        cache["low_drop"] = low_drop = _posterior_link(
            kind, pl, evidence, self.strictness, False
        )
        if cw and limit_mode and evidence.is_proper:
            # The self-check reads the high link, so decide it now.
            cache["high_rise"] = high_rise = _posterior_link(
                kind, ph, evidence, self.strictness, True
            )
            _check_conditional_reduction(pl, ph, evidence, low_drop, high_rise)
        cache["verdict"] = (
            low_drop.strictly_below
            and _middle_holds(self.prior_gap)
            and self.high_rise.strictly_below
        )

    @property
    def mode(self) -> Mode:
        return Mode.ONE_SHOT if isinstance(self.evidence, LikelihoodFn) else Mode.LIMIT

    @property
    def identified_set(self) -> Optional[StateSubset]:
        return None if isinstance(self.evidence, LikelihoodFn) else self.evidence

    @cached_property
    def prior_gap(self) -> Union[DominanceVerdict, StrongCwVerdict]:
        if self.strong_middle:
            return compare_strong_cw(self.prior_low, self.prior_high)
        return compare(self.prior_low, self.prior_high, self.kind, self.strictness)

    @cached_property
    def high_rise(self) -> DominanceVerdict:
        """prior_high vs posterior_high"""
        return _posterior_link(
            self.kind, self.prior_high, self.evidence, self.strictness, True
        )

    @cached_property
    def posterior_low(self) -> Belief:
        return _posterior(self.prior_low, self.evidence)

    @cached_property
    def posterior_high(self) -> Belief:
        return _posterior(self.prior_high, self.evidence)

    @cached_property
    def directions(self) -> DirectionTable:
        pl, ph, evidence = self.prior_low, self.prior_high, self.evidence
        return DirectionTable(
            pl.space.states,
            _movement_signs(pl, evidence),
            _movement_signs(ph, evidence),
        )

    @property
    def checks(self) -> dict[str, bool]:
        return {
            "low_drop": self.low_drop.strictly_below,
            "prior_gap": _middle_holds(self.prior_gap),
            "high_rise": self.high_rise.strictly_below,
        }


def _require_likelihood(ell: LikelihoodFn) -> None:
    """Refuse one-shot evidence that is not a likelihood, naming ``ell``."""
    if not isinstance(ell, LikelihoodFn):
        raise ValueError(f"ell must be a LikelihoodFn, got {type(ell).__name__}")


def one_shot(
    kind: UpperFamilyKind,
    prior_low: Belief,
    prior_high: Belief,
    ell: LikelihoodFn,
    strictness: Strictness = Strictness.ONE_EVENT,
) -> PolarizationReport:
    """Polarization verdict after both agents observe one realization."""
    _require_likelihood(ell)
    return PolarizationReport(kind, prior_low, prior_high, ell, False, strictness)


def limit(
    kind: UpperFamilyKind,
    prior_low: Belief,
    prior_high: Belief,
    identified: StateSubset,
    strong_middle: bool = False,
    strictness: Strictness = Strictness.ONE_EVENT,
) -> PolarizationReport:
    """Polarization verdict for limit posteriors given an identified set.

    With ``strong_middle`` the middle link demands strong coordinatewise
    dominance between the priors (the strong polarization notion); ``kind``
    must then be the coordinatewise order.
    """
    _require_subset(identified, "identified")
    return PolarizationReport(
        kind, prior_low, prior_high, identified, strong_middle, strictness
    )


def _reduced_links(
    pl: Belief, ph: Belief, identified: StateSubset
) -> tuple[bool, bool]:
    """Whether ``pl|I ≤CW pl|Iᶜ`` and whether ``ph|Iᶜ ≤CW ph|I``, for a
    proper identified set ``I``, without building a conditional ``Belief``.

    A prior mixes its two conditionals with weights in (0, 1), so ``prior|I
    ≤CW prior|Iᶜ`` iff ``prior|I ≤CW prior``: a weak marginal-cdf gap, read
    on the numerators masked to ``I`` and on all of them.
    """
    mask, space = identified.mask, pl.space
    low_in = [n if mask >> f & 1 else 0 for f, n in enumerate(pl.nums)]
    high_in = [n if mask >> f & 1 else 0 for f, n in enumerate(ph.nums)]
    return (
        _cdf_failure(space, low_in, sum(low_in), pl.nums, pl.den, False) is None,
        _cdf_failure(space, ph.nums, ph.den, high_in, sum(high_in), False) is None,
    )


def _check_conditional_reduction(
    pl: Belief,
    ph: Belief,
    identified: StateSubset,
    low_drop: DominanceVerdict,
    high_rise: DominanceVerdict,
) -> None:
    """Posterior-vs-prior coordinatewise dominance must match the dominance of
    the prior's two conditionals (on the set and on its complement).

    With ``a = pl|I``, ``b = pl|Iᶜ``, ``c = ph|I`` and ``d = ph|Iᶜ``, the
    direct ``ql ≤CW pl`` must equal ``a ≤CW b`` and ``ph ≤CW qh`` must equal
    ``d ≤CW c``.  The direct links come from ``_posterior_link``, a table of
    suffix sums along the cover edges; the reduced ones from
    ``_reduced_links``, per-axis cdfs through ``orders._cdf_failure``.  The
    two sides share no code.
    """
    low_reduced, high_reduced = _reduced_links(pl, ph, identified)
    if low_drop.weakly_below != low_reduced or high_rise.weakly_below != high_reduced:
        raise AssertionError(
            "internal error: conditional reduction disagrees with direct comparison"
        )


@dataclass(frozen=True)
class DirectionAnalysis:
    table: DirectionTable
    min_likelihood_states: tuple[State, ...]
    max_likelihood_states: tuple[State, ...]
    extremes_agree: bool
    crossing_pairs: tuple[tuple[State, State], ...]

    @property
    def consistent(self) -> bool:
        return self.extremes_agree and not self.crossing_pairs


def direction_analysis(
    prior: Belief, prior_other: Belief, ell: LikelihoodFn
) -> DirectionAnalysis:
    """Per-state movement directions for two agents observing one realization.

    Checks two structural facts: at every minimum- and maximum-likelihood
    state the agents move together (whenever beliefs move at all), and
    opposite-direction movement never occurs in both orientations.  Either
    violation would indicate an arithmetic bug, so they are reported rather
    than silently ignored.
    """
    _require_likelihood(ell)
    if prior.space != prior_other.space:
        raise ValueError("priors live on different spaces")
    if not (prior.full_support and prior_other.full_support):
        raise ValueError("direction analysis requires full-support priors")
    space = prior.space
    if ell.space != space:
        raise ValueError("prior and likelihood live on different spaces")
    signs = _movement_signs(prior, ell)
    signs_other = _movement_signs(prior_other, ell)
    lo, hi = min(ell.nums), max(ell.nums)
    argmin = [f for f, n in enumerate(ell.nums) if n == lo]
    argmax = [f for f, n in enumerate(ell.nums) if n == hi]
    # Unless nothing moves, both agents move weakly down at every
    # minimum-likelihood state and weakly up at every maximum-likelihood one.
    extremes_agree = not (any(signs) or any(signs_other)) or (
        all(signs[f] <= 0 and signs_other[f] <= 0 for f in argmin)
        and all(signs[f] >= 0 and signs_other[f] >= 0 for f in argmax)
    )

    # A strict one-way crossing (a state where the agents move weakly apart
    # and not both stay) forbids even weakly opposite movement anywhere.
    weak_down_up = [f for f in range(space.size) if signs[f] <= 0 <= signs_other[f]]
    weak_up_down = [f for f in range(space.size) if signs[f] >= 0 >= signs_other[f]]
    states = space.states
    crossings = [
        (states[f], states[g])
        for one_way, opposite in ((weak_down_up, weak_up_down), (weak_up_down, weak_down_up))
        for f in one_way
        if signs[f] or signs_other[f]
        for g in opposite
    ]
    return DirectionAnalysis(
        table=DirectionTable(states, signs, signs_other),
        min_likelihood_states=tuple([states[f] for f in argmin]),
        max_likelihood_states=tuple([states[f] for f in argmax]),
        extremes_agree=extremes_agree,
        crossing_pairs=tuple(crossings),
    )
