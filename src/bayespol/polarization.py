"""Polarization detectors: does common evidence drive two agents apart?

Polarization in a given order means the chain

    posterior_low  <  prior_low  <  prior_high  <  posterior_high

holds strictly, so the low agent moves down and the high agent moves up while
the priors sit strictly ordered between them.  One-shot mode updates on a
single likelihood; limit mode conditions on an identified set.  Reports carry
witness events and a per-state direction table so failures are debuggable.

``one_shot`` and ``limit`` validate every input up front, then evaluate the
links in chain order: ``low_drop``, the middle link, ``high_rise``.  The
verdict stops at the first link that fails, so most misses cost one posterior
and one ``compare``.  The report's other fields (the links the verdict did
not reach, the high posterior and the direction table) are computed on first
access and cached.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import compress
from typing import Callable, Optional, Union

from .bayes import LikelihoodFn, limit_posterior, update
from .core import Belief, State, StateSubset
from .orders import (
    DominanceVerdict,
    Strictness,
    StrongCwVerdict,
    UpperFamilyKind,
    _orthant_gaps,
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


def _movement_signs(prior: Belief, posterior: Belief) -> tuple[int, ...]:
    pd, qd = prior.den, posterior.den
    signs = []
    for p, q in zip(prior.nums, posterior.nums):
        diff = q * pd - p * qd
        signs.append(0 if diff == 0 else (1 if diff > 0 else -1))
    return tuple(signs)


_REPORT_FIELDS = (
    "kind",
    "mode",
    "verdict",
    "low_drop",
    "prior_gap",
    "high_rise",
    "directions",
    "strong_middle",
    "strictness",
    "posterior_low",
    "posterior_high",
    "identified_set",
)


def _middle_holds(prior_gap: Union[DominanceVerdict, StrongCwVerdict]) -> bool:
    if isinstance(prior_gap, StrongCwVerdict):
        return prior_gap.holds
    return prior_gap.strictly_below


class PolarizationReport:
    """One chain's verdict, its three links and the per-state directions.

    ``one_shot`` and ``limit`` make reports.  ``verdict`` is settled when the
    report is made, link by link in chain order (``low_drop``, then
    ``prior_gap``, then ``high_rise``), and stops at the first link that
    fails.  ``prior_gap``, ``high_rise``, ``posterior_high`` and
    ``directions`` are computed on first access and cached.  The report is
    immutable; ``==``, ``hash`` and ``repr`` cover the twelve fields of
    ``_REPORT_FIELDS``, so they force the lazy ones.
    """

    kind: UpperFamilyKind
    mode: Mode
    verdict: bool
    low_drop: DominanceVerdict            # posterior_low vs prior_low
    strong_middle: bool
    strictness: Strictness
    posterior_low: Belief
    identified_set: Optional[StateSubset]

    def __init__(
        self,
        kind: UpperFamilyKind,
        mode: Mode,
        prior_low: Belief,
        prior_high: Belief,
        posterior_low: Belief,
        high_posterior: Callable[[], Belief],
        strong_middle: bool,
        strictness: Strictness,
        identified_set: Optional[StateSubset] = None,
    ) -> None:
        self.__dict__.update(
            kind=kind,
            mode=mode,
            strong_middle=strong_middle,
            strictness=strictness,
            posterior_low=posterior_low,
            identified_set=identified_set,
            low_drop=compare(posterior_low, prior_low, kind, strictness),
            _prior_low=prior_low,
            _prior_high=prior_high,
            _high_posterior=high_posterior,
        )
        self.__dict__["verdict"] = (
            self.low_drop.strictly_below
            and _middle_holds(self.prior_gap)
            and self.high_rise.strictly_below
        )

    @cached_property
    def prior_gap(self) -> Union[DominanceVerdict, StrongCwVerdict]:
        if self.strong_middle:
            return compare_strong_cw(self._prior_low, self._prior_high)
        return compare(self._prior_low, self._prior_high, self.kind, self.strictness)

    @cached_property
    def posterior_high(self) -> Belief:
        return self._high_posterior()

    @cached_property
    def high_rise(self) -> DominanceVerdict:
        """prior_high vs posterior_high"""
        return compare(self._prior_high, self.posterior_high, self.kind, self.strictness)

    @cached_property
    def directions(self) -> DirectionTable:
        pl, ph = self._prior_low, self._prior_high
        return DirectionTable(
            pl.space.states,
            _movement_signs(pl, self.posterior_low),
            _movement_signs(ph, self.posterior_high),
        )

    @property
    def checks(self) -> dict[str, bool]:
        return {
            "low_drop": self.low_drop.strictly_below,
            "prior_gap": _middle_holds(self.prior_gap),
            "high_rise": self.high_rise.strictly_below,
        }

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in _REPORT_FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in _REPORT_FIELDS)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def one_shot(
    kind: UpperFamilyKind,
    prior_low: Belief,
    prior_high: Belief,
    ell: LikelihoodFn,
    strictness: Strictness = Strictness.ONE_EVENT,
) -> PolarizationReport:
    """Polarization verdict after both agents observe one realization."""
    if not (prior_low.full_support and prior_high.full_support):
        raise ValueError("one-shot polarization requires full-support priors")
    ql = update(prior_low, ell)
    # The high posterior is lazy, so check now what building it would:
    # with both priors of full support on the likelihood's space, it exists.
    if prior_high.space != ell.space:
        raise ValueError("prior and likelihood live on different spaces")
    return PolarizationReport(
        kind,
        Mode.ONE_SHOT,
        prior_low,
        prior_high,
        ql,
        partial(update, prior_high, ell),
        False,
        strictness,
    )


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
    if not (prior_low.full_support and prior_high.full_support):
        raise ValueError("limit polarization requires full-support priors")
    if identified.is_empty:
        raise ValueError("identified set is empty")
    if strong_middle and kind is not UpperFamilyKind.UPPER_PROJECTION:
        raise ValueError("strong middle link is defined for the coordinatewise order")
    ql = limit_posterior(prior_low, identified)
    if prior_high.space != identified.space:
        raise ValueError("subset lives on a different space")
    report = PolarizationReport(
        kind,
        Mode.LIMIT,
        prior_low,
        prior_high,
        ql,
        partial(limit_posterior, prior_high, identified),
        strong_middle,
        strictness,
        identified,
    )
    if kind is UpperFamilyKind.UPPER_PROJECTION and identified.is_proper:
        _check_conditional_reduction(prior_low, prior_high, identified, report)
    return report


def _reduced_links(
    pl: Belief, ph: Belief, identified: StateSubset
) -> tuple[bool, bool]:
    """Whether ``pl|I ≤CW pl|Iᶜ`` and whether ``ph|Iᶜ ≤CW ph|I``, for a
    proper identified set ``I``, read on the priors' integer numerators.

    Each prior's numerators split by the set's mask into the part on ``I``,
    with sum ``s_in``, and the part off it, with sum ``s_out``.  Over the
    common denominator ``s_in·s_out`` the gap of the conditional on ``I``
    over the one off it is ``n·s_out`` on ``I`` and ``−n·s_in`` off it, so
    one ``_orthant_gaps`` table per prior decides its link and no
    conditional ``Belief`` is built.
    """
    space = identified.space
    mask = identified.mask
    inside = [mask >> f & 1 for f in range(space.size)]
    cw = UpperFamilyKind.UPPER_PROJECTION
    low_gt, _, _ = _orthant_gaps(space, cw, _split_gaps(pl, inside))
    _, high_gt, _ = _orthant_gaps(space, cw, _split_gaps(ph, inside))
    return low_gt is None, high_gt is None


def _split_gaps(prior: Belief, inside: list[int]) -> list[int]:
    nums = prior.nums
    s_in = sum(compress(nums, inside))
    s_out = prior.den - s_in
    return [n * s_out if b else -n * s_in for n, b in zip(nums, inside)]


def _check_conditional_reduction(
    pl: Belief, ph: Belief, identified: StateSubset, report: PolarizationReport
) -> None:
    """Posterior-vs-prior coordinatewise dominance must match the dominance of
    the prior's two conditionals (on the set and on its complement).

    With ``a = pl|I``, ``b = pl|Iᶜ``, ``c = ph|I`` and ``d = ph|Iᶜ``, the
    report's ``ql ≤CW pl`` must equal ``a ≤CW b`` and its ``ph ≤CW qh`` must
    equal ``d ≤CW c``.  The report's links come from ``compare`` on the
    posteriors; the reduced ones from ``_reduced_links`` on the priors'
    masked integer numerators, so the two sides share no code above
    ``_orthant_gaps``.
    """
    low_reduced, high_reduced = _reduced_links(pl, ph, identified)
    if (
        report.low_drop.weakly_below != low_reduced
        or report.high_rise.weakly_below != high_reduced
    ):
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
    if prior.space != prior_other.space:
        raise ValueError("priors live on different spaces")
    if not (prior.full_support and prior_other.full_support):
        raise ValueError("direction analysis requires full-support priors")
    space = prior.space
    q = update(prior, ell)
    q_other = update(prior_other, ell)
    signs = _movement_signs(prior, q)
    signs_other = _movement_signs(prior_other, q_other)
    table = DirectionTable(space.states, signs, signs_other)

    lo = min(ell.nums)
    hi = max(ell.nums)
    argmin = tuple(space.state_at(f) for f, n in enumerate(ell.nums) if n == lo)
    argmax = tuple(space.state_at(f) for f, n in enumerate(ell.nums) if n == hi)

    moved = any(signs) or any(signs_other)
    extremes_agree = True
    if moved:
        for state in argmin:
            f = space.flat(state)
            if signs[f] > 0 or signs_other[f] > 0:
                extremes_agree = False
        for state in argmax:
            f = space.flat(state)
            if signs[f] < 0 or signs_other[f] < 0:
                extremes_agree = False

    # A strict one-way crossing forbids even weakly opposite movement anywhere.
    strict_down_up = [
        f
        for f in range(space.size)
        if signs[f] <= 0 <= signs_other[f] and (signs[f] < 0 or signs_other[f] > 0)
    ]
    strict_up_down = [
        f
        for f in range(space.size)
        if signs[f] >= 0 >= signs_other[f] and (signs[f] > 0 or signs_other[f] < 0)
    ]
    weak_down_up = [
        f for f in range(space.size) if signs[f] <= 0 <= signs_other[f]
    ]
    weak_up_down = [
        f for f in range(space.size) if signs[f] >= 0 >= signs_other[f]
    ]
    crossings = [
        (space.state_at(f), space.state_at(g))
        for f in strict_down_up
        for g in weak_up_down
    ]
    crossings += [
        (space.state_at(f), space.state_at(g))
        for f in strict_up_down
        for g in weak_down_up
    ]
    return DirectionAnalysis(
        table=table,
        min_likelihood_states=argmin,
        max_likelihood_states=argmax,
        extremes_agree=extremes_agree,
        crossing_pairs=tuple(crossings),
    )
