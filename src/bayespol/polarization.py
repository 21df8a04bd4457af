"""Polarization detectors: does common evidence drive two agents apart?

Polarization in a given order means the chain

    posterior_low  <  prior_low  <  prior_high  <  posterior_high

holds strictly, so the low agent moves down and the high agent moves up while
the priors sit strictly ordered between them.  One-shot mode updates on a
single likelihood; limit mode conditions on an identified set.  Reports carry
witness events and a per-state direction table so failures are debuggable.

``one_shot`` and ``limit`` validate every input up front, then evaluate the
links in chain order: ``low_drop``, the middle link, ``high_rise``.  The
verdict stops at the first link that fails.  The two posterior links are
decided on the integer gap vector ``compare`` would form against the
posterior, read off the prior's numerators and the evidence, so no posterior
``Belief`` is built for them and a miss builds none at all.  The report's
other fields (the links the verdict did not reach, both posteriors and the
direction table) are computed on first access and cached.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

from .bayes import LikelihoodFn, limit_posterior, update
from .core import Belief, State, StateSubset
from .orders import (
    DominanceVerdict,
    Strictness,
    StrongCwVerdict,
    UpperFamilyKind,
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

_Evidence = Union[LikelihoodFn, StateSubset]


def _middle_holds(prior_gap: Union[DominanceVerdict, StrongCwVerdict]) -> bool:
    if isinstance(prior_gap, StrongCwVerdict):
        return prior_gap.holds
    return prior_gap.strictly_below


def _posterior_link(
    mode: Mode,
    kind: UpperFamilyKind,
    prior: Belief,
    evidence: _Evidence,
    strictness: Strictness,
    rise: bool,
) -> DominanceVerdict:
    """``compare(posterior, prior)``, or with ``rise`` ``compare(prior,
    posterior)``, without building the posterior.

    The posterior's numerators are the prior's ``n`` times the likelihood's
    (one-shot) or masked to the identified set (limit), over their sum
    ``t``.  So the gaps ``compare`` forms are a positive multiple of
    ``j·D − n·t``, with ``j`` those numerators and ``D`` the prior's
    denominator, or of its negation for the high link; the relation and
    both witnesses come out the same.
    """
    nums, den = prior.nums, prior.den
    if mode is Mode.ONE_SHOT:
        joint = [n * x for n, x in zip(nums, evidence.nums)]  # type: ignore[union-attr]
    else:
        mask = evidence.mask  # type: ignore[union-attr]
        joint = [n if mask >> f & 1 else 0 for f, n in enumerate(nums)]
    total = sum(joint)
    if rise:
        w = [n * total - j * den for j, n in zip(joint, nums)]
    else:
        w = [j * den - n * total for j, n in zip(joint, nums)]
    return _verdict_from_gaps(prior.space, kind, w, strictness)


class PolarizationReport:
    """One chain's verdict, its three links and the per-state directions.

    ``one_shot`` and ``limit`` make reports.  ``verdict`` is settled when the
    report is made, link by link in chain order (``low_drop``, then
    ``prior_gap``, then ``high_rise``), and stops at the first link that
    fails.  The posterior links are read on integer gap vectors, so making a
    report builds no posterior.  ``prior_gap``, ``high_rise``, both
    posteriors (by ``update`` or ``limit_posterior``) and ``directions`` are
    computed on first access and cached; ``limit`` hands in a ``high_rise``
    it has already worked out for its self-check.  The report is immutable;
    ``==``, ``hash`` and ``repr`` cover the twelve fields of
    ``_REPORT_FIELDS``, so they force the lazy ones.
    """

    kind: UpperFamilyKind
    mode: Mode
    verdict: bool
    low_drop: DominanceVerdict            # posterior_low vs prior_low
    strong_middle: bool
    strictness: Strictness
    identified_set: Optional[StateSubset]

    def __init__(
        self,
        kind: UpperFamilyKind,
        mode: Mode,
        prior_low: Belief,
        prior_high: Belief,
        evidence: _Evidence,
        strong_middle: bool,
        strictness: Strictness,
        low_drop: DominanceVerdict,
        high_rise: Optional[DominanceVerdict] = None,
    ) -> None:
        fields = self.__dict__
        fields.update(
            kind=kind,
            mode=mode,
            strong_middle=strong_middle,
            strictness=strictness,
            identified_set=evidence if mode is Mode.LIMIT else None,
            low_drop=low_drop,
            _prior_low=prior_low,
            _prior_high=prior_high,
            _evidence=evidence,
        )
        if high_rise is not None:
            fields["high_rise"] = high_rise
        fields["verdict"] = (
            low_drop.strictly_below
            and _middle_holds(self.prior_gap)
            and self.high_rise.strictly_below
        )

    @cached_property
    def prior_gap(self) -> Union[DominanceVerdict, StrongCwVerdict]:
        if self.strong_middle:
            return compare_strong_cw(self._prior_low, self._prior_high)
        return compare(self._prior_low, self._prior_high, self.kind, self.strictness)

    @cached_property
    def high_rise(self) -> DominanceVerdict:
        """prior_high vs posterior_high"""
        return _posterior_link(
            self.mode, self.kind, self._prior_high, self._evidence, self.strictness, True
        )

    def _posterior(self, prior: Belief) -> Belief:
        if self.mode is Mode.ONE_SHOT:
            return update(prior, self._evidence)
        return limit_posterior(prior, self._evidence)

    @cached_property
    def posterior_low(self) -> Belief:
        return self._posterior(self._prior_low)

    @cached_property
    def posterior_high(self) -> Belief:
        return self._posterior(self._prior_high)

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
    # No posterior is built here, so check what building them would: both
    # priors live on the likelihood's space, and with full support the
    # evidence has positive probability unless the likelihood is all zero.
    if prior_low.space != ell.space:
        raise ValueError("prior and likelihood live on different spaces")
    if not any(ell.nums):
        raise ValueError("zero evidence probability: signal rules out the prior")
    if prior_high.space != ell.space:
        raise ValueError("prior and likelihood live on different spaces")
    low_drop = _posterior_link(Mode.ONE_SHOT, kind, prior_low, ell, strictness, False)
    return PolarizationReport(
        kind, Mode.ONE_SHOT, prior_low, prior_high, ell, False, strictness, low_drop
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
    if prior_low.space != identified.space or prior_high.space != identified.space:
        raise ValueError("subset lives on a different space")
    low_drop = _posterior_link(Mode.LIMIT, kind, prior_low, identified, strictness, False)
    high_rise = None
    if kind is UpperFamilyKind.UPPER_PROJECTION and identified.is_proper:
        # The self-check reads the high link on every trial, so the report
        # gets it as it is rather than through its lazy field.
        high_rise = _posterior_link(
            Mode.LIMIT, kind, prior_high, identified, strictness, True
        )
        _check_conditional_reduction(prior_low, prior_high, identified, low_drop, high_rise)
    return PolarizationReport(
        kind,
        Mode.LIMIT,
        prior_low,
        prior_high,
        identified,
        strong_middle,
        strictness,
        low_drop,
        high_rise,
    )


def _conditionals_ordered(prior: Belief, mask: int, sign: int) -> bool:
    """With ``sign`` 1, whether ``prior|I ≤CW prior|Iᶜ``; with ``sign`` −1,
    whether ``prior|Iᶜ ≤CW prior|I``, for the set ``I`` of bitmask ``mask``.

    Over the common denominator ``s_in·s_out`` the conditionals put
    ``in_E·s_out`` and ``out_E·s_in`` on a projection event ``E``, where
    ``in_E`` and ``out_E`` are the prior's numerators on ``E`` in and off
    ``I``, and ``s_in``, ``s_out`` their totals.  As ``s_in + s_out`` is the
    denominator ``D`` and ``in_E + out_E`` the prior's numerator ``all_E``
    on ``E``, their difference is ``in_E·D − all_E·s_in``.  ``in_E`` and
    ``all_E`` are per-axis tail sums, from the top value down, of the masked
    and of the whole numerators over ``axis_groups``.
    """
    nums, den = prior.nums, prior.den
    masked = [n if mask >> f & 1 else 0 for f, n in enumerate(nums)]
    get_in, get_all = masked.__getitem__, nums.__getitem__
    s_in = sum(masked)
    for groups in prior.space.axis_groups:
        t_in = t_all = 0
        for g in groups[:0:-1]:
            t_in += sum(map(get_in, g))
            t_all += sum(map(get_all, g))
            if (t_in * den - t_all * s_in) * sign > 0:
                return False
    return True


def _reduced_links(
    pl: Belief, ph: Belief, identified: StateSubset
) -> tuple[bool, bool]:
    """Whether ``pl|I ≤CW pl|Iᶜ`` and whether ``ph|Iᶜ ≤CW ph|I``, for a
    proper identified set ``I``, read on the priors' integer numerators
    without building a conditional ``Belief``."""
    mask = identified.mask
    return _conditionals_ordered(pl, mask, 1), _conditionals_ordered(ph, mask, -1)


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
    ``_reduced_links``, per-axis tail sums of the numerators on the set and
    of all of them.  The two sides share no code.
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
