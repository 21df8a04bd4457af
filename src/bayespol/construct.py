"""Constructive prior builders: turn existence proofs into algorithms.

Three builders live here.  ``antichain_distributions`` realizes a strongly
coordinatewise ordered pair of distributions on two antichain supports by
recursing on the grid (peel the high antichain's extreme element, shrink the
grid, mix a small Dirac back in).  ``build_polarizing_priors`` assembles full
polarizing priors for any identified set passing the classifier, then
verifies the result with exact comparators rather than trusting the algebra.
Every distribution the builders handle is a ``Belief`` (integer numerators
over one denominator), and antichains travel as ascending flat indices; the
polarizing priors' mixing weight runs over delta = 1/d for powers of two d,
so its search and the layer weights (d - 1)^a d^(2 - a - b) / d^2 are
integer arithmetic as well.
``mirror_extremes_instance`` and ``one_shot_orthant_instance`` produce the
two closed-form instance families: mirror-image priors identified on the two
extreme states (limit, coordinatewise), and concentrated priors with a
two-point likelihood (one-shot, upper orthant).
"""
from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .bayes import LikelihoodFn
from .classifier import (
    _dominance_failure,
    antichain_dominates,
    classify,
    max_set,
    min_set,
)
from .core import Belief, State, StateSpace, StateSubset, frac
from .orders import Strictness, UpperFamilyKind, compare_strong_cw
from .polarization import PolarizationReport, limit, one_shot

# The delta search tries delta = 1/d for d = 2, 4, ..., up to this cap.
_MAX_DELTA_INVERSE = 2**64

# The one-shot orthant search tries concentrations n = 3, 4, ..., up to the cap.
_ONE_SHOT_N_START = 3
_ONE_SHOT_N_CAP = 2**20

# Antichain quadruples whose conditional pieces are kept.  The CLI scans grids
# of up to 16 states, and the one with the most distinct quadruples, 4x4,
# meets 710.
_PIECES_CACHE_SIZE = 1024

_Box = tuple[State, State]  # inclusive (low corner, high corner) index bounds

# The strong relations among (low on a, high on b, low on c, high on d), by
# position: a below b, then the cross relations a below c and d below b.
_PIECE_RELATIONS = ((0, 1), (0, 2), (3, 1))


@dataclass(frozen=True)
class ConstructionResult:
    prior_low: Belief
    prior_high: Belief
    certificate: PolarizationReport
    epsilon: Optional[Fraction] = None
    delta: Optional[Fraction] = None


# ---------------------------------------------------------------------------
# Strongly ordered distributions on antichain supports
# ---------------------------------------------------------------------------


def _box_cdf_gap(low: Belief, high: Belief, box: _Box) -> Fraction:
    """Minimum of (F_low - F_high) over interior cuts of the box, every axis."""
    lden, hden = low.den, high.den
    # per state, low mass minus high mass over the product denominator
    diff = [lnum * hden - hnum * lden for lnum, hnum in zip(low.nums, high.nums)]
    get = diff.__getitem__
    gaps = []
    for groups, lo, hi in zip(low.space.axis_groups, *box):
        cdf_gap = 0
        for cut in range(hi):
            cdf_gap += sum(map(get, groups[cut]))
            if cut >= lo:
                gaps.append(cdf_gap)
    if not gaps:
        raise AssertionError("degenerate box with no interior cuts")
    return Fraction(min(gaps), lden * hden)


def _uniform(space: StateSpace, flats: Sequence[int]) -> Belief:
    """Uniform belief on the states at ``flats``."""
    nums = [0] * space.size
    for f in flats:
        nums[f] = 1
    return Belief(space, tuple(nums), len(flats))


def _mix_in_dirac(belief: Belief, flat: int, eps: Fraction) -> Belief:
    """``(1 - eps)`` times ``belief`` plus ``eps`` at a state outside its support."""
    p, q = eps.numerator, eps.denominator
    nums = [(q - p) * n for n in belief.nums]
    nums[flat] = p * belief.den
    return Belief(belief.space, tuple(nums), q * belief.den)


def _antichain_pair(
    space: StateSpace, low: Sequence[int], high: Sequence[int], box: _Box
) -> tuple[Belief, Belief]:
    """Recursive construction of full-support beliefs on two antichains with
    the low side strictly above the high side in every marginal cdf.

    ``low`` and ``high`` are ascending flat indices, hence ascending by the
    first coordinate (and descending by the second).  The singleton cases
    anchor the recursion: a single high element must be the box corner, so a
    Dirac there stays below any full-support distribution on the low
    antichain, and symmetrically.
    """
    if len(high) == 1:
        if space.state_at(high[0]) != box[1]:
            raise AssertionError("singleton high antichain must sit at the box top")
        return _uniform(space, low), _uniform(space, high)
    if len(low) == 1:
        if space.state_at(low[0]) != box[0]:
            raise AssertionError("singleton low antichain must sit at the box bottom")
        return _uniform(space, low), _uniform(space, high)

    d1, d2 = low[0], low[1]
    t1, t2 = high[0], high[1]
    up = space.up_cones
    first_branch = up[d1] >> t1 & 1 and up[d1] >> t2 & 1
    second_branch = up[d1] >> t1 & 1 and up[d2] >> t1 & 1
    if not (first_branch or second_branch):
        raise AssertionError(
            "non-compensatory union must allow peeling one extreme element"
        )

    if first_branch:
        # Drop the high element with the top second coordinate, cap the box
        # at the runner-up, recurse, then mix a small Dirac at it back in.
        sub_box = (box[0], (box[1][0], space.state_at(t2)[1]))
        low_belief, rest = _antichain_pair(space, low, high[1:], sub_box)
        eps = _box_cdf_gap(low_belief, rest, sub_box) / 2
        return low_belief, _mix_in_dirac(rest, t1, eps)

    # Symmetric branch: drop the low element with the bottom first coordinate,
    # raise the box floor to the runner-up, recurse, mix the Dirac into low.
    sub_box = ((space.state_at(d2)[0], box[0][1]), box[1])
    rest, high_belief = _antichain_pair(space, low[1:], high, sub_box)
    eps = _box_cdf_gap(rest, high_belief, sub_box) / 2
    return _mix_in_dirac(rest, d1, eps), high_belief


def antichain_distributions(
    space: StateSpace, low: StateSubset, high: StateSubset
) -> tuple[Belief, Belief]:
    """Full-support distributions on two antichains, strongly cw ordered.

    Requires ``high`` to antichain-dominate ``low``; the output is verified
    with the strong comparator before returning.
    """
    dominance = antichain_dominates(space, low, high)
    if not dominance.holds:
        raise ValueError(f"antichain dominance precondition fails: {dominance.failed_condition}")
    low_belief, high_belief = _antichain_pair(
        space, low.flats(), high.flats(), (space.bottom, space.top)
    )
    if not compare_strong_cw(low_belief, high_belief):
        raise AssertionError("internal error: constructed pair is not strongly ordered")
    return low_belief, high_belief


# ---------------------------------------------------------------------------
# Joint construction fallback
# ---------------------------------------------------------------------------


def _joint_strong_solve(
    space: StateSpace,
    chains: Sequence[Sequence[int]],
    relations: Sequence[tuple[int, int]],
) -> list[Belief]:
    """Solve all strong-dominance relations between antichains at once.

    ``chains`` are antichains as ascending flat indices; each relation
    names a (low, high) pair of them by position, and the beliefs come back
    in the chains' order.

    Every constraint is a strict inequality between two cumulative masses, so
    the system is a set of difference constraints over prefix variables.
    Each node's longest path from ``ZERO``, the graph's one source, labelled
    in a topological order, gives unique integer prefix values over the
    longest path's length; masses are their differences.
    """
    ZERO, ONE = (-1, 0), (-1, 1)

    def node(pos: int, idx: int) -> tuple[int, int]:
        if idx <= 0:
            return ZERO
        if idx >= len(chains[pos]):
            return ONE
        return (pos, idx)

    # Per node, the nodes that must be smaller.
    preds: dict[tuple[int, int], set[tuple[int, int]]] = {ZERO: set(), ONE: set()}

    def add(a: tuple[int, int], b: tuple[int, int]) -> None:
        if a == ZERO and b == ONE:
            return
        if a == b or b == ZERO or a == ONE:
            raise AssertionError(f"infeasible constraint {a} < {b}")
        preds.setdefault(b, set()).add(a)

    for pos, chain in enumerate(chains):
        for r in range(len(chain)):
            add(node(pos, r), node(pos, r + 1))

    states = [[space.state_at(f) for f in chain] for chain in chains]
    for low_pos, high_pos in relations:
        low_states, high_states = states[low_pos], states[high_pos]
        for cut in range(space.shape[0] - 1):
            # F_high < F_low on the first axis: prefix(high) < prefix(low)
            add(
                node(high_pos, sum(s[0] <= cut for s in high_states)),
                node(low_pos, sum(s[0] <= cut for s in low_states)),
            )
        for cut in range(space.shape[1] - 1):
            # Second axis cdfs are one-minus-suffix, flipping the direction.
            add(
                node(low_pos, sum(s[1] > cut for s in low_states)),
                node(high_pos, sum(s[1] > cut for s in high_states)),
            )

    longest: dict[tuple[int, int], int] = {}
    try:
        for n in graphlib.TopologicalSorter(preds).static_order():
            longest[n] = max([longest[p] + 1 for p in preds[n]], default=0)
    except graphlib.CycleError:
        raise AssertionError("infeasible joint system: constraint cycle") from None

    out = []
    for pos, chain in enumerate(chains):
        nums = [0] * space.size
        for r, f in enumerate(chain):
            nums[f] = longest[node(pos, r + 1)] - longest[node(pos, r)]
            if nums[f] <= 0:
                raise AssertionError("joint solve produced a nonpositive mass")
        out.append(Belief(space, tuple(nums), longest[ONE]))
    return out


# ---------------------------------------------------------------------------
# Polarizing priors for a classified identified set
# ---------------------------------------------------------------------------


def _margins(pieces: Sequence[Belief], box: _Box) -> list[Fraction]:
    """``_box_cdf_gap`` of each of ``_PIECE_RELATIONS`` on the pieces."""
    return [_box_cdf_gap(pieces[lo], pieces[hi], box) for lo, hi in _PIECE_RELATIONS]


def _conditional_pieces(
    space: StateSpace,
    a_set: StateSubset,
    b_set: StateSubset,
    c_set: StateSubset,
    d_set: StateSubset,
) -> tuple[Belief, Belief, Belief, Belief, Fraction]:
    """The four antichain distributions of the layered-prior construction.

    Takes the identified set's min and max antichains (``a_set``, ``b_set``)
    and its complement's max and min antichains (``c_set``, ``d_set``).
    Returns (low on a, high on b, low on c, high on d) plus half the minimal
    cdf gap across the three strong relations that must hold among them.
    """
    sets = (a_set, b_set, c_set, d_set)
    for lo, hi in _PIECE_RELATIONS:
        failure = _dominance_failure(space, sets[lo].mask, sets[hi].mask)
        if failure is not None:
            raise AssertionError(
                f"internal error: expected antichain dominance of {sets[hi]!r} over"
                f" {sets[lo]!r}, failed on {failure}"
            )

    full_box = (space.bottom, space.top)
    chains = [subset.flats() for subset in sets]
    a, b, c, d = chains
    on_a, on_b = _antichain_pair(space, a, b, full_box)
    _, on_c = _antichain_pair(space, a, c, full_box)
    on_d, _ = _antichain_pair(space, d, b, full_box)
    pieces = [on_a, on_b, on_c, on_d]

    # A full-box margin is positive iff its pair is strongly ordered.
    # Pairwise runs share no variables, so the two reused sides may fail the
    # cross relations; if so, re-solve all four jointly.
    margins = _margins(pieces, full_box)
    if min(margins[1:]) <= 0:
        pieces = _joint_strong_solve(space, chains, _PIECE_RELATIONS)
        margins = _margins(pieces, full_box)
    gap = min(margins)
    if gap <= 0:
        raise AssertionError("internal error: nonpositive strong-dominance gap")
    return (*pieces, gap / 2)


@lru_cache(maxsize=_PIECES_CACHE_SIZE)
def _grid_pieces(
    shape: tuple[int, ...], a: int, b: int, c: int, d: int
) -> tuple[Belief, Belief, Belief, Belief, Fraction]:
    """``_conditional_pieces`` on ``StateSpace.grid(*shape)`` for four masks.

    The pieces read the grid order alone, never the axis values, and the
    builder reads only their integers, so one build per shape and antichain
    quadruple serves every space of that shape.
    """
    space = StateSpace.grid(*shape)
    return _conditional_pieces(space, *(StateSubset(space, m) for m in (a, b, c, d)))


def _layers(
    space: StateSpace,
    core: Belief,
    core_rest: StateSubset,
    comp: Belief,
    comp_rest: StateSubset,
) -> list[tuple[int, int, Belief]]:
    """A layered prior's parts as (power of 1 - delta, power of delta, part).

    The antichain distribution on the identified set weighs 1 - delta and
    the one on its complement delta; on each side a nonempty residual takes
    a delta share of that weight, spread uniformly.
    """
    parts = []
    for side, piece, rest in ((0, core, core_rest), (1, comp, comp_rest)):
        if rest.is_empty:
            parts.append((1 - side, side, piece))
        else:
            parts.append((2 - side, side, piece))
            parts.append((1 - side, side + 1, Belief.uniform_on(space, rest)))
    return parts


def _layered_prior(
    space: StateSpace, parts: list[tuple[int, int, Belief]], d: int
) -> Belief:
    """The parts mixed at delta = 1/d, in integers.

    Part (a, b) weighs (1 - 1/d)^a (1/d)^b = (d - 1)^a d^(2 - a - b) / d^2,
    since a + b <= 2.  Every part is scaled onto the lcm of the part
    denominators; the weights' numerators sum to d^2, which ``Belief``
    checks through its masses summing to the denominator.
    """
    lcm = math.lcm(*[part.den for _, _, part in parts])
    nums = [0] * space.size
    for a, b, part in parts:
        scale = (d - 1) ** a * d ** (2 - a - b) * (lcm // part.den)
        nums = [x + scale * n for x, n in zip(nums, part.nums)]
    return Belief(space, tuple(nums), d * d * lcm)


def build_polarizing_priors(
    space: StateSpace, identified: StateSubset
) -> ConstructionResult:
    """Priors exhibiting strong coordinatewise limit polarization on a set.

    The identified set must pass the classifier.  Layer weights follow a
    halving search on delta = 1/d over d = 2, 4, ..., 2^64.  With epsilon =
    p/q, the two mixing inequalities read (d - 1) p > q and
    (d - 1)^2 p > (2d - 1) q, and the layer weights are integers over d^2,
    so the search and the mixtures run on integers.  A delta is accepted
    only when the assembled priors pass the exact polarization certificate.
    The four antichain pieces come from ``_grid_pieces``, built once per
    grid shape and antichain quadruple.
    """
    report = classify(space, identified)
    if not report.can_strongly_polarize:
        raise ValueError(
            "identified set fails the polarization conditions: "
            f"spanning={report.spanning}, complement_spanning={report.complement_spanning}, "
            f"balanced={report.balanced}, compensatory={report.compensatory}"
        )
    complement = identified.complement()
    low_min, high_max = min_set(identified), max_set(identified)
    comp_max, comp_min = max_set(complement), min_set(complement)
    low_core, high_core, low_comp, high_comp, epsilon = _grid_pieces(
        space.shape, low_min.mask, high_max.mask, comp_max.mask, comp_min.mask
    )
    low_parts = _layers(
        space,
        low_core,
        identified.difference(low_min),
        low_comp,
        complement.difference(comp_max),
    )
    high_parts = _layers(
        space,
        high_core,
        identified.difference(high_max),
        high_comp,
        complement.difference(comp_min),
    )

    p, q = epsilon.numerator, epsilon.denominator
    d = 2
    while d <= _MAX_DELTA_INVERSE:
        if (d - 1) * p > q and (d - 1) ** 2 * p > (2 * d - 1) * q:
            prior_low = _layered_prior(space, low_parts, d)
            prior_high = _layered_prior(space, high_parts, d)
            certificate = limit(
                UpperFamilyKind.UPPER_PROJECTION,
                prior_low,
                prior_high,
                identified,
                strong_middle=True,
            )
            if certificate.verdict:
                return ConstructionResult(
                    prior_low=prior_low,
                    prior_high=prior_high,
                    certificate=certificate,
                    epsilon=epsilon,
                    delta=Fraction(1, d),
                )
        d *= 2
    raise RuntimeError(
        "delta search exhausted below 2**-64; this indicates a construction bug"
    )


# ---------------------------------------------------------------------------
# Closed-form instances
# ---------------------------------------------------------------------------


def mirror_extremes_threshold(space: StateSpace) -> Fraction:
    """Smallest tilt for which the mirror-extremes priors polarize."""
    size = space.size
    if size <= 2:
        raise ValueError("space must have more than two states")
    return max(
        Fraction(size * (n - 2), n * (size - 2)) for n in space.shape
    )


def mirror_extremes_instance(space: StateSpace, epsilon: Fraction) -> ConstructionResult:
    """Mirror-image priors tilted toward opposite extreme states.

    The identified set is the two extremes; the certificate evaluates limit
    coordinatewise polarization, which holds exactly when the tilt clears the
    per-axis threshold.  Works in any dimension.
    """
    epsilon = frac(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    size = space.size
    if size <= 2:
        raise ValueError("space must have more than two states")
    bottom_flat = space.flat(space.bottom)
    top_flat = space.flat(space.top)
    # (1 +- epsilon) / size at the extremes, 1 / size elsewhere, over size * q
    p, q = epsilon.numerator, epsilon.denominator
    low = [q] * size
    high = [q] * size
    low[bottom_flat] += p
    low[top_flat] -= p
    high[bottom_flat] -= p
    high[top_flat] += p
    prior_low = Belief(space, tuple(low), size * q)
    prior_high = Belief(space, tuple(high), size * q)
    extremes = StateSubset.from_states(space, [space.bottom, space.top])
    certificate = limit(UpperFamilyKind.UPPER_PROJECTION, prior_low, prior_high, extremes)
    return ConstructionResult(
        prior_low=prior_low,
        prior_high=prior_high,
        certificate=certificate,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class OneShotOrthantInstance:
    prior_low: Belief
    prior_high: Belief
    likelihood: LikelihoodFn
    report: PolarizationReport
    epsilon: Fraction
    n: int


def one_shot_orthant_instance(
    space: StateSpace, epsilon: Fraction, n: int
) -> OneShotOrthantInstance:
    """Concentrated mirror priors plus a likelihood supported on the extremes.

    The low agent piles mass near the bottom state, the high agent near the
    top; the likelihood is one at the bottom, slightly less at the top, and
    zero elsewhere.  For large n the report certifies one-shot upper-orthant
    polarization; small n may simply yield a false report.
    """
    epsilon = frac(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if n < 3:
        raise ValueError("n must be at least 3")
    size = space.size
    if size <= 2:
        raise ValueError("space must have more than two states")
    bottom_flat = space.flat(space.bottom)
    top_flat = space.flat(space.top)
    # bulk 1 - 1/n - 1/n^2, sliver 1/n^2, middle 1/(n (size - 2)), over den
    den = n * n * (size - 2)
    bulk, sliver, middle = den - n * (size - 2) - (size - 2), size - 2, n
    low = [middle] * size
    high = [middle] * size
    low[bottom_flat], low[top_flat] = bulk, sliver
    high[bottom_flat], high[top_flat] = sliver, bulk
    prior_low = Belief(space, tuple(low), den)
    prior_high = Belief(space, tuple(high), den)
    ell_nums = [0] * size
    ell_nums[bottom_flat] = epsilon.denominator
    ell_nums[top_flat] = epsilon.denominator - epsilon.numerator
    ell = LikelihoodFn(space, tuple(ell_nums), epsilon.denominator)
    report = one_shot(UpperFamilyKind.UPPER_ORTHANT, prior_low, prior_high, ell)
    return OneShotOrthantInstance(prior_low, prior_high, ell, report, epsilon, n)


def find_one_shot_orthant_instance(
    space: StateSpace,
    epsilon: Fraction,
    require_all_strict: bool = False,
) -> OneShotOrthantInstance:
    """Increase the concentration parameter until the certificate passes.

    ``require_all_strict`` additionally demands strict movement on every
    proper orthant for both agents (used by the action layer).
    """
    n = _ONE_SHOT_N_START
    while n <= _ONE_SHOT_N_CAP:
        inst = one_shot_orthant_instance(space, epsilon, n)
        if inst.report.verdict:
            if not require_all_strict:
                return inst
            strict = one_shot(
                UpperFamilyKind.UPPER_ORTHANT,
                inst.prior_low,
                inst.prior_high,
                inst.likelihood,
                Strictness.ALL_EVENTS,
            )
            if strict.low_drop.strictly_below and strict.high_rise.strictly_below:
                return inst
        n += 1
    raise RuntimeError(f"no certified instance found for n up to {_ONE_SHOT_N_CAP}")
