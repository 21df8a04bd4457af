"""Constructive prior builders: turn existence proofs into algorithms.

Three builders live here.  ``antichain_distributions`` realizes a strongly
coordinatewise ordered pair of distributions on two antichain supports by
recursing on the grid (peel the high antichain's extreme element, shrink the
grid, mix a small Dirac back in).  ``build_polarizing_priors`` assembles full
polarizing priors for any identified set passing the classifier, then
verifies the result with exact comparators rather than trusting the algebra.
Masses are integer weights over one denominator throughout, as in ``Belief``;
the polarizing priors' mixing weight runs over delta = 1/d for powers of two
d, so its search and the layer weights (d - 1)^a d^(2 - a - b) / d^2 are
integer arithmetic as well.
``mirror_extremes_instance`` and ``one_shot_orthant_instance`` produce the
two closed-form instance families: mirror-image priors identified on the two
extreme states (limit, coordinatewise), and concentrated priors with a
two-point likelihood (one-shot, upper orthant).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bayes import LikelihoodFn
from .classifier import antichain_dominates, classify, max_set, min_set
from .core import Belief, State, StateSpace, StateSubset, frac, leq
from .orders import Relation, Strictness, UpperFamilyKind, compare, compare_strong_cw
from .polarization import PolarizationReport, limit, one_shot

# The delta search tries delta = 1/d for d = 2, 4, ..., up to this cap.
_MAX_DELTA_INVERSE = 2**64

# Masses on named states as integer weights over one positive denominator.
Massmap = tuple[dict[State, int], int]
_Box = tuple[State, State]  # inclusive (low corner, high corner) index bounds


@dataclass(frozen=True)
class ConstructionResult:
    prior_low: Belief
    prior_high: Belief
    certificate: PolarizationReport
    epsilon: Optional[Fraction] = None
    delta: Optional[Fraction] = None
    n: Optional[int] = None


# ---------------------------------------------------------------------------
# Strongly ordered distributions on antichain supports
# ---------------------------------------------------------------------------


def _box_cdf_gap(low: Massmap, high: Massmap, box: _Box) -> Fraction:
    """Minimum of (F_low - F_high) over interior cuts of the box, both axes."""
    (low_w, low_den), (high_w, high_den) = low, high
    (lo0, lo1), (hi0, hi1) = box[0], box[1]
    best: Optional[int] = None
    for axis, lo, hi in ((0, lo0, hi0), (1, lo1, hi1)):
        for cut in range(lo, hi):
            fl = sum(w for s, w in low_w.items() if s[axis] <= cut)
            fh = sum(w for s, w in high_w.items() if s[axis] <= cut)
            gap = fl * high_den - fh * low_den
            if best is None or gap < best:
                best = gap
    if best is None:
        raise AssertionError("degenerate box with no interior cuts")
    return Fraction(best, low_den * high_den)


def _mix_in_dirac(masses: Massmap, state: State, eps: Fraction) -> Massmap:
    """``(1 - eps)`` times ``masses`` plus ``eps`` at a state outside them."""
    weights, den = masses
    p, q = eps.numerator, eps.denominator
    mixed = {s: (q - p) * w for s, w in weights.items()}
    mixed[state] = p * den
    return mixed, q * den


def _antichain_pair(low: list[State], high: list[State], box: _Box) -> tuple[Massmap, Massmap]:
    """Recursive construction of full-support masses on two antichains with
    the low side strictly above the high side in every marginal cdf.

    ``low`` and ``high`` are sorted ascending by the first coordinate (hence
    descending by the second).  The singleton cases anchor the recursion: a
    single high element must be the box corner, so a Dirac there stays below
    any full-support distribution on the low antichain, and symmetrically.
    """
    if len(high) == 1:
        if high[0] != box[1]:
            raise AssertionError("singleton high antichain must sit at the box top")
        return ({s: 1 for s in low}, len(low)), ({high[0]: 1}, 1)
    if len(low) == 1:
        if low[0] != box[0]:
            raise AssertionError("singleton low antichain must sit at the box bottom")
        return ({low[0]: 1}, 1), ({s: 1 for s in high}, len(high))

    d1, d2 = low[0], low[1]
    t1, t2 = high[0], high[1]
    first_branch = leq(d1, t1) and leq(d1, t2)
    second_branch = leq(d1, t1) and leq(d2, t1)
    if not (first_branch or second_branch):
        raise AssertionError(
            "non-compensatory union must allow peeling one extreme element"
        )

    if first_branch:
        # Drop the high element with the top second coordinate, cap the box
        # at the runner-up, recurse, then mix a small Dirac at it back in.
        sub_box = (box[0], (box[1][0], t2[1]))
        low_masses, rest = _antichain_pair(low, high[1:], sub_box)
        eps = _box_cdf_gap(low_masses, rest, sub_box) / 2
        return low_masses, _mix_in_dirac(rest, t1, eps)

    # Symmetric branch: drop the low element with the bottom first coordinate,
    # raise the box floor to the runner-up, recurse, mix the Dirac into low.
    sub_box = ((d2[0], box[0][1]), box[1])
    rest, high_masses = _antichain_pair(low[1:], high, sub_box)
    eps = _box_cdf_gap(rest, high_masses, sub_box) / 2
    return _mix_in_dirac(rest, d1, eps), high_masses


def _as_belief(space: StateSpace, masses: Massmap) -> Belief:
    weights, den = masses
    nums = [0] * space.size
    for state, w in weights.items():
        nums[space.flat(state)] = w
    return Belief(space, tuple(nums), den)


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
    low_sorted = sorted(low.states())
    high_sorted = sorted(high.states())
    low_masses, high_masses = _antichain_pair(
        low_sorted, high_sorted, (space.bottom, space.top)
    )
    low_belief = _as_belief(space, low_masses)
    high_belief = _as_belief(space, high_masses)
    if not compare_strong_cw(low_belief, high_belief):
        raise AssertionError("internal error: constructed pair is not strongly ordered")
    return low_belief, high_belief


# ---------------------------------------------------------------------------
# Joint construction fallback
# ---------------------------------------------------------------------------


def _joint_strong_solve(
    space: StateSpace,
    chains: dict[str, list[State]],
    relations: Sequence[tuple[str, str]],
) -> dict[str, Massmap]:
    """Solve all strong-dominance relations between antichains at once.

    Every constraint is a strict inequality between two cumulative masses, so
    the system is a set of difference constraints over prefix variables.  A
    longest-path labeling of the (acyclic) constraint graph yields integer
    prefix values over the longest path's length; masses are their
    differences.
    """
    ZERO, ONE = ("", 0), ("", 1)

    def node(name: str, idx: int) -> tuple[str, int]:
        k = len(chains[name])
        if idx <= 0:
            return ZERO
        if idx >= k:
            return ONE
        return (name, idx)

    edges: set[tuple[tuple[str, int], tuple[str, int]]] = set()

    def add(a: tuple[str, int], b: tuple[str, int]) -> None:
        if a == b:
            raise AssertionError(f"infeasible constraint {a} < {b}")
        if a == ZERO and b == ONE:
            return
        if b == ZERO or a == ONE:
            raise AssertionError(f"infeasible constraint {a} < {b}")
        edges.add((a, b))

    for name, states in chains.items():
        for r in range(len(states)):
            add(node(name, r), node(name, r + 1))

    def rank_leq(states: list[State], axis: int, cut: int) -> int:
        return sum(1 for s in states if s[axis] <= cut)

    def rank_above(states: list[State], axis: int, cut: int) -> int:
        return sum(1 for s in states if s[axis] > cut)

    for low_name, high_name in relations:
        low_states, high_states = chains[low_name], chains[high_name]
        for cut in range(space.shape[0] - 1):
            # F_high < F_low on the first axis: prefix(high) < prefix(low)
            add(
                node(high_name, rank_leq(high_states, 0, cut)),
                node(low_name, rank_leq(low_states, 0, cut)),
            )
        for cut in range(space.shape[1] - 1):
            # Second axis cdfs are one-minus-suffix, flipping the direction.
            add(
                node(low_name, rank_above(low_states, 1, cut)),
                node(high_name, rank_above(high_states, 1, cut)),
            )

    outgoing: dict[tuple[str, int], list[tuple[str, int]]] = {}
    indeg: dict[tuple[str, int], int] = {}
    nodes = {ZERO, ONE}
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    for n in nodes:
        outgoing[n] = []
        indeg[n] = 0
    for a, b in edges:
        outgoing[a].append(b)
        indeg[b] += 1

    order = [n for n in nodes if indeg[n] == 0]
    longest = {n: 0 for n in nodes}
    seen = 0
    queue = list(order)
    while queue:
        n = queue.pop()
        seen += 1
        for m in outgoing[n]:
            if longest[n] + 1 > longest[m]:
                longest[m] = longest[n] + 1
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    if seen != len(nodes):
        raise AssertionError("infeasible joint system: constraint cycle")

    top = longest[ONE]
    out: dict[str, Massmap] = {}
    for name, states in chains.items():
        prefix = [longest[node(name, r)] for r in range(len(states) + 1)]
        weights = {}
        for r, state in enumerate(states):
            w = prefix[r + 1] - prefix[r]
            if w <= 0:
                raise AssertionError("joint solve produced a nonpositive mass")
            weights[state] = w
        out[name] = (weights, top)
    return out


# ---------------------------------------------------------------------------
# Polarizing priors for a classified identified set
# ---------------------------------------------------------------------------


def _strong_ok(space: StateSpace, low: Massmap, high: Massmap) -> bool:
    return bool(compare_strong_cw(_as_belief(space, low), _as_belief(space, high)))


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
    for pair in ((a_set, b_set), (a_set, c_set), (d_set, b_set)):
        verdict = antichain_dominates(space, *pair)
        if not verdict.holds:
            raise AssertionError(
                f"internal error: expected antichain dominance, got {verdict}"
            )

    full_box = (space.bottom, space.top)
    a_m, b_m = _antichain_pair(sorted(a_set.states()), sorted(b_set.states()), full_box)
    _, c_m = _antichain_pair(sorted(a_set.states()), sorted(c_set.states()), full_box)
    d_m, _ = _antichain_pair(sorted(d_set.states()), sorted(b_set.states()), full_box)

    # Pairwise runs share no variables, so the two reused sides may fail the
    # cross relations; if so, re-solve all four jointly.
    if not (_strong_ok(space, a_m, c_m) and _strong_ok(space, d_m, b_m)):
        chains = {
            "a": sorted(a_set.states()),
            "b": sorted(b_set.states()),
            "c": sorted(c_set.states()),
            "d": sorted(d_set.states()),
        }
        solved = _joint_strong_solve(
            space, chains, [("a", "b"), ("a", "c"), ("d", "b")]
        )
        a_m, b_m, c_m, d_m = solved["a"], solved["b"], solved["c"], solved["d"]

    gap = min(
        _box_cdf_gap(a_m, b_m, full_box),
        _box_cdf_gap(a_m, c_m, full_box),
        _box_cdf_gap(d_m, b_m, full_box),
    )
    if gap <= 0:
        raise AssertionError("internal error: nonpositive strong-dominance gap")
    return (
        _as_belief(space, a_m),
        _as_belief(space, b_m),
        _as_belief(space, c_m),
        _as_belief(space, d_m),
        gap / 2,
    )


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
    low_core, high_core, low_comp, high_comp, epsilon = _conditional_pieces(
        space, low_min, high_max, comp_max, comp_min
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
    n_start: int = 3,
    n_cap: int = 2**20,
    require_all_strict: bool = False,
) -> OneShotOrthantInstance:
    """Increase the concentration parameter until the certificate passes.

    ``require_all_strict`` additionally demands strict movement on every
    proper orthant for both agents (used by the action layer).
    """
    n = n_start
    while n <= n_cap:
        inst = one_shot_orthant_instance(space, epsilon, n)
        if inst.report.verdict:
            if not require_all_strict:
                return inst
            all_strict = (
                compare(
                    inst.report.posterior_low,
                    inst.prior_low,
                    UpperFamilyKind.UPPER_ORTHANT,
                    Strictness.ALL_EVENTS,
                ).relation
                is Relation.STRICTLY_BELOW
                and compare(
                    inst.prior_high,
                    inst.report.posterior_high,
                    UpperFamilyKind.UPPER_ORTHANT,
                    Strictness.ALL_EVENTS,
                ).relation
                is Relation.STRICTLY_BELOW
            )
            if all_strict:
                return inst
        n += 1
    raise RuntimeError(f"no certified instance found for n up to {n_cap}")
