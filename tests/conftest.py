from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from bayespol import (
    Belief,
    DominanceVerdict,
    LikelihoodFn,
    Relation,
    StateSpace,
    StateSubset,
    Strictness,
    UpperFamilyKind,
    classify,
    compare,
    compare_strong_cw,
    leq,
    limit,
    limit_posterior,
    update,
)
from bayespol.construct import _conditional_pieces
from bayespol.orders import _cdf_failure, _orthant_gaps, _upper_set_gaps
from bayespol.polarization import DirectionAnalysis, DirectionTable
from bayespol.verifier import _compositions, _draw_weights

GRID_2X2 = StateSpace.grid(2, 2)
GRID_2X3 = StateSpace.grid(2, 3)
GRID_3X3 = StateSpace.grid(3, 3)

# Mirror-image priors on the 2x2 grid; the workhorse pair for most examples.
MIRROR_LOW = Belief.from_fractions(GRID_2X2, ["3/8", "1/4", "1/4", "1/8"])
MIRROR_HIGH = Belief.from_fractions(GRID_2X2, ["1/8", "1/4", "1/4", "3/8"])
DIAGONAL = StateSubset.from_states(GRID_2X2, [(0, 0), (1, 1)])
OFF_DIAGONAL = StateSubset.from_states(GRID_2X2, [(0, 1), (1, 0)])

# Likelihood with distinct values at the two extremes and zeros between.
CORNER_LIKELIHOOD = LikelihoodFn.from_fractions(GRID_2X2, ["1", "0", "0", "1/2"])


@pytest.fixture
def mirror_pair():
    return MIRROR_LOW, MIRROR_HIGH


def beliefs(space, full_support=False, max_weight=12):
    minimum = 1 if full_support else 0
    return st.lists(
        st.integers(min_value=minimum, max_value=max_weight),
        min_size=space.size,
        max_size=space.size,
    ).filter(lambda w: sum(w) > 0).map(lambda w: Belief.from_weights(space, w))


def subsets(space, proper=True):
    lo = 1
    hi = space.full_mask - 1 if proper else space.full_mask
    return st.integers(min_value=lo, max_value=hi).map(
        lambda m: StateSubset(space, m)
    )


def likelihoods(space, max_den=4):
    return st.lists(
        st.integers(min_value=0, max_value=max_den),
        min_size=space.size,
        max_size=space.size,
    ).filter(lambda v: any(v)).map(
        lambda v: LikelihoodFn(space, tuple(v), max_den)
    )


def strong_cw_failure_by_state_loop(low, high):
    """First ``(axis, cut)`` where low's marginal cdf fails to exceed high's.

    The slow path the shared strong-CW kernel replaced: each marginal is a
    loop over every state, then a cdf scan cut by cut.
    """
    space = low.space
    for axis in range(space.ndim):
        lmarg = [0] * space.shape[axis]
        hmarg = [0] * space.shape[axis]
        for f, state in enumerate(space.states):
            lmarg[state[axis]] += low.nums[f]
            hmarg[state[axis]] += high.nums[f]
        lc = hc = 0
        for cut in range(space.shape[axis] - 1):
            lc += lmarg[cut]
            hc += hmarg[cut]
            if lc * high.den <= hc * low.den:
                return axis, cut
    return None


def verdict_from_gaps_by_construction(space, kind, w, strictness):
    """``orders._verdict_from_gaps`` as it was before verdicts were shared:
    a fresh ``DominanceVerdict`` and fresh witnesses on every call."""
    one_event = strictness is Strictness.ONE_EVENT
    if kind is UpperFamilyKind.UPPER_SET:
        low_gt, high_gt, everywhere = _upper_set_gaps(space, w, one_event)
    else:
        low_gt, high_gt, everywhere = _orthant_gaps(space, kind, w)
    if low_gt is not None and high_gt is not None:
        return DominanceVerdict(
            Relation.INCOMPARABLE,
            StateSubset(space, low_gt),
            StateSubset(space, high_gt),
        )
    if low_gt is None and high_gt is None:
        return DominanceVerdict(Relation.EQUAL)
    strict = one_event or everywhere
    if high_gt is not None:
        return DominanceVerdict(
            Relation.STRICTLY_BELOW if strict else Relation.WEAKLY_BELOW,
            StateSubset(space, high_gt),
        )
    return DominanceVerdict(
        Relation.STRICTLY_ABOVE if strict else Relation.WEAKLY_ABOVE,
        StateSubset(space, low_gt),
    )


def orthant_gaps_by_two_lists(space, kind, w):
    """``orders._orthant_gaps`` as it was before its one early-exit pass:
    every event's gap in two lists, then the first of each (the smallest
    mask for orthants), and the all-events flag from their lengths."""
    sums = list(w)
    for f, g in space.cover_edges:
        sums[f] += sums[g]
    up = space.up_cones
    if kind is UpperFamilyKind.UPPER_ORTHANT:
        corners, first = range(1, space.size), min
    else:
        corners, first = space.projection_corners, lambda masks: masks[0]
    low_gt = [up[f] for f in corners if sums[f] > 0]
    high_gt = [up[f] for f in corners if sums[f] < 0]
    return (
        first(low_gt) if low_gt else None,
        first(high_gt) if high_gt else None,
        len(low_gt) + len(high_gt) == len(corners),
    )


# The verifier's samplers and exhaustive grids as they were before they built
# through ``core._trusted``: the same integers through the public checks.


def random_belief_by_public_constructor(rng, space, bound):
    return Belief.from_weights(space, _draw_weights(rng, space.size, bound))


def draw_likelihood_by_public_constructor(rng, space, nums, den):
    picks = [nums[i - 1] for i in _draw_weights(rng, space.size, len(nums))]
    if not any(picks):
        picks[rng.randrange(space.size)] = den
    return LikelihoodFn(space, tuple(picks), den)


def strong_pair_by_public_constructor(rng, space, bound):
    size = space.size
    while True:
        w = _draw_weights(rng, 2 * size, bound)
        a, b = w[:size], w[size:]
        sa, sb = sum(a), sum(b)
        failure = _cdf_failure(space, a, sa, b, sb)
        if failure is None:
            return Belief(space, tuple(a), sa), Belief(space, tuple(b), sb)
        if failure == (0, 0) and _cdf_failure(space, b, sb, a, sa) is None:
            return Belief(space, tuple(b), sb), Belief(space, tuple(a), sa)


def exhaustive_priors_by_public_constructor(space, denominator):
    return [Belief(space, nums, denominator) for nums in _compositions(denominator, space.size)]


def exhaustive_likelihoods_by_fractions(space, levels):
    """Each grid point over its own least common denominator."""
    return [
        LikelihoodFn.from_fractions(space, values)
        for values in product(levels, repeat=space.size)
        if any(v > 0 for v in values)
    ]


def expectation_by_state_loop(belief, values):
    """``E[values]`` as a ``Fraction`` sum over the states with positive mass.

    The slow path ``Belief.expectation`` replaced.
    """
    acc = Fraction(0)
    for n, v in zip(belief.nums, values):
        if n:
            acc += n * Fraction(v)
    return acc / belief.den


def all_basis_movements_by_expectation(basis, prior_low, prior_high, evidence):
    """Every basis function's expectation strictly falls for the low agent
    and strictly rises for the high agent.

    The slow path the integer basis predicate replaced: one ``Fraction``
    expectation per agent, basis function and prior or posterior.
    """
    posterior = update if isinstance(evidence, LikelihoodFn) else limit_posterior
    post_low = posterior(prior_low, evidence)
    post_high = posterior(prior_high, evidence)
    for u in basis:
        if expectation_by_state_loop(post_low, u) >= expectation_by_state_loop(prior_low, u):
            return False
        if expectation_by_state_loop(post_high, u) <= expectation_by_state_loop(prior_high, u):
            return False
    return True


def upper_set_masks_by_skipping(space, cap):
    """Every upper set as a bitmask, in the enumeration's depth-first order.

    The slow path the open-position walk replaced: each branch steps over the
    states that cannot join one position at a time, testing each against its
    strict up-cone.
    """
    size = space.size
    states = space.states
    order = sorted(range(size), key=lambda f: -sum(states[f]))
    up = space.up_cones
    strictly_above = [up[f] ^ 1 << f for f in order]
    out = []
    stack = [(0, 0)]
    while stack:
        pos, mask = stack.pop()
        while pos < size and strictly_above[pos] & ~mask:
            pos += 1
        if pos == size:
            if len(out) >= cap:
                raise OverflowError(cap)
            out.append(mask)
            continue
        stack.append((pos + 1, mask | 1 << order[pos]))
        stack.append((pos + 1, mask))
    return tuple(out)


def reduced_links_by_compare(prior_low, prior_high, identified):
    """``pl|I ≤CW pl|Iᶜ`` and ``ph|Iᶜ ≤CW ph|I``, as ``limit`` used to check
    them: two complement conditionals and two full compares."""
    cw = UpperFamilyKind.UPPER_PROJECTION
    complement = identified.complement()
    low = compare(
        limit_posterior(prior_low, identified), prior_low.condition(complement), cw
    ).weakly_below
    high = compare(
        prior_high.condition(complement), limit_posterior(prior_high, identified), cw
    ).weakly_below
    return low, high


def movement_signs_by_posterior(prior, posterior):
    """Sign of posterior − prior per state, cross-multiplied against a built
    posterior: the slow path ``_movement_signs`` replaced."""
    pd, qd = prior.den, posterior.den
    signs = []
    for p, q in zip(prior.nums, posterior.nums):
        diff = q * pd - p * qd
        signs.append(0 if diff == 0 else (1 if diff > 0 else -1))
    return tuple(signs)


def direction_analysis_by_posteriors(prior, prior_other, ell):
    """``direction_analysis`` as it was before it read ``bayes._movement``:
    both posteriors by ``update``, then state-by-state loops."""
    if prior.space != prior_other.space:
        raise ValueError("priors live on different spaces")
    if not (prior.full_support and prior_other.full_support):
        raise ValueError("direction analysis requires full-support priors")
    space = prior.space
    signs = movement_signs_by_posterior(prior, update(prior, ell))
    signs_other = movement_signs_by_posterior(prior_other, update(prior_other, ell))
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
    weak_down_up = [f for f in range(space.size) if signs[f] <= 0 <= signs_other[f]]
    weak_up_down = [f for f in range(space.size) if signs[f] >= 0 >= signs_other[f]]
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


# The chain fields a report exposes, settled or cached.
CHAIN_FIELDS = (
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


def chain_report_eagerly(kind, mode, pl, ph, ql, qh, strong_middle, strictness, identified=None):
    """The chain ``ql < pl < ph < qh``, every link up front, as a namespace
    of ``CHAIN_FIELDS`` and ``checks``.

    The slow path the lazy report replaced: all three links and the direction
    table are worked out before the verdict, and none of the report's code
    runs.
    """
    low_drop = compare(ql, pl, kind, strictness)
    if strong_middle:
        prior_gap = compare_strong_cw(pl, ph)
        middle_ok = prior_gap.holds
    else:
        prior_gap = compare(pl, ph, kind, strictness)
        middle_ok = prior_gap.strictly_below
    high_rise = compare(ph, qh, kind, strictness)
    checks = {
        "low_drop": low_drop.strictly_below,
        "prior_gap": middle_ok,
        "high_rise": high_rise.strictly_below,
    }
    return SimpleNamespace(
        checks=checks,
        kind=kind,
        mode=mode,
        verdict=all(checks.values()),
        low_drop=low_drop,
        prior_gap=prior_gap,
        high_rise=high_rise,
        directions=DirectionTable(
            pl.space.states,
            movement_signs_by_posterior(pl, ql),
            movement_signs_by_posterior(ph, qh),
        ),
        strong_middle=strong_middle,
        strictness=strictness,
        posterior_low=ql,
        posterior_high=qh,
        identified_set=identified,
    )


def extreme_set_by_states(subset, minimal):
    """The minimal (or maximal) members of ``subset`` from ``leq`` on states:
    those with no other member weakly below (or above) them."""
    members = subset.states()
    kept = [
        s
        for s in members
        if not any(t != s and (leq(t, s) if minimal else leq(s, t)) for t in members)
    ]
    return StateSubset.from_states(subset.space, kept)


def build_polarizing_priors_by_subsets(space, identified):
    """``build_polarizing_priors`` as it was before its assembly moved onto
    masks: ``StateSubset`` antichains (here from ``leq`` on states) and
    residuals, ``Belief.uniform_on`` residual parts, and each part mixed in
    as a ``Belief`` at its layer weight.

    Returns ``(prior_low, prior_high, epsilon, delta)``; a set the classifier
    rejects raises ``ValueError``.
    """
    if not classify(space, identified).can_strongly_polarize:
        raise ValueError("identified set fails the polarization conditions")
    complement = identified.complement()
    low_min = extreme_set_by_states(identified, minimal=True)
    high_max = extreme_set_by_states(identified, minimal=False)
    comp_max = extreme_set_by_states(complement, minimal=False)
    comp_min = extreme_set_by_states(complement, minimal=True)
    low_core, high_core, low_comp, high_comp, epsilon = _conditional_pieces(
        space, low_min, high_max, comp_max, comp_min
    )

    def layers(core, core_rest, comp, comp_rest):
        parts = []
        for side, piece, rest in ((0, core, core_rest), (1, comp, comp_rest)):
            if rest.is_empty:
                parts.append((1 - side, side, piece))
            else:
                parts.append((2 - side, side, piece))
                parts.append((1 - side, side + 1, Belief.uniform_on(space, rest)))
        return parts

    def mix(parts, delta):
        masses = [Fraction(0)] * space.size
        for a, b, part in parts:
            weight = (1 - delta) ** a * delta**b
            masses = [m + weight * x for m, x in zip(masses, part.masses())]
        return Belief.from_fractions(space, masses)

    low_parts = layers(
        low_core, identified.difference(low_min), low_comp, complement.difference(comp_max)
    )
    high_parts = layers(
        high_core, identified.difference(high_max), high_comp, complement.difference(comp_min)
    )
    delta = Fraction(1, 2)
    while delta >= Fraction(1, 2**64):
        if (1 - delta) * epsilon > delta and (1 - delta) ** 2 * epsilon > (
            (1 - delta) * 2 * delta + delta**2
        ):
            prior_low, prior_high = mix(low_parts, delta), mix(high_parts, delta)
            certificate = limit(
                UpperFamilyKind.UPPER_PROJECTION,
                prior_low,
                prior_high,
                identified,
                strong_middle=True,
            )
            if certificate.verdict:
                return prior_low, prior_high, epsilon, delta
        delta /= 2
    raise RuntimeError("delta search exhausted")


def slice_duplications(space):
    """For every axis and index of ``space``, the map taking a subset to the
    grid with that slice doubled: a copy of the slice is inserted after it,
    and the copy's states are members exactly where the slice's are."""

    def duplication(axis, index):
        shape = list(space.shape)
        shape[axis] += 1
        grown = StateSpace.grid(*shape)
        sources = []
        for state in grown.states:
            source = list(state)
            if source[axis] > index:
                source[axis] -= 1
            sources.append(space.flat(tuple(source)))

        def duplicate(subset):
            mask = 0
            for g, f in enumerate(sources):
                mask |= (subset.mask >> f & 1) << g
            return StateSubset(grown, mask)

        return duplicate

    return [duplication(axis, index) for axis, n in enumerate(space.shape) for index in range(n)]
