from fractions import Fraction
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
    compare,
    compare_strong_cw,
    limit_posterior,
    update,
)
from bayespol.orders import _orthant_gaps, _upper_set_gaps
from bayespol.polarization import DirectionAnalysis, DirectionTable

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
