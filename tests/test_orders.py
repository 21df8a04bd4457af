import hashlib
import random
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespol import (
    Belief,
    CapExceededError,
    DominanceVerdict,
    LikelihoodFn,
    Mode,
    PolarizationReport,
    Relation,
    StateSpace,
    StateSubset,
    Strictness,
    SweepConfig,
    UpperFamilyKind,
    UtilityFn,
    compare,
    compare_by_generators,
    compare_strong_cw,
    event_family,
    family_polarization_search,
    leq,
    limit,
    one_shot,
)
from bayespol.orders import (
    DEFAULT_UPPER_SET_CAP,
    _cdf_failure,
    _family_masks,
    _max_closure,
    _upper_set_masks,
    additive_parts,
    canonical_basis,
    in_generating_class,
    is_increasing,
    product_parts,
)

from conftest import (
    DIAGONAL,
    GRID_2X2,
    GRID_2X3,
    GRID_3X3,
    MIRROR_HIGH,
    MIRROR_LOW,
    beliefs,
    strong_cw_failure_by_state_loop,
    upper_set_masks_by_skipping,
)

ST = UpperFamilyKind.UPPER_SET
UO = UpperFamilyKind.UPPER_ORTHANT
CW = UpperFamilyKind.UPPER_PROJECTION

GRID_2X2X2 = StateSpace.grid(2, 2, 2)

# Frozen witnesses that the reverse order implications fail.  The first pair
# is orthant-dominated yet incomparable on upper sets (the "upper L" event
# flips); the second is coordinatewise-dominated yet incomparable on orthants
# (the top corner flips).
UO_NOT_ST_PAIR = ((1, 6, 6, 7), (2, 4, 4, 10))
CW_NOT_UO_PAIR = ((7, 4, 4, 5), (4, 6, 6, 4))


# -- enumeration -------------------------------------------------------------


def test_2x2_upper_sets_include_the_upper_l():
    events = {e.states() for e in event_family(GRID_2X2, ST)}
    assert events == {
        ((1, 1),),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 0), (1, 1)),
    }


def test_2x2_orthants_nonempty_are_four():
    # Counting the whole grid (itself an orthant) there are four; the proper
    # nonempty family used by comparators drops it.
    proper = {e.states() for e in event_family(GRID_2X2, UO)}
    assert proper == {((1, 1),), ((0, 1), (1, 1)), ((1, 0), (1, 1))}
    assert len(proper | {GRID_2X2.states}) == 4


def test_projection_count_is_sum_of_axis_cuts():
    assert len(event_family(GRID_2X3, CW)) == (2 - 1) + (3 - 1)
    assert len(event_family(GRID_3X3, CW)) == 4


@pytest.mark.parametrize("shape,expected", [((2, 2), 4), ((2, 3), 8), ((3, 3), 18)])
def test_upper_set_counts_match_power_set_filter(shape, expected):
    space = StateSpace.grid(*shape)
    fam = {e.mask for e in event_family(space, ST)}
    oracle = set()
    for bits in range(1, space.full_mask):
        members = [space.state_at(f) for f in range(space.size) if bits >> f & 1]
        upward_closed = all(
            bits >> space.flat(other) & 1
            for m in members
            for other in space.states
            if leq(m, other)
        )
        if upward_closed:
            oracle.add(bits)
    assert fam == oracle
    assert len(fam) == expected


def test_family_inclusions():
    for space in (GRID_2X2, GRID_2X3, GRID_3X3):
        proj = {e.mask for e in event_family(space, CW)}
        orth = {e.mask for e in event_family(space, UO)}
        upper = {e.mask for e in event_family(space, ST)}
        assert proj <= orth <= upper


def test_upper_set_cap():
    with pytest.raises(CapExceededError):
        event_family(GRID_3X3, ST, cap=5)


def test_upper_set_enumeration_order_is_pinned():
    for space, digest in ((GRID_3X3, "abd3bd7582d25a16"), (GRID_2X2X2, "6e5c8beabd9afb29")):
        masks = ",".join(str(e.mask) for e in event_family(space, ST))
        assert hashlib.sha256(masks.encode()).hexdigest()[:16] == digest


# Every shape whose sorted sides fit under 3x4x4, in every axis order, plus
# a long 2-D grid and a 4-D one.
_WALK_SHAPES = sorted(
    {(n,) for n in range(2, 7)}
    | {(a, b) for a in range(2, 5) for b in range(2, 5)}
    | {
        perm
        for a in range(2, 4)
        for b in range(a, 5)
        for c in range(b, 5)
        for perm in permutations((a, b, c))
    }
    | {(2, 60), (2, 2, 2, 2)}
)


@pytest.mark.parametrize("shape", _WALK_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_upper_set_walk_matches_the_skipping_walk(shape):
    space = StateSpace.grid(*shape)
    expected = upper_set_masks_by_skipping(space, DEFAULT_UPPER_SET_CAP)
    assert _upper_set_masks(space, DEFAULT_UPPER_SET_CAP) == expected
    # the cap trips at the same count
    cap = len(expected) - 1
    with pytest.raises(CapExceededError):
        _upper_set_masks(space, cap)
    with pytest.raises(OverflowError):
        upper_set_masks_by_skipping(space, cap)
    assert len(_upper_set_masks(space, len(expected))) == len(expected)


def test_upper_sets_of_a_long_chain():
    # One state per level: the enumeration must not recurse once per state.
    chain = StateSpace.grid(1100)
    family = event_family(chain, ST)
    assert [e.mask for e in family] == [
        chain.full_mask ^ ((1 << k) - 1) for k in range(1099, 0, -1)
    ]
    with pytest.raises(CapExceededError):
        event_family(chain, ST, cap=1000)


# -- compare -----------------------------------------------------------------


def test_mirror_priors_strictly_ordered_coordinatewise():
    assert compare(MIRROR_LOW, MIRROR_HIGH, CW).relation is Relation.STRICTLY_BELOW


def test_compare_is_reflexive_equal():
    for kind in (ST, UO, CW):
        assert compare(MIRROR_LOW, MIRROR_LOW, kind).relation is Relation.EQUAL


def test_posterior_vs_prior_incomparable_on_upper_sets():
    posterior = MIRROR_HIGH.condition(DIAGONAL)
    verdict = compare(MIRROR_HIGH, posterior, ST)
    assert verdict.relation is Relation.INCOMPARABLE
    upper_l = StateSubset.from_states(GRID_2X2, [(0, 1), (1, 0), (1, 1)])
    witnesses = {verdict.witness.mask, verdict.opposite_witness.mask}
    assert upper_l.mask in witnesses
    assert MIRROR_HIGH.prob(upper_l) == F(7, 8) > posterior.prob(upper_l) == F(3, 4)


def test_implication_chain_on_frozen_counterexamples():
    q = Belief.from_weights(GRID_2X2, UO_NOT_ST_PAIR[0])
    p = Belief.from_weights(GRID_2X2, UO_NOT_ST_PAIR[1])
    assert compare(q, p, UO).relation is Relation.STRICTLY_BELOW
    assert compare(q, p, ST).relation is Relation.INCOMPARABLE

    q2 = Belief.from_weights(GRID_2X2, CW_NOT_UO_PAIR[0])
    p2 = Belief.from_weights(GRID_2X2, CW_NOT_UO_PAIR[1])
    assert compare(q2, p2, CW).relation is Relation.STRICTLY_BELOW
    assert compare(q2, p2, UO).relation is Relation.INCOMPARABLE


@given(beliefs(GRID_2X3), beliefs(GRID_2X3))
def test_implication_chain_st_uo_cw(a, b):
    if compare(a, b, ST).weakly_below:
        assert compare(a, b, UO).weakly_below
    if compare(a, b, UO).weakly_below:
        assert compare(a, b, CW).weakly_below


@given(beliefs(GRID_2X2), beliefs(GRID_2X2))
def test_antisymmetry_up_to_equal(a, b):
    for kind in (ST, UO, CW):
        if compare(a, b, kind).weakly_below and compare(b, a, kind).weakly_below:
            assert compare(a, b, kind).relation is Relation.EQUAL


@given(beliefs(GRID_2X2), beliefs(GRID_2X2), beliefs(GRID_2X2))
def test_weak_dominance_is_transitive(a, b, c):
    for kind in (ST, UO, CW):
        if compare(a, b, kind).weakly_below and compare(b, c, kind).weakly_below:
            assert compare(a, c, kind).weakly_below


def test_equal_under_cw_can_differ_as_distributions():
    diag_mix = Belief.from_weights(GRID_2X2, (1, 0, 0, 1))
    uniform = Belief.uniform(GRID_2X2)
    assert compare(diag_mix, uniform, CW).relation is Relation.EQUAL
    assert diag_mix != uniform
    assert compare(diag_mix, uniform, UO).relation is not Relation.EQUAL


def test_all_events_strictness_convention():
    bottom = Belief.dirac(GRID_2X2, (0, 0))
    top = Belief.dirac(GRID_2X2, (1, 1))
    assert (
        compare(bottom, top, CW, Strictness.ALL_EVENTS).relation
        is Relation.STRICTLY_BELOW
    )
    # Tie on the first axis, strict on the second: weakly but not strictly below.
    tilted = Belief.from_weights(GRID_2X2, (2, 2, 1, 3))
    uniform = Belief.uniform(GRID_2X2)
    verdict = compare(uniform, tilted, CW, Strictness.ALL_EVENTS)
    assert verdict.relation is Relation.WEAKLY_BELOW
    assert compare(uniform, tilted, CW).relation is Relation.STRICTLY_BELOW


def test_compare_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        compare(MIRROR_LOW, Belief.uniform(GRID_3X3), CW)


# -- upper sets by minimum cut, against the enumerated family ----------------


def _brute_force_relation(low, high, strictness):
    """The relation from the definitions, over every enumerated upper set."""
    signs = [
        (low.prob(e) < high.prob(e)) - (low.prob(e) > high.prob(e))
        for e in event_family(low.space, ST)
    ]
    below, above = 1 in signs, -1 in signs
    if below and above:
        return Relation.INCOMPARABLE
    if not below and not above:
        return Relation.EQUAL
    sign = 1 if below else -1
    strict = strictness is Strictness.ONE_EVENT or all(s == sign for s in signs)
    if below:
        return Relation.STRICTLY_BELOW if strict else Relation.WEAKLY_BELOW
    return Relation.STRICTLY_ABOVE if strict else Relation.WEAKLY_ABOVE


def _assert_matches_brute_force(low, high, strictness):
    verdict = compare(low, high, ST, strictness)
    assert verdict.relation is _brute_force_relation(low, high, strictness)
    family = {e.mask for e in event_family(low.space, ST)}
    expected = {
        Relation.STRICTLY_BELOW: [(verdict.witness, 1)],
        Relation.WEAKLY_BELOW: [(verdict.witness, 1)],
        Relation.STRICTLY_ABOVE: [(verdict.witness, -1)],
        Relation.WEAKLY_ABOVE: [(verdict.witness, -1)],
        Relation.INCOMPARABLE: [(verdict.witness, -1), (verdict.opposite_witness, 1)],
    }.get(verdict.relation, [])
    for event, sign in expected:
        assert event.mask in family
        gap = high.prob(event) - low.prob(event)
        assert (gap > 0) - (gap < 0) == sign


def _moved_up(space, weights, moves):
    """Shift integer mass from states to states at or above them."""
    out = list(weights)
    for src, dst, amount in moves:
        src, dst = src % space.size, dst % space.size
        if leq(space.state_at(src), space.state_at(dst)):
            amount = min(amount, out[src])
            out[src] -= amount
            out[dst] += amount
    return out


@st.composite
def _st_pairs(draw):
    space = draw(st.sampled_from([GRID_2X2, GRID_2X3, GRID_3X3, GRID_2X2X2]))
    weights = st.lists(
        st.integers(min_value=0, max_value=9), min_size=space.size, max_size=space.size
    ).filter(any)
    low = draw(weights)
    if draw(st.booleans()):
        moves = st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(1, 9))
        high = _moved_up(space, low, draw(st.lists(moves, max_size=12)))
    else:
        high = draw(weights)
    low, high = Belief.from_weights(space, low), Belief.from_weights(space, high)
    return (low, high) if draw(st.booleans()) else (high, low)


@settings(max_examples=400)
@given(_st_pairs(), st.sampled_from(list(Strictness)))
def test_upper_set_compare_matches_enumeration(pair, strictness):
    _assert_matches_brute_force(*pair, strictness)


def test_upper_set_compare_matches_enumeration_on_3x3x3():
    space = StateSpace.grid(3, 3, 3)
    rng = random.Random(27)
    for _ in range(6):
        low = [rng.randint(1, 9) for _ in range(space.size)]
        moves = [
            (rng.randrange(space.size), rng.randrange(space.size), rng.randint(1, 9))
            for _ in range(20)
        ]
        pairs = [(low, _moved_up(space, low, moves)),
                 (low, [rng.randint(0, 9) or 1 for _ in range(space.size)])]
        for lo, hi in pairs:
            a, b = Belief.from_weights(space, lo), Belief.from_weights(space, hi)
            for strictness in Strictness:
                _assert_matches_brute_force(a, b, strictness)
                _assert_matches_brute_force(b, a, strictness)


# -- upper orthants and projections, against a first-event scan -------------


def _first_event_verdict(low, high, kind, strictness):
    """The verdict from the definitions: a scan of ``event_family(space,
    kind)`` in listed order, whose first event with each sign of gap is the
    witness."""
    events = event_family(low.space, kind)
    gaps = [high.prob(e) - low.prob(e) for e in events]
    low_gt = next((e for e, g in zip(events, gaps) if g < 0), None)
    high_gt = next((e for e, g in zip(events, gaps) if g > 0), None)
    if low_gt is not None and high_gt is not None:
        return DominanceVerdict(Relation.INCOMPARABLE, low_gt, high_gt)
    if low_gt is None and high_gt is None:
        return DominanceVerdict(Relation.EQUAL)
    strict = strictness is Strictness.ONE_EVENT or all(gaps)
    if high_gt is not None:
        relation = Relation.STRICTLY_BELOW if strict else Relation.WEAKLY_BELOW
        return DominanceVerdict(relation, high_gt)
    relation = Relation.STRICTLY_ABOVE if strict else Relation.WEAKLY_ABOVE
    return DominanceVerdict(relation, low_gt)


@settings(max_examples=400)
@given(_st_pairs(), st.sampled_from([UO, CW]), st.sampled_from(list(Strictness)))
def test_orthant_and_projection_compare_match_first_event_scan(pair, kind, strictness):
    low, high = pair
    assert compare(low, high, kind, strictness) == _first_event_verdict(
        low, high, kind, strictness
    )


def test_orthant_and_projection_compare_match_first_event_scan_on_3x3x3():
    space = StateSpace.grid(3, 3, 3)
    rng = random.Random(33)
    for _ in range(8):
        low = [rng.randint(1, 9) for _ in range(space.size)]
        moves = [
            (rng.randrange(space.size), rng.randrange(space.size), rng.randint(1, 9))
            for _ in range(20)
        ]
        pairs = [(low, _moved_up(space, low, moves)),
                 (low, [rng.randint(0, 9) or 1 for _ in range(space.size)])]
        for lo, hi in pairs:
            a, b = Belief.from_weights(space, lo), Belief.from_weights(space, hi)
            for kind, strictness in product((UO, CW), Strictness):
                assert compare(a, b, kind, strictness) == _first_event_verdict(
                    a, b, kind, strictness
                )
                assert compare(b, a, kind, strictness) == _first_event_verdict(
                    b, a, kind, strictness
                )


@pytest.mark.parametrize("shape,trials", [((3, 3), 1500), ((2, 2, 2), 1500), ((3, 3, 3), 400)])
def test_max_closure_matches_enumeration(shape, trials):
    # Free integer weights defeat the greedy start far more often than
    # belief gaps do, so the augmenting paths and their bottlenecks run.
    space = StateSpace.grid(*shape)
    up = space.up_cones
    uppers = [0, space.full_mask] + [e.mask for e in event_family(space, ST)]
    flats = {m: StateSubset(space, m).flats() for m in uppers}
    rng = random.Random(sum(shape))
    for _ in range(trials):
        w = [rng.randint(-9, 9) for _ in range(space.size)]
        totals = {m: sum(w[f] for f in flats[m]) for m in uppers}
        best = max(totals.values())
        value, cut = _max_closure(up, w)
        assert value == best
        assert totals[cut] == best
        assert all(cut & ~m == 0 for m in uppers if totals[m] == best)


def test_upper_set_all_events_needs_every_proper_upper_set():
    # Mass moved from the bottom to the middle of the top row leaves the
    # top corner's mass equal, so the order is strict on one event only.
    low = Belief.from_weights(GRID_2X3, (2, 1, 1, 1, 1, 1))
    high = Belief.from_weights(GRID_2X3, (1, 1, 1, 1, 2, 1))
    assert compare(low, high, ST).relation is Relation.STRICTLY_BELOW
    verdict = compare(low, high, ST, Strictness.ALL_EVENTS)
    assert verdict.relation is Relation.WEAKLY_BELOW
    mover = Belief.from_weights(GRID_2X3, (1, 1, 1, 1, 1, 2))
    assert compare(low, mover, ST, Strictness.ALL_EVENTS).relation is Relation.STRICTLY_BELOW


# -- strong coordinatewise ---------------------------------------------------


def test_strong_cw_extreme_point_masses():
    bottom = Belief.dirac(GRID_2X2, (0, 0))
    top = Belief.dirac(GRID_2X2, (1, 1))
    assert compare_strong_cw(bottom, top).holds


def test_strong_cw_mirror_priors():
    assert compare_strong_cw(MIRROR_LOW, MIRROR_HIGH).holds


def test_strong_cw_fails_on_equal_beliefs_with_axis_witness():
    uniform = Belief.uniform(GRID_2X2)
    verdict = compare_strong_cw(uniform, uniform)
    assert not verdict.holds
    assert verdict.axis == 0 and verdict.cut == 0


def _weak_cdf_failure_by_fractions(a, b):
    """First ``(axis, cut)`` where a's marginal cdf, in ``Fraction``s, is
    below b's."""
    for axis in range(a.space.ndim):
        a_cdf, b_cdf = a.marginal(axis).cdf, b.marginal(axis).cdf
        for cut in range(len(a_cdf) - 1):
            if a_cdf[cut] < b_cdf[cut]:
                return axis, cut
    return None


@settings(max_examples=400)
@given(_st_pairs(), st.integers(1, 6), st.integers(1, 6))
def test_strong_cw_kernel_matches_the_state_loop(pair, low_scale, high_scale):
    """Both directions, on reduced beliefs and on unreduced numerators; the
    weak kernel against ``Fraction`` marginal cdfs, ties included."""
    low, high = pair
    space = low.space
    for a, b in ((low, high), (high, low), (low, low)):
        expected = strong_cw_failure_by_state_loop(a, b)
        verdict = compare_strong_cw(a, b)
        assert verdict.holds is (expected is None)
        assert (verdict.axis, verdict.cut) == (expected or (None, None))
        scaled = (
            space,
            [low_scale * n for n in a.nums],
            low_scale * a.den,
            [high_scale * n for n in b.nums],
            high_scale * b.den,
        )
        assert _cdf_failure(*scaled) == expected
        assert _cdf_failure(*scaled, strict=False) == _weak_cdf_failure_by_fractions(a, b)


@given(beliefs(GRID_2X3, full_support=True), beliefs(GRID_2X3, full_support=True))
def test_strong_cw_implies_strict_cw(a, b):
    if compare_strong_cw(a, b).holds:
        assert compare(a, b, CW).relation is Relation.STRICTLY_BELOW


# -- generating functions ----------------------------------------------------


def test_membership_validators():
    values = (F(0), F(1), F(1), F(2))
    assert is_increasing(GRID_2X2, values)
    assert additive_parts(GRID_2X2, values) is not None
    assert product_parts(GRID_2X2, values) is None  # 0*2 != 1*1
    corner = (F(0), F(0), F(0), F(1))
    assert product_parts(GRID_2X2, corner) is not None
    assert additive_parts(GRID_2X2, corner) is None
    decreasing = (F(1), F(0), F(0), F(0))
    assert not is_increasing(GRID_2X2, decreasing)


@pytest.mark.parametrize("space", [GRID_2X2, GRID_2X3])
def test_is_increasing_matches_all_pairs_definition(space):
    pairs = [(f, g) for f in range(space.size) for g in range(space.size)
             if leq(space.state_at(f), space.state_at(g))]
    for values in product((F(0), F(1), F(2)), repeat=space.size):
        expected = all(values[f] <= values[g] for f, g in pairs)
        assert is_increasing(space, values) == expected


def test_constant_function_never_violates():
    constant = [F(3)] * 4
    assert compare_by_generators(MIRROR_HIGH, MIRROR_LOW, ST, basis=[constant])
    assert compare_by_generators(MIRROR_LOW, MIRROR_HIGH, ST, basis=[constant])


def test_additive_step_function_expectations():
    values = (F(0), F(1), F(1), F(2))
    assert MIRROR_LOW.expectation(values) == F(3, 4)
    assert MIRROR_HIGH.expectation(values) == F(5, 4)
    assert compare_by_generators(MIRROR_LOW, MIRROR_HIGH, CW, basis=[values])


def test_bad_basis_function_rejected():
    decreasing = (F(1), F(0), F(0), F(0))
    with pytest.raises(ValueError, match="generating class"):
        compare_by_generators(MIRROR_LOW, MIRROR_HIGH, ST, basis=[decreasing])


def test_pairwise_sums_basis_agrees_with_projection_compare():
    rng = random.Random(91)
    singles = [
        [F(1) if s[axis] >= cut else F(0) for s in GRID_2X2.states]
        for axis in range(2)
        for cut in (1,)
    ]
    basis = [
        [a + b for a, b in zip(u, v)] for u, v in combinations(singles, 2)
    ]
    for _ in range(1000):
        a = Belief.from_weights(GRID_2X2, [rng.randint(0, 9) or 1 for _ in range(4)])
        b = Belief.from_weights(GRID_2X2, [rng.randint(0, 9) or 1 for _ in range(4)])
        by_events = compare(a, b, CW).weakly_below
        by_singles = compare_by_generators(a, b, CW, basis=singles)
        assert by_singles == by_events
        if by_events:
            assert compare_by_generators(a, b, CW, basis=basis)


@settings(max_examples=60)
@given(beliefs(GRID_2X2, max_weight=8), beliefs(GRID_2X2, max_weight=8))
def test_canonical_basis_duality(a, b):
    for kind in (ST, UO, CW):
        assert compare_by_generators(a, b, kind) == compare(a, b, kind).weakly_below


def test_strong_dominance_gives_strict_expectation_gap():
    rng = random.Random(5)
    found = 0
    while found < 40:
        lo = Belief.from_weights(GRID_2X3, [rng.randint(1, 9) for _ in range(6)])
        hi = Belief.from_weights(GRID_2X3, [rng.randint(1, 9) for _ in range(6)])
        if not compare_strong_cw(lo, hi).holds:
            continue
        found += 1
        for _ in range(25):
            u0 = sorted(rng.randint(0, 6) for _ in range(2))
            u1 = sorted(rng.randint(0, 6) for _ in range(3))
            values = [F(u0[s[0]] + u1[s[1]]) for s in GRID_2X3.states]
            if len(set(values)) == 1:
                continue
            assert lo.expectation(values) < hi.expectation(values)


def test_family_caches_are_bounded():
    for n in range(2, 80):
        space = StateSpace.grid(n)
        event_family(space, UO)
        canonical_basis(space, UO)
    for cached in (_family_masks, canonical_basis):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


# -- enum arguments ---------------------------------------------------------------

_HALF = LikelihoodFn(GRID_2X2, (1, 1, 1, 1), 2)

# (entry point called with one non-enum value, the field the error names)
NON_MEMBER_CALLS = [
    (lambda: compare(MIRROR_LOW, MIRROR_HIGH, "st"), "kind"),
    (lambda: compare(MIRROR_LOW, MIRROR_HIGH, ST, "one_event"), "strictness"),
    (lambda: event_family(GRID_2X2, "uo"), "kind"),
    (lambda: canonical_basis(GRID_2X2, "cw"), "kind"),
    (lambda: compare_by_generators(MIRROR_LOW, MIRROR_HIGH, "uo"), "kind"),
    (lambda: compare_by_generators(MIRROR_LOW, MIRROR_HIGH, "uo", [(0, 0, 0, 1)]), "kind"),
    (lambda: in_generating_class(GRID_2X2, (0, 0, 0, 1), "st"), "kind"),
    (lambda: one_shot("st", MIRROR_LOW, MIRROR_HIGH, _HALF), "kind"),
    (lambda: one_shot(ST, MIRROR_LOW, MIRROR_HIGH, _HALF, "one_event"), "strictness"),
    (lambda: limit("cw", MIRROR_LOW, MIRROR_HIGH, DIAGONAL), "kind"),
    (lambda: limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL, False, "all_events"), "strictness"),
    (lambda: PolarizationReport("cw", MIRROR_LOW, MIRROR_HIGH, DIAGONAL, False,
                                Strictness.ONE_EVENT), "kind"),
    (lambda: PolarizationReport(UO, MIRROR_LOW, MIRROR_HIGH, _HALF, False, "one_event"),
     "strictness"),
    (lambda: SweepConfig("st", Mode.LIMIT, (2, 2)), "kind"),
    (lambda: SweepConfig(ST, "oneshot", (2, 2)), "mode"),
    (lambda: SweepConfig(ST, None, (2, 2)), "mode"),
    (lambda: UtilityFn(GRID_2X2, (0, 1, 1, 2), "sums"), "kind"),
    (lambda: family_polarization_search("sums", Mode.LIMIT, GRID_2X2), "family"),
]


@pytest.mark.parametrize(
    "call,field",
    NON_MEMBER_CALLS,
    ids=[
        "compare-kind", "compare-strictness", "event_family", "canonical_basis",
        "compare_by_generators", "compare_by_generators-basis", "in_generating_class",
        "one_shot-kind",
        "one_shot-strictness", "limit-kind", "limit-strictness",
        "report-kind", "report-strictness", "sweep-kind",
        "sweep-mode", "sweep-mode-none", "utility-kind", "family-search-family",
    ],
)
def test_non_enum_values_are_refused_by_name(call, field):
    # Dispatch tests enum members by identity: "st" used to run the
    # coordinatewise branch, "uo" to list the upper sets, "one_event" to mean
    # ALL_EVENTS and a "oneshot" sweep to run limit trials; a "sums" family
    # raised a bare KeyError.
    with pytest.raises(ValueError, match=f"^{field} must be a member of "):
        call()
