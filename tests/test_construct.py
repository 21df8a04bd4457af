import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespol import (
    Belief,
    Relation,
    StateSpace,
    StateSubset,
    Strictness,
    UpperFamilyKind,
    antichain_distributions,
    antichain_dominates,
    build_polarizing_priors,
    classify,
    compare,
    compare_strong_cw,
    find_one_shot_orthant_instance,
    is_antichain,
    mirror_extremes_instance,
    mirror_extremes_threshold,
    one_shot_orthant_instance,
)
from bayespol.construct import (
    _PIECES_CACHE_SIZE,
    _box_cdf_gap,
    _conditional_pieces,
    _grid_pieces,
    _joint_strong_solve,
)
from bayespol.classifier import max_set, min_set

from conftest import (
    DIAGONAL,
    GRID_2X2,
    GRID_2X3,
    GRID_3X3,
    OFF_DIAGONAL,
    build_polarizing_priors_by_subsets,
    slice_duplications,
)

ST = UpperFamilyKind.UPPER_SET
UO = UpperFamilyKind.UPPER_ORTHANT


def _subset(space, *states):
    return StateSubset.from_states(space, states)


# -- antichain distributions -----------------------------------------------------


def test_extreme_singletons_give_point_masses():
    low, high = antichain_distributions(
        GRID_2X2, _subset(GRID_2X2, (0, 0)), _subset(GRID_2X2, (1, 1))
    )
    assert low == Belief.dirac(GRID_2X2, (0, 0))
    assert high == Belief.dirac(GRID_2X2, (1, 1))
    assert compare_strong_cw(low, high).holds


def test_singleton_high_side_is_a_point_mass_at_the_top():
    low, high = antichain_distributions(
        GRID_2X2, OFF_DIAGONAL, _subset(GRID_2X2, (1, 1))
    )
    assert high == Belief.dirac(GRID_2X2, (1, 1))
    assert low.support() == OFF_DIAGONAL
    assert low.marginal(0).cdf[0] > 0 == high.marginal(0).cdf[0]


def test_two_element_antichains_on_3x3():
    low = _subset(GRID_3X3, (0, 1), (1, 0))
    high = _subset(GRID_3X3, (1, 2), (2, 1))
    low_dist, high_dist = antichain_distributions(GRID_3X3, low, high)
    assert compare_strong_cw(low_dist, high_dist).holds
    assert low_dist.support() == low and high_dist.support() == high


def test_precondition_violation_raises():
    low = _subset(GRID_3X3, (0, 2), (2, 0))
    high = _subset(GRID_3X3, (1, 2), (2, 1))
    with pytest.raises(ValueError, match="precondition"):
        antichain_distributions(GRID_3X3, low, high)


def _random_antichain(rng, space):
    flats = list(range(space.size))
    rng.shuffle(flats)
    picked = StateSubset.empty(space)
    for f in flats:
        candidate = picked.union(StateSubset.from_flats(space, [f]))
        if is_antichain(candidate) and rng.random() < 0.7:
            picked = candidate
    return picked


def _seeded_dominant_pairs(count=60):
    """Random antichain pairs on 4x4 with high dominating low, drawn from seed 11."""
    rng = random.Random(11)
    space = StateSpace.grid(4, 4)
    produced = 0
    while produced < count:
        low = _random_antichain(rng, space)
        high = _random_antichain(rng, space)
        if low.is_empty or high.is_empty:
            continue
        if not antichain_dominates(space, low, high).holds:
            continue
        yield space, low, high
        produced += 1


def test_random_dominant_pairs_produce_strongly_ordered_outputs():
    for space, low, high in _seeded_dominant_pairs():
        low_dist, high_dist = antichain_distributions(space, low, high)
        assert compare_strong_cw(low_dist, high_dist).holds
        assert low_dist.support() == low and high_dist.support() == high


def test_antichain_distributions_match_their_pinned_digest():
    h = hashlib.sha256()
    for space, low, high in _seeded_dominant_pairs():
        low_dist, high_dist = antichain_distributions(space, low, high)
        h.update(repr((low.mask, high.mask, low_dist.nums, low_dist.den,
                       high_dist.nums, high_dist.den)).encode())
    assert h.hexdigest()[:16] == "e049f1a5a1d9daba"


def test_joint_solver_satisfies_all_relations():
    ring = StateSubset.full(GRID_3X3).difference(_subset(GRID_3X3, (0, 0), (2, 2)))
    complement = ring.complement()
    chains = [
        min_set(ring).flats(),
        max_set(ring).flats(),
        max_set(complement).flats(),
        min_set(complement).flats(),
    ]
    relations = [(0, 1), (0, 2), (3, 1)]
    solution = _joint_strong_solve(GRID_3X3, chains, relations)
    for low_pos, high_pos in relations:
        assert compare_strong_cw(solution[low_pos], solution[high_pos]).holds


def test_joint_solver_refuses_a_constraint_cycle():
    # an antichain strictly below itself: each cut's prefix must exceed itself
    chains = [(1, 2), (1, 2)]
    for relations in ([(0, 1), (1, 0)], [(0, 1)]):
        with pytest.raises(AssertionError, match="constraint cycle"):
            _joint_strong_solve(GRID_2X2, chains, relations)


@pytest.mark.parametrize("space", [GRID_2X3, GRID_3X3], ids=repr)
@settings(max_examples=150)
@given(data=st.data())
def test_full_box_gap_is_positive_iff_strongly_ordered(space, data):
    weights = st.lists(st.integers(1, 9), min_size=space.size, max_size=space.size)
    low, high = data.draw(weights), data.draw(weights)
    # tilting the low side to the bottom corner and the high side to the top
    # makes both outcomes common
    tilt = data.draw(st.integers(0, 40))
    low[0] += tilt
    high[-1] += tilt
    low, high = Belief.from_weights(space, low), Belief.from_weights(space, high)
    full_box = (space.bottom, space.top)
    for a, b in ((low, high), (high, low)):
        assert (_box_cdf_gap(a, b, full_box) > 0) is compare_strong_cw(a, b).holds


def _box_cdf_gap_by_states(low, high, box):
    # the definition, state by state: per cut, the masses with s[axis] <= cut
    states = low.space.states
    gaps = []
    for axis in range(low.space.ndim):
        for cut in range(box[0][axis], box[1][axis]):
            fl = sum(low.mass_flat(f) for f, s in enumerate(states) if s[axis] <= cut)
            fh = sum(high.mass_flat(f) for f, s in enumerate(states) if s[axis] <= cut)
            gaps.append(fl - fh)
    return min(gaps)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 4)])
def test_box_cdf_gap_matches_the_state_definition(shape):
    space = StateSpace.grid(*shape)
    rng = random.Random(15)
    rows, cols = shape
    boxes = [
        ((lo0, lo1), (hi0, hi1))
        for lo0 in range(rows) for hi0 in range(lo0, rows)
        for lo1 in range(cols) for hi1 in range(lo1, cols)
        if lo0 < hi0 or lo1 < hi1
    ]
    for _ in range(8):
        low, high = (
            Belief.from_weights(space, [rng.randint(0, 9) for _ in range(space.size)])
            for _ in range(2)
        )
        for box in boxes:
            assert _box_cdf_gap(low, high, box) == _box_cdf_gap_by_states(low, high, box)


# -- polarizing priors ------------------------------------------------------------


def test_diagonal_construction_certifies():
    result = build_polarizing_priors(GRID_2X2, DIAGONAL)
    assert result.certificate.verdict
    assert result.certificate.strong_middle
    assert result.prior_low.full_support and result.prior_high.full_support


def test_ring_construction_certifies():
    ring = StateSubset.full(GRID_3X3).difference(_subset(GRID_3X3, (0, 0), (2, 2)))
    result = build_polarizing_priors(GRID_3X3, ring)
    assert result.certificate.verdict


def test_off_diagonal_is_rejected_by_the_gate():
    with pytest.raises(ValueError, match="compensatory"):
        build_polarizing_priors(GRID_2X2, OFF_DIAGONAL)


def test_construction_satisfies_the_stronger_outer_links():
    # the certificate needs only plain strict dominance on the outer links,
    # but the layered construction delivers the strong form as well
    for space, subset in (
        (GRID_2X2, DIAGONAL),
        (GRID_2X3, _subset(GRID_2X3, (0, 0), (1, 2))),
    ):
        result = build_polarizing_priors(space, subset)
        cert = result.certificate
        assert compare_strong_cw(cert.posterior_low, result.prior_low).holds
        assert compare_strong_cw(result.prior_high, cert.posterior_high).holds


def _mixing_inequalities_hold(eps, delta):
    return (1 - delta) * eps > delta and (
        (1 - delta) ** 2 * eps > (1 - delta) * 2 * delta + delta**2
    )


def test_delta_respects_the_mixing_inequalities():
    # Checked in Fractions on every passing set: delta satisfies both, and
    # it is the largest power of two that does (no build here needs a
    # certificate retry), so 2 delta fails one unless delta = 1/2.
    cases = [(GRID_2X2, DIAGONAL)]
    for space in (GRID_2X3, GRID_3X3):
        for mask in range(1, space.full_mask):
            subset = StateSubset(space, mask)
            if classify(space, subset).can_strongly_polarize:
                cases.append((space, subset))
    assert len(cases) == 1 + 7 + 140
    for space, subset in cases:
        result = build_polarizing_priors(space, subset)
        eps, delta = result.epsilon, result.delta
        assert isinstance(eps, F) and isinstance(delta, F)
        assert delta.numerator == 1 and delta.denominator.bit_count() == 1
        assert _mixing_inequalities_hold(eps, delta), subset
        if delta != F(1, 2):
            assert not _mixing_inequalities_hold(eps, 2 * delta), subset


@pytest.mark.parametrize(
    "shape,passing,digest",
    [
        ((2, 3), 7, "fbc3ff11bb4edcf2"),
        ((3, 3), 140, "d3f6268b2e938c1f"),
        ((2, 4), 40, "4b7e58916a516edf"),
        ((3, 4), 1627, "df6582536fac0ef6"),
    ],
)
def test_build_polarizing_priors_matches_its_pinned_digest(shape, passing, digest):
    # Both priors, epsilon and delta for every subset the classifier passes.
    space = StateSpace.grid(*shape)
    h = hashlib.sha256()
    built = 0
    for mask in range(1, space.full_mask):
        subset = StateSubset(space, mask)
        if not classify(space, subset).can_strongly_polarize:
            continue
        result = build_polarizing_priors(space, subset)
        low, high = result.prior_low, result.prior_high
        h.update(repr((mask, low.nums, low.den, high.nums, high.den,
                       str(result.epsilon), str(result.delta))).encode())
        built += 1
    assert built == passing
    assert h.hexdigest()[:16] == digest


def _passing_subsets(space):
    subsets = [StateSubset(space, mask) for mask in range(1, space.full_mask)]
    return [s for s in subsets if classify(space, s).can_strongly_polarize]


def _antichains(subset):
    """min(I), max(I), max of the complement, min of the complement."""
    complement = subset.complement()
    return min_set(subset), max_set(subset), max_set(complement), min_set(complement)


def _assert_same_pieces(cached, oracle):
    assert [(p.nums, p.den) for p in cached[:4]] == [(p.nums, p.den) for p in oracle[:4]]
    assert cached[4] == oracle[4]


@pytest.mark.parametrize(
    "shape,quadruples", [((2, 3), 7), ((3, 3), 50), ((2, 4), 18), ((3, 4), 165)]
)
def test_cached_pieces_match_the_uncached_oracle(shape, quadruples):
    space = StateSpace.grid(*shape)
    seen = {}
    for subset in _passing_subsets(space):
        sets = _antichains(subset)
        seen[tuple(s.mask for s in sets)] = sets
    assert len(seen) == quadruples
    for masks, sets in seen.items():
        cached = _grid_pieces(shape, *masks)
        oracle = _conditional_pieces(space, *sets)
        _assert_same_pieces(cached, oracle)


def test_pieces_are_kept_per_grid_shape():
    # one mask quadruple, two grids: its antichains and pieces differ
    masks = (1, 1152, 2048, 18)
    epsilons = []
    for shape in ((6, 2), (3, 4)):
        space = StateSpace.grid(*shape)
        oracle = _conditional_pieces(space, *(StateSubset(space, m) for m in masks))
        cached = _grid_pieces(shape, *masks)
        _assert_same_pieces(cached, oracle)
        epsilons.append(cached[4])
    assert epsilons == [F(1, 8), F(1, 4)]


def _builds_digest(results):
    h = hashlib.sha256()
    for mask, result in sorted(results.items()):
        low, high = result.prior_low, result.prior_high
        h.update(repr((mask, low.nums, low.den, high.nums, high.den,
                       str(result.epsilon), str(result.delta))).encode())
    return h.hexdigest()[:16]


def test_cold_and_warm_cache_builds_match_the_pinned_digest():
    space = StateSpace.grid(3, 4)
    passing = _passing_subsets(space)
    _grid_pieces.cache_clear()
    cold = {s.mask: build_polarizing_priors(space, s) for s in reversed(passing)}
    assert _grid_pieces.cache_info().misses == 165
    assert _builds_digest(cold) == "df6582536fac0ef6"
    warm = {s.mask: build_polarizing_priors(space, s) for s in passing}
    assert _grid_pieces.cache_info().misses == 165
    assert _builds_digest(warm) == "df6582536fac0ef6"


def test_pieces_cache_stays_within_its_bound():
    # 4x4 and 3x5 hold 710 + 399 distinct quadruples, more than the bound
    _grid_pieces.cache_clear()
    keys = 0
    for shape in ((4, 4), (3, 5)):
        quadruples = {
            tuple(s.mask for s in _antichains(subset))
            for subset in _passing_subsets(StateSpace.grid(*shape))
        }
        for masks in quadruples:
            _grid_pieces(shape, *masks)
            assert _grid_pieces.cache_info().currsize <= _PIECES_CACHE_SIZE
        keys += len(quadruples)
    assert keys == 710 + 399
    info = _grid_pieces.cache_info()
    assert info.misses == keys and info.currsize == _PIECES_CACHE_SIZE


def test_builds_on_a_labelled_space_match_the_grid():
    labelled = StateSpace.make([[0, F(1, 2), 7], [-3, 0, 2, 9]])
    grid = StateSpace.grid(3, 4)
    passing = _passing_subsets(labelled)
    assert [s.mask for s in passing] == [s.mask for s in _passing_subsets(grid)]
    for subset in passing:
        result = build_polarizing_priors(labelled, subset)
        expected = build_polarizing_priors(grid, StateSubset(grid, subset.mask))
        for built, pinned in ((result.prior_low, expected.prior_low),
                              (result.prior_high, expected.prior_high)):
            assert (built.nums, built.den) == (pinned.nums, pinned.den)
        assert (result.epsilon, result.delta) == (expected.epsilon, expected.delta)
        assert result.prior_low.space is labelled
        assert result.prior_high.space is labelled
        assert result.certificate.prior_low.space is labelled


def _assert_build_matches_the_subset_assembly(space, subset):
    result = build_polarizing_priors(space, subset)
    low, high, epsilon, delta = build_polarizing_priors_by_subsets(space, subset)
    assert result.prior_low == low and result.prior_high == high, subset
    assert (result.epsilon, result.delta) == (epsilon, delta), subset
    assert result.certificate.verdict and result.certificate.strong_middle


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_mask_assembly_matches_the_subset_assembly(shape):
    space = StateSpace.grid(*shape)
    for subset in _passing_subsets(space):
        _assert_build_matches_the_subset_assembly(space, subset)


def test_mask_assembly_matches_the_subset_assembly_on_seeded_4x4_sets():
    space = StateSpace.grid(4, 4)
    rng = random.Random(26)
    built = 0
    for _ in range(3000):
        subset = StateSubset(space, rng.randrange(1, space.full_mask))
        if classify(space, subset).can_strongly_polarize:
            _assert_build_matches_the_subset_assembly(space, subset)
            built += 1
        else:
            with pytest.raises(ValueError, match="fails the polarization conditions"):
                build_polarizing_priors(space, subset)
    assert built > 1000


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 3)])
def test_builds_certify_on_a_duplicated_slice(shape):
    # The passing sets with one row or column doubled still pass, and the
    # builder certifies them on the larger grid.
    space = StateSpace.grid(*shape)
    duplicators = slice_duplications(space)
    passing = _passing_subsets(space)
    for subset in passing:
        for duplicate in duplicators:
            grown = duplicate(subset)
            _assert_build_matches_the_subset_assembly(grown.space, grown)
    assert len(passing) * len(duplicators) == {(2, 3): 35, (3, 2): 35, (3, 3): 840}[shape]


# -- mirror-extremes instances -----------------------------------------------------


def test_closed_form_instances_match_their_pinned_digest():
    h = hashlib.sha256()
    for space in (GRID_2X2, GRID_2X3, GRID_3X3, StateSpace.grid(2, 2, 2), StateSpace.grid(4)):
        for eps in (F(1, 2), F(3, 7), F(1, 100), F(99, 100)):
            mirror = mirror_extremes_instance(space, eps)
            h.update(repr((mirror.prior_low.nums, mirror.prior_low.den,
                           mirror.prior_high.nums, mirror.prior_high.den)).encode())
            for n in (3, 7, 20):
                inst = one_shot_orthant_instance(space, eps, n)
                h.update(repr((inst.prior_low.nums, inst.prior_low.den,
                               inst.prior_high.nums, inst.prior_high.den,
                               inst.likelihood.nums, inst.likelihood.den)).encode())
    assert h.hexdigest()[:16] == "58f8b9a99d74d267"


def test_threshold_is_zero_when_every_axis_is_binary():
    assert mirror_extremes_threshold(GRID_2X2) == 0
    assert mirror_extremes_threshold(StateSpace.grid(2, 2, 2)) == 0
    assert mirror_extremes_threshold(GRID_3X3) == F(3, 7)
    assert mirror_extremes_threshold(GRID_2X3) == F(1, 2)


def test_mirror_instance_certifies_above_threshold():
    for space in (GRID_2X2, GRID_2X3, GRID_3X3, StateSpace.grid(2, 2, 2)):
        threshold = mirror_extremes_threshold(space)
        eps = (threshold + 1) / 2
        result = mirror_extremes_instance(space, eps)
        assert result.certificate.verdict, space


def test_mirror_instance_boundary_behavior_on_3x3():
    threshold = mirror_extremes_threshold(GRID_3X3)
    assert mirror_extremes_instance(GRID_3X3, threshold + F(1, 100)).certificate.verdict
    assert not mirror_extremes_instance(GRID_3X3, threshold - F(1, 100)).certificate.verdict
    # the weak/strict convention admits the boundary itself
    assert mirror_extremes_instance(GRID_3X3, threshold).certificate.verdict


def test_mirror_instance_verdict_tracks_threshold_on_2x3():
    threshold = mirror_extremes_threshold(GRID_2X3)
    result = mirror_extremes_instance(GRID_2X3, F(1, 2))
    assert result.certificate.verdict == (F(1, 2) >= threshold)


def test_mirror_instance_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        mirror_extremes_instance(GRID_2X2, F(0))
    with pytest.raises(ValueError):
        mirror_extremes_instance(GRID_2X2, F(3, 2))


# -- one-shot orthant instances ------------------------------------------------------


def test_find_one_shot_orthant_instance_on_2x2():
    inst = find_one_shot_orthant_instance(GRID_2X2, F(1, 2))
    assert inst.report.verdict
    assert inst.report.kind is UO
    # small concentration may fail without raising
    weak = one_shot_orthant_instance(GRID_2X2, F(1, 2), 3)
    assert not weak.report.verdict


def test_found_instance_never_polarizes_on_upper_sets():
    from bayespol import one_shot

    inst = find_one_shot_orthant_instance(GRID_2X2, F(1, 2))
    assert not one_shot(ST, inst.prior_low, inst.prior_high, inst.likelihood).verdict
    for n in range(3, 30):
        trial = one_shot_orthant_instance(GRID_2X2, F(1, 2), n)
        assert not one_shot(ST, trial.prior_low, trial.prior_high, trial.likelihood).verdict


def test_all_strict_variant_moves_every_orthant():
    inst = find_one_shot_orthant_instance(GRID_3X3, F(1, 2), require_all_strict=True)
    assert (
        compare(inst.report.posterior_low, inst.prior_low, UO, Strictness.ALL_EVENTS).relation
        is Relation.STRICTLY_BELOW
    )
