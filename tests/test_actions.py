import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespol import (
    Belief,
    LikelihoodFn,
    Mode,
    StateSpace,
    StateSubset,
    Strictness,
    SweepConfig,
    UpperFamilyKind,
    UtilityFamilyKind,
    UtilityFn,
    action_polarizes,
    build_polarizing_priors,
    canonical_basis,
    compare,
    compare_strong_cw,
    diagonal_tradeoff_priors,
    family_polarization_search,
    find_one_shot_orthant_instance,
    tradeoff_curve,
)
from bayespol.actions import _all_basis_movements_polarize
from bayespol.bayes import _posterior
from bayespol.core import over_common_denominator
from bayespol.verifier import _random_belief, _random_likelihood, _trials

from conftest import (
    DIAGONAL,
    GRID_2X2,
    MIRROR_HIGH,
    MIRROR_LOW,
    all_basis_movements_by_expectation,
    beliefs,
    likelihoods,
    subsets,
)

SUMS = UtilityFamilyKind.SUMS_OF_INCREASING
PRODUCTS = UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING
INCREASING = UtilityFamilyKind.INCREASING


def test_utility_membership_is_validated():
    UtilityFn(GRID_2X2, (F(0), F(1), F(1), F(2)), SUMS)
    UtilityFn(GRID_2X2, (F(0), F(0), F(0), F(1)), PRODUCTS)
    UtilityFn(GRID_2X2, (F(0), F(0), F(0), F(1)), INCREASING)
    with pytest.raises(ValueError, match="family"):
        UtilityFn(GRID_2X2, (F(0), F(1), F(1), F(3)), SUMS)  # 0+3 != 1+1
    with pytest.raises(ValueError, match="family"):
        UtilityFn(GRID_2X2, (F(1), F(0), F(0), F(0)), INCREASING)


def test_additive_step_utility_polarizes_on_the_diagonal():
    u = UtilityFn(GRID_2X2, (F(0), F(1), F(1), F(2)), SUMS)
    movement = action_polarizes(u, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert (movement.low_before, movement.low_after) == (F(3, 4), F(1, 2))
    assert (movement.high_before, movement.high_after) == (F(5, 4), F(3, 2))
    assert movement.polarizes


def test_constant_utility_never_moves():
    u = UtilityFn(GRID_2X2, (F(2), F(2), F(2), F(2)), SUMS)
    movement = action_polarizes(u, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert movement.low_before == movement.low_after
    assert not movement.polarizes


def test_top_corner_indicator_rises_for_both_agents():
    u = UtilityFn(GRID_2X2, (F(0), F(0), F(0), F(1)), PRODUCTS)
    movement = action_polarizes(u, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert movement.low_after == F(1, 4) > movement.low_before == F(1, 8)
    assert movement.high_after == F(3, 4) > movement.high_before == F(3, 8)
    assert not movement.polarizes


def test_action_polarizes_accepts_likelihood_evidence():
    u = UtilityFn(GRID_2X2, (F(0), F(1), F(1), F(2)), SUMS)
    ell = LikelihoodFn.indicator(GRID_2X2, DIAGONAL)
    via_set = action_polarizes(u, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    via_likelihood = action_polarizes(u, MIRROR_LOW, MIRROR_HIGH, ell)
    assert via_set == via_likelihood


# -- family search -------------------------------------------------------------


def test_separable_family_has_instances_in_both_modes():
    for mode in (Mode.ONE_SHOT, Mode.LIMIT):
        outcome = family_polarization_search(SUMS, mode, GRID_2X2)
        assert outcome.possible and outcome.instance is not None
        inst = outcome.instance
        evidence = outcome.evidence_set if mode is Mode.LIMIT else outcome.likelihood
        rng = random.Random(17)
        for _ in range(50):
            parts = [sorted(rng.randint(0, 5) for _ in range(2)) for _ in range(2)]
            values = [F(parts[0][s[0]] + parts[1][s[1]]) for s in GRID_2X2.states]
            if len(set(values)) == 1:
                continue
            u = UtilityFn(GRID_2X2, tuple(values), SUMS)
            assert action_polarizes(u, inst.prior_low, inst.prior_high, evidence).polarizes


def test_product_family_has_a_one_shot_instance():
    outcome = family_polarization_search(PRODUCTS, Mode.ONE_SHOT, GRID_2X2)
    assert outcome.possible
    inst = outcome.instance
    rng = random.Random(23)
    for _ in range(50):
        parts = [sorted(rng.randint(0, 4) for _ in range(2)) for _ in range(2)]
        values = [F(parts[0][s[0]] * parts[1][s[1]]) for s in GRID_2X2.states]
        if len(set(values)) == 1:
            continue
        u = UtilityFn(GRID_2X2, tuple(values), PRODUCTS)
        assert action_polarizes(u, inst.prior_low, inst.prior_high, inst.likelihood).polarizes


@pytest.mark.parametrize(
    "family,mode",
    [
        (PRODUCTS, Mode.LIMIT),
        (INCREASING, Mode.ONE_SHOT),
        (INCREASING, Mode.LIMIT),
    ],
)
def test_impossible_cells_find_nothing(family, mode):
    outcome = family_polarization_search(family, mode, GRID_2X2, trials=800, seed=5)
    assert not outcome.possible
    assert outcome.sweep.trials == 800
    assert outcome.sweep.hits == ()


@pytest.mark.parametrize("trials", [0, -3])
def test_family_search_rejects_empty_sweeps(trials):
    with pytest.raises(ValueError, match="trials"):
        family_polarization_search(INCREASING, Mode.LIMIT, GRID_2X2, trials=trials)


def _moves_apart_on_all_events(kind, low, high, evidence):
    strict = Strictness.ALL_EVENTS
    return (
        compare(_posterior(low, evidence), low, kind, strict).strictly_below
        and compare(high, _posterior(high, evidence), kind, strict).strictly_below
    )


def test_basis_predicate_is_all_events_strict_movement():
    # By generator duality, every canonical basis function moving strictly
    # apart is the low link and the high link each strictly below on every
    # event of the order's family.
    orthant = find_one_shot_orthant_instance(GRID_2X2, F(1, 2), require_all_strict=True)
    cases = [
        (UpperFamilyKind.UPPER_PROJECTION, MIRROR_LOW, MIRROR_HIGH, DIAGONAL),
        (UpperFamilyKind.UPPER_ORTHANT, orthant.prior_low, orthant.prior_high,
         orthant.likelihood),
    ]
    rng = random.Random(8)
    levels = (F(0), F(1, 2), F(1))
    for shape in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        space = StateSpace.grid(*shape)
        for kind in UpperFamilyKind:
            for _ in range(200):
                low = _random_belief(rng, space, 12)
                high = _random_belief(rng, space, 12)
                cases.append((kind, low, high, _random_likelihood(rng, space, levels)))
                cases.append(
                    (kind, low, high, StateSubset(space, rng.randrange(1, space.full_mask)))
                )
    positives = 0
    for kind, low, high, evidence in cases:
        basis = canonical_basis(low.space, kind)
        expected = _moves_apart_on_all_events(kind, low, high, evidence)
        assert _all_basis_movements_polarize(basis, low, high, evidence) == expected
        positives += expected
    assert positives > 2


ORACLE_GRIDS = tuple(StateSpace.grid(*shape) for shape in ((2, 2), (2, 3), (3, 3), (2, 2, 2)))


@st.composite
def predicate_cases(draw):
    space = draw(st.sampled_from(ORACLE_GRIDS))
    low = draw(beliefs(space, full_support=True))
    high = draw(beliefs(space, full_support=True))
    evidence = draw(st.one_of(likelihoods(space), subsets(space)))
    kind = draw(st.sampled_from(list(UpperFamilyKind)))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    user = draw(
        st.lists(
            st.lists(entry, min_size=space.size, max_size=space.size).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    return low, high, evidence, canonical_basis(space, kind), tuple(user)


def _scaled(basis):
    return tuple(over_common_denominator(u)[0] for u in basis)


@settings(deadline=None)
@given(predicate_cases())
def test_basis_predicate_matches_the_expectation_oracle(case):
    low, high, evidence, canonical, user = case
    for basis in (canonical, user):
        # the whole basis, then one function at a time so that both
        # outcomes occur; integer scaling keeps every verdict
        for funcs in (basis, *((u,) for u in basis)):
            expected = all_basis_movements_by_expectation(funcs, low, high, evidence)
            assert _all_basis_movements_polarize(funcs, low, high, evidence) == expected
            assert _all_basis_movements_polarize(_scaled(funcs), low, high, evidence) == expected


def test_basis_predicate_refuses_evidence_that_rules_out_a_prior():
    # as bayes.update and limit_posterior refuse to normalize a zero total
    corner = Belief.dirac(GRID_2X2, (0, 0))
    top = StateSubset.from_states(GRID_2X2, [(1, 1)])
    basis = canonical_basis(GRID_2X2, UpperFamilyKind.UPPER_PROJECTION)
    for evidence in (top, LikelihoodFn.indicator(GRID_2X2, top)):
        with pytest.raises(ValueError, match="zero evidence probability"):
            _all_basis_movements_polarize(basis, MIRROR_LOW, corner, evidence)


@pytest.mark.parametrize("mode", [Mode.ONE_SHOT, Mode.LIMIT])
def test_family_search_on_a_rational_basis_finds_the_oracle_hits(mode):
    # increasing, with non-unit and negative rational entries
    basis = [(F(-2, 3), F(1, 3), F(1, 2), F(7, 5)), (F(0), F(0), F(5, 2), F(5, 2))]
    config = SweepConfig(UpperFamilyKind.UPPER_SET, mode, (2, 2), trials=300, seed=5)
    expected = []
    for low, high, evidence in _trials(config, GRID_2X2):
        if all_basis_movements_by_expectation(basis, low, high, evidence):
            expected.append((low, high, evidence))
    out = family_polarization_search(INCREASING, mode, GRID_2X2, basis=basis, trials=300, seed=5)
    assert expected
    assert [(h["prior_low"], h["prior_high"], h["evidence"]) for h in out.sweep.hits] == expected


def test_family_table_matches_order_possibilities():
    expectations = {
        (SUMS, Mode.ONE_SHOT): True,
        (SUMS, Mode.LIMIT): True,
        (PRODUCTS, Mode.ONE_SHOT): True,
        (PRODUCTS, Mode.LIMIT): False,
        (INCREASING, Mode.ONE_SHOT): False,
        (INCREASING, Mode.LIMIT): False,
    }
    for (family, mode), expected in expectations.items():
        outcome = family_polarization_search(family, mode, GRID_2X2, trials=120, seed=2)
        assert outcome.possible == expected


def test_strong_certificates_separate_posterior_expectations():
    result = build_polarizing_priors(GRID_2X2, DIAGONAL)
    ql = result.certificate.posterior_low
    qh = result.certificate.posterior_high
    assert compare_strong_cw(ql, qh).holds
    rng = random.Random(31)
    for _ in range(200):
        parts = [sorted(rng.randint(0, 9) for _ in range(2)) for _ in range(2)]
        values = [F(parts[0][s[0]] + parts[1][s[1]]) for s in GRID_2X2.states]
        if len(set(values)) == 1:
            continue
        assert ql.expectation(values) < qh.expectation(values)


# -- probability / magnitude tradeoff --------------------------------------------


def test_tradeoff_midpoint_values():
    (row,) = tradeoff_curve([F(1, 2)])
    assert row.magnitude == F(1, 4)
    assert row.prob_identified == F(1, 2)


def test_tradeoff_posteriors_are_delta_free():
    (row,) = tradeoff_curve([F(1, 4)])
    assert row.posterior_low.masses() == (F(3, 4), 0, 0, F(1, 4))
    assert row.posterior_high.masses() == (F(1, 4), 0, 0, F(3, 4))


def test_tradeoff_identities_on_a_fine_grid():
    deltas = [F(k, 100) for k in range(1, 100)]
    rows = tradeoff_curve(deltas)
    for d, row in zip(deltas, rows):
        assert row.magnitude == d / 2
        assert row.prob_identified == 1 - d


def test_tradeoff_rejects_out_of_range_delta():
    with pytest.raises(ValueError):
        tradeoff_curve([F(0)])
    with pytest.raises(ValueError):
        diagonal_tradeoff_priors(F(1))


def test_tradeoff_priors_polarize_for_every_delta():
    from bayespol import UpperFamilyKind, limit

    for k in (1, 5, 9):
        low, high, diagonal = diagonal_tradeoff_priors(F(k, 10))
        report = limit(UpperFamilyKind.UPPER_PROJECTION, low, high, diagonal)
        assert report.verdict
