from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayespol import (
    Belief,
    LikelihoodFn,
    Signal,
    StateSpace,
    StateSubset,
    identified_set,
    limit,
    limit_posterior,
    posterior_increases,
    simulate,
    update,
    UpperFamilyKind,
)
from bayespol.bayes import _movement, _posterior, _posterior_nums

from conftest import (
    CORNER_LIKELIHOOD,
    DIAGONAL,
    GRID_2X2,
    GRID_2X3,
    MIRROR_HIGH,
    MIRROR_LOW,
    beliefs,
    likelihoods,
    subsets,
)

# Two-realization signal whose rows agree exactly on the diagonal states.
NOISY_DIAGONAL = Signal(
    GRID_2X2,
    ("a", "b"),
    (
        LikelihoodFn.from_fractions(GRID_2X2, ["1/2", "1/4", "3/4", "1/2"]),
        LikelihoodFn.from_fractions(GRID_2X2, ["1/2", "3/4", "1/4", "1/2"]),
    ),
)


def test_update_with_diagonal_indicator():
    ell = LikelihoodFn.indicator(GRID_2X2, DIAGONAL)
    assert update(MIRROR_LOW, ell).masses() == (F(3, 4), 0, 0, F(1, 4))


def test_update_with_constant_likelihood_is_identity():
    ell = LikelihoodFn.from_fractions(GRID_2X2, ["1/3"] * 4)
    assert update(MIRROR_LOW, ell) == MIRROR_LOW


def test_update_uniform_prior_corner_likelihood():
    assert update(Belief.uniform(GRID_2X2), CORNER_LIKELIHOOD).masses() == (
        F(2, 3),
        0,
        0,
        F(1, 3),
    )


def test_update_zero_evidence():
    prior = Belief.dirac(GRID_2X2, (0, 1))
    with pytest.raises(ValueError, match="zero evidence"):
        update(prior, CORNER_LIKELIHOOD)


@given(beliefs(GRID_2X2, full_support=True), subsets(GRID_2X2))
def test_update_with_indicator_equals_condition(prior, subset):
    ell = LikelihoodFn.indicator(GRID_2X2, subset)
    assert update(prior, ell) == prior.condition(subset)


def test_posterior_increases_on_top_corner():
    assert posterior_increases(Belief.uniform(GRID_2X2), CORNER_LIKELIHOOD,
                               StateSubset.from_states(GRID_2X2, [(1, 1)]))


def test_posterior_never_increases_on_full_event():
    full = StateSubset.full(GRID_2X2)
    assert not posterior_increases(MIRROR_LOW, CORNER_LIKELIHOOD, full)


def test_posterior_increases_flips_for_bottom_heavy_prior():
    heavy = Belief.from_fractions(GRID_2X2, ["97/100", "1/100", "1/100", "1/100"])
    top = StateSubset.from_states(GRID_2X2, [(1, 1)])
    # expected likelihood ~ 0.975 > 1/2, so the top corner loses mass
    assert not posterior_increases(heavy, CORNER_LIKELIHOOD, top)


def test_posterior_increases_null_event():
    null = StateSubset.from_states(GRID_2X2, [(1, 1)])
    prior = Belief.from_fractions(GRID_2X2, ["1/2", "1/4", "1/4", "0"])
    with pytest.raises(ValueError, match="null event"):
        posterior_increases(prior, CORNER_LIKELIHOOD, null)


@given(beliefs(GRID_2X2, full_support=True), likelihoods(GRID_2X2), subsets(GRID_2X2))
def test_posterior_increase_self_check_never_fires(prior, ell, event):
    # both computations run on every call; disagreement raises
    posterior_increases(prior, ell, event)


@given(beliefs(GRID_2X3), likelihoods(GRID_2X3), subsets(GRID_2X3, proper=False))
def test_posterior_nums_are_every_posteriors_numerators(prior, ell, subset):
    # priors without full support, so the evidence can also rule them out
    cases = [
        (ell, (update,), sum(p * x for p, x in zip(prior.nums, ell.nums))),
        (subset, (limit_posterior, Belief.condition), prior.num_on(subset.flats())),
    ]
    for evidence, builders, probability in cases:
        if not probability:
            with pytest.raises(ValueError, match="zero evidence probability"):
                _posterior_nums(prior, evidence)
            for build in builders:
                with pytest.raises(ValueError):
                    build(prior, evidence)
            continue
        nums, total = _posterior_nums(prior, evidence)
        assert total == sum(nums)
        masses = tuple(F(n, total) for n in nums)
        for build in builders:
            assert build(prior, evidence).masses() == masses
        assert _posterior(prior, evidence) == builders[0](prior, evidence)


@given(beliefs(GRID_2X2, full_support=True), likelihoods(GRID_2X2), subsets(GRID_2X2, proper=False))
def test_movement_is_a_positive_multiple_of_posterior_minus_prior(prior, ell, subset):
    # constant likelihoods and the full set move nothing; ties are common at
    # denominator 4
    for evidence in (ell, subset):
        w = _movement(prior, evidence)
        diff = [q - p for q, p in zip(_posterior(prior, evidence).masses(), prior.masses())]
        assert [g == 0 for g in w] == [d == 0 for d in diff]
        ratios = {F(g) / d for g, d in zip(w, diff) if d}
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)


# -- signals and identified sets ---------------------------------------------


def test_evidence_from_a_subset_of_another_space_is_refused():
    grid = StateSpace.grid(3, 3)
    with pytest.raises(ValueError, match="subset lives on a different space"):
        LikelihoodFn.indicator(grid, StateSubset(GRID_2X2, 0b1001))
    # same shape, other axis labels: the masks cover the grid, the space differs
    other = StateSpace.make([[0, 1], [0, 2]])
    for cells in (
        [StateSubset(other, 0b1001), StateSubset(other, 0b0110)],
        [DIAGONAL, StateSubset(other, 0b0110)],
    ):
        with pytest.raises(ValueError, match="subset lives on a different space"):
            Signal.partitional(GRID_2X2, cells)
    assert Signal.partitional(GRID_2X2, [DIAGONAL, DIAGONAL.complement()])


def test_signal_rows_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        Signal(
            GRID_2X2,
            ("a", "b"),
            (
                LikelihoodFn.from_fractions(GRID_2X2, ["1/2"] * 4),
                LikelihoodFn.from_fractions(GRID_2X2, ["1/4"] * 4),
            ),
        )


def test_identified_set_of_fully_informative_signal():
    cells = [StateSubset.from_states(GRID_2X2, [s]) for s in GRID_2X2.states]
    sig = Signal.partitional(GRID_2X2, cells)
    for state in GRID_2X2.states:
        assert identified_set(sig, state).states() == (state,)


def test_identified_set_of_diagonal_partition():
    sig = Signal.reveal_set(GRID_2X2, DIAGONAL)
    assert identified_set(sig, (0, 0)) == DIAGONAL
    assert identified_set(sig, (0, 1)) == DIAGONAL.complement()


def test_identified_set_of_noisy_signal_matches_row_scan():
    for truth in GRID_2X2.states:
        expected = [
            s for s in GRID_2X2.states
            if NOISY_DIAGONAL.row(s) == NOISY_DIAGONAL.row(truth)
        ]
        assert identified_set(NOISY_DIAGONAL, truth).states() == tuple(expected)
    assert identified_set(NOISY_DIAGONAL, (0, 0)) == DIAGONAL


@given(beliefs(GRID_2X2, full_support=True))
def test_reveal_set_variants_give_identical_verdicts(prior):
    lumped = Signal.reveal_set(GRID_2X2, DIAGONAL, lump_complement=True)
    fine = Signal.reveal_set(GRID_2X2, DIAGONAL, lump_complement=False)
    assert identified_set(lumped, (0, 0)) == identified_set(fine, (0, 0))
    for kind in UpperFamilyKind:
        lhs = limit(kind, prior, MIRROR_HIGH, identified_set(lumped, (0, 0)))
        rhs = limit(kind, prior, MIRROR_HIGH, identified_set(fine, (0, 0)))
        assert lhs.verdict == rhs.verdict


def test_limit_posterior_examples():
    assert limit_posterior(MIRROR_LOW, DIAGONAL).masses() == (F(3, 4), 0, 0, F(1, 4))
    assert limit_posterior(MIRROR_LOW, StateSubset.full(GRID_2X2)) == MIRROR_LOW
    point = StateSubset.from_states(GRID_2X2, [(1, 0)])
    assert limit_posterior(MIRROR_LOW, point) == Belief.dirac(GRID_2X2, (1, 0))


# -- simulation ----------------------------------------------------------------


def test_simulate_horizon_zero_returns_prior_only():
    records = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 0, seed=1)
    assert len(records) == 1
    assert records[0].posterior == MIRROR_LOW
    assert records[0].realization is None


def test_simulate_partitional_signal_converges_in_one_step():
    sig = Signal.reveal_set(GRID_2X2, DIAGONAL)
    records = simulate(MIRROR_LOW, sig, (1, 1), 5, seed=0)
    expected = limit_posterior(MIRROR_LOW, DIAGONAL)
    for record in records[1:]:
        assert record.posterior == expected
        assert record.tv_to_limit == 0


def test_simulate_is_deterministic_per_seed():
    a = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 40, seed=123)
    b = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 40, seed=123)
    c = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 40, seed=124)
    assert [r.posterior for r in a] == [r.posterior for r in b]
    assert [r.realization for r in a] != [r.realization for r in c]


def test_simulate_preserves_ratios_inside_identified_set():
    ident = identified_set(NOISY_DIAGONAL, (0, 0))
    records = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 30, seed=9)
    base = MIRROR_LOW
    for record in records:
        q = record.posterior
        q_ident = q.prob(ident)
        for state in ident:
            assert q.mass(state) * base.prob(ident) == q_ident * base.mass(state)


def test_simulate_records_are_single_update_steps():
    records = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 25, seed=6)
    for prev, record in zip(records, records[1:]):
        ell = NOISY_DIAGONAL.likelihood_for(record.realization)
        assert record.posterior == update(prev.posterior, ell)


def test_simulate_requires_full_support():
    thin = Belief.from_fractions(GRID_2X2, ["1/2", "1/2", "0", "0"])
    with pytest.raises(ValueError, match="full-support"):
        simulate(thin, NOISY_DIAGONAL, (0, 0), 3, seed=0)


@pytest.mark.parametrize("horizon", [True, 2.5, F(2)], ids=["bool", "float", "fraction"])
def test_simulate_refuses_a_horizon_that_is_not_an_int(horizon):
    # True used to run one step, and 2.5 failed inside range()
    with pytest.raises(TypeError, match="^horizon must be an int, got "):
        simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), horizon, seed=0)


@given(st.integers(min_value=0, max_value=2**32))
def test_simulate_tv_is_recorded_on_every_record(seed):
    records = simulate(MIRROR_LOW, NOISY_DIAGONAL, (0, 0), 3, seed=seed)
    limit_belief = limit_posterior(MIRROR_LOW, DIAGONAL)
    for record in records:
        assert record.tv_to_limit == record.posterior.tv_distance(limit_belief)
