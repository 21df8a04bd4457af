import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayespol import Belief, LikelihoodFn, StateSpace, StateSubset, leq, ll, mixture
from bayespol.core import frac, over_common_denominator

from conftest import (
    DIAGONAL,
    GRID_2X2,
    GRID_2X3,
    GRID_3X3,
    MIRROR_LOW,
    beliefs,
    expectation_by_state_loop,
    subsets,
)


def test_space_validation():
    with pytest.raises(ValueError):
        StateSpace.make([[0, 1], [1]])          # axis too short
    with pytest.raises(ValueError):
        StateSpace.make([[0, 1], [2, 2]])       # not strictly increasing
    with pytest.raises(ValueError):
        StateSpace.make([])


def test_row_major_state_order():
    space = StateSpace.grid(2, 3)
    assert space.states == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert space.flat((1, 2)) == 5
    assert space.state_at(3) == (1, 0)
    assert space.bottom == (0, 0) and space.top == (1, 2)


@pytest.mark.parametrize("state", [(1,), (1, 1, 5), ()])
def test_a_state_of_the_wrong_length_is_refused_everywhere(state):
    # flat used to zip the state with the shape: (1,) read as 2, (1, 1, 5) as 3
    space = StateSpace.grid(2, 2)
    named = f"state {state} has length {len(state)}, but shape (2, 2) has 2 axes"
    calls = [
        lambda: space.flat(state),
        lambda: StateSubset.from_states(space, [(0, 0), state]),
        lambda: state in StateSubset.full(space),
        lambda: Belief.uniform(space).mass(state),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(named)):
            call()


def test_coords_and_partial_order():
    space = StateSpace.make([["0", "1/2", "1"], [-1, 3]])
    assert space.coords((1, 0)) == (F(1, 2), F(-1))
    assert leq((0, 1), (2, 1)) and not ll((0, 1), (2, 1))
    assert ll((0, 0), (1, 1)) and not leq((1, 0), (0, 1))


@pytest.mark.parametrize("shape", [(2,), (5,), (2, 3), (3, 3), (2, 2, 2), (3, 2, 4)])
def test_order_tables_match_the_coordinatewise_order(shape):
    space = StateSpace.grid(*shape)
    states = space.states
    for f, a in enumerate(states):
        assert space.up_cones[f] == sum(1 << g for g, b in enumerate(states) if leq(a, b))
        assert space.down_cones[f] == sum(1 << g for g, b in enumerate(states) if leq(b, a))
    covers = {
        (f, g)
        for f, a in enumerate(states)
        for g, b in enumerate(states)
        if leq(a, b) and sum(b) == sum(a) + 1
    }
    assert sorted(space.cover_edges) == sorted(covers)
    for axis, groups in enumerate(space.axis_groups):
        assert groups == tuple(
            tuple(f for f, a in enumerate(states) if a[axis] == v) for v in range(shape[axis])
        )
    assert space.projection_corners == tuple(
        states.index(tuple(cut if k == axis else 0 for k in range(len(shape))))
        for axis, n in enumerate(shape)
        for cut in range(1, n)
    )
    assert space.full_mask == 2 ** len(states) - 1
    # the tables are cached on the instance without entering equality
    assert space == StateSpace.grid(*shape)
    assert hash(space) == hash(StateSpace.grid(*shape))


def test_grids_are_shared_per_shape():
    assert StateSpace.grid(2, 3) is StateSpace.grid(2, 3)
    assert StateSpace.grid(2, 3) is not StateSpace.grid(3, 2)
    # a built space still equals the shared one, tables and all
    assert StateSpace.make([range(2), range(3)]) == StateSpace.grid(2, 3)
    # cached per argument type: a float axis size is refused as before
    with pytest.raises(TypeError):
        StateSpace.grid(2.0, 3)
    info = StateSpace.grid.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_belief_invariants_enforced():
    with pytest.raises(ValueError):
        Belief(GRID_2X2, (1, 1, 1, 0), 4)  # sums to 3/4
    with pytest.raises(ValueError):
        Belief.from_fractions(GRID_2X2, ["1/2", "1/2", "1/2", "-1/2"])
    b = Belief(GRID_2X2, (2, 2, 2, 2), 8)
    assert b.den == 4 and b.nums == (1, 1, 1, 1)  # canonicalized


@pytest.mark.parametrize(
    "nums, den, message",
    [
        ((1, 1, 2), 4, "expected 4 masses, got 3"),
        ((1, 1, 1, 1, 0), 4, "expected 4 masses, got 5"),
        ((0, 0, 0, 0), 0, "denominator must be positive"),
        ((-1, 0, 0, 0), -1, "denominator must be positive"),
        ((2, -1, 1, 2), 4, "negative mass"),
        ((1, 1, 1, -1), 1, "negative mass"),
        ((1, 1, 1, 0), 4, "masses do not sum to 1"),
        ((1, 1, 1, 2), 4, "masses do not sum to 1"),
    ],
)
def test_belief_validation_messages(nums, den, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Belief(GRID_2X2, nums, den)


def test_subset_mask_range_and_full_support_on_a_zero_mass():
    for mask in (-1, GRID_2X2.full_mask + 1, 1 << 9):
        with pytest.raises(ValueError, match="^mask out of range for space$"):
            StateSubset(GRID_2X2, mask)
    # both ends of the range are accepted
    assert StateSubset(GRID_2X2, 0).is_empty
    assert len(StateSubset(GRID_2X2, GRID_2X2.full_mask)) == 4
    for f in range(GRID_2X3.size):
        nums = [1] * GRID_2X3.size
        nums[f] = 0
        assert not Belief.from_weights(GRID_2X3, nums).full_support
    assert Belief.from_weights(GRID_2X3, [1] * 6).full_support


def test_common_denominator_scaling():
    assert over_common_denominator(["1/2", "1/3", 0, 1]) == ((3, 2, 0, 6), 6)
    assert over_common_denominator([]) == ((), 1)
    ell = LikelihoodFn.from_fractions(GRID_2X2, ["1/2", "1/4", "3/4", "1"])
    assert (ell.nums, ell.den) == ((2, 1, 3, 4), 4)
    with pytest.raises(ValueError, match="negative mass"):
        Belief.from_fractions(GRID_2X2, ["1/2", "1/2", "1/2", "-1/2"])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        LikelihoodFn.from_fractions(GRID_2X2, ["1/2", "3/2", "0", "0"])
    with pytest.raises(TypeError, match="float"):
        Belief.from_fractions(GRID_2X2, [0.25] * 4)


def test_booleans_are_not_rationals():
    assert frac(F(1, 2)) == F(1, 2) and frac(3) == 3 and frac("2/6") == F(1, 3)
    for value in (True, False):
        with pytest.raises(TypeError, match="bool"):
            frac(value)
    with pytest.raises(TypeError, match="bool"):
        Belief.from_fractions(GRID_2X2, [True, 0, 0, 0])
    with pytest.raises(TypeError, match="bool"):
        StateSpace.make([[False, True], [0, 1]])


@pytest.mark.parametrize("one", [True, 1.0, F(1)], ids=["bool", "float", "fraction"])
def test_masses_that_are_not_ints_are_refused_by_field(one):
    # each case sums to its denominator, so only the type check names the field
    got = "must be an int, got " + re.escape(repr(one))
    for make in (Belief, LikelihoodFn):
        with pytest.raises(TypeError, match=r"^nums\[0\] " + got):
            make(GRID_2X2, (one,) * 4, 4)
        with pytest.raises(TypeError, match=r"^nums\[3\] " + got):
            make(GRID_2X2, (0, 0, 0, one), 1)
        with pytest.raises(TypeError, match="^den " + got):
            make(GRID_2X2, (0, 0, 0, 1), one)
    with pytest.raises(TypeError, match=r"^nums\[0\] must be an int"):
        Belief.from_weights(GRID_2X2, [one, 1, 1, 1])


@pytest.mark.parametrize("make", [Belief, LikelihoodFn], ids=["belief", "likelihood"])
def test_numerators_that_are_not_a_tuple_are_refused_by_name(make):
    # a list used to be kept as it was: the frozen value could be mutated,
    # and hashing it raised "unhashable type: 'list'"
    with pytest.raises(TypeError, match="^nums must be a tuple, got list$"):
        make(GRID_2X2, [1, 1, 1, 1], 4)
    with pytest.raises(TypeError, match="^nums must be a tuple, got range$"):
        make(GRID_2X2, range(4), 6)
    value = make(GRID_2X2, (1, 1, 1, 1), 4)
    assert hash(value) == hash(make(GRID_2X2, (2, 2, 2, 2), 8))
    # the named constructors still take any sequence
    assert Belief.from_weights(GRID_2X2, [1, 1, 1, 1]).nums == (1, 1, 1, 1)
    assert LikelihoodFn.from_fractions(GRID_2X2, [1, 1, 1, 1]).nums == (1, 1, 1, 1)


def test_equal_spaces_built_apart_hash_equal_without_rehashing_axes(monkeypatch):
    spaces = (
        StateSpace.grid(2, 3),
        StateSpace.make([range(2), range(3)]),
        StateSpace.make([["0", "1"], [F(0), 1, "2"]]),
        StateSpace(((0, 1), (F(0), F(1), F(2)))),
    )
    for space in spaces:
        assert space == spaces[0] and hash(space) == hash(spaces[0])
        # the value a frozen dataclass would give, computed once
        assert hash(space) == hash((space.axes,))
    labelled = StateSpace.make([[0, F(1, 2)], [-3, 2, 9]])
    assert hash(labelled) == hash(StateSpace.make([["0", "1/2"], ["-3", 2, 9]]))
    # a lookup keyed on a space reads the stored hash, not the axes' Fractions
    calls = []
    fraction_hash = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or fraction_hash(self))
    for space in (*spaces, labelled):
        hash(space)
    assert calls == []


@pytest.mark.parametrize("one", [True, 1.0, F(1)], ids=["bool", "float", "fraction"])
def test_masks_that_are_not_ints_are_refused(one):
    # True used to stand for {(0, 0)}, and a float mask failed only later, in
    # flats() or in a limit link, with an operand error that named no field
    with pytest.raises(TypeError, match="^mask must be an int, got " + re.escape(repr(one))):
        StateSubset(GRID_2X2, one)


def test_uniform_on_rejects_a_subset_of_another_space():
    assert Belief.uniform_on(GRID_2X2, DIAGONAL).masses() == (F(1, 2), 0, 0, F(1, 2))
    with pytest.raises(ValueError, match="different space"):
        Belief.uniform_on(GRID_3X3, DIAGONAL)
    with pytest.raises(ValueError, match="different space"):
        Belief.uniform_on(GRID_2X2, StateSubset(GRID_3X3, 1 << 5))


def test_marginal_of_mirror_prior():
    marg = MIRROR_LOW.marginal(0)
    assert marg.masses == (F(5, 8), F(3, 8))
    assert marg.cdf == (F(5, 8), F(1))
    assert MIRROR_LOW.marginal(1).masses == (F(5, 8), F(3, 8))


def test_marginal_of_point_mass_at_top():
    top = Belief.dirac(GRID_3X3, (2, 2))
    for axis in range(2):
        assert top.marginal(axis).masses == (F(0), F(0), F(1))


def test_marginal_axis_out_of_range():
    with pytest.raises(ValueError):
        MIRROR_LOW.marginal(2)


@pytest.mark.parametrize(
    "axis", [True, False, 1.0, F(0), "0"], ids=["true", "false", "float", "fraction", "str"]
)
def test_an_axis_that_is_not_an_int_is_refused_by_name(axis):
    # True used to return axis 1's marginal, and 1.0 failed on a tuple index
    got = "^axis must be an int, got " + re.escape(repr(axis))
    with pytest.raises(TypeError, match=got):
        MIRROR_LOW.marginal_nums(axis)
    with pytest.raises(TypeError, match=got):
        MIRROR_LOW.marginal(axis)


@pytest.mark.parametrize(
    "shape, index",
    [((2.0, 2), 0), ((2, True), 1), ((3, F(2)), 1), ((2, 2, "3"), 2)],
    ids=["float", "bool", "fraction", "str"],
)
def test_a_grid_size_that_is_not_an_int_is_refused_by_name(shape, index):
    # 2.0 used to fail inside range(), and True to report a one-value axis
    got = rf"^shape\[{index}\] must be an int, got " + re.escape(repr(shape[index]))
    with pytest.raises(TypeError, match=got):
        StateSpace.grid(*shape)


@given(beliefs(GRID_3X3))
def test_marginal_matches_double_loop_oracle(b):
    for axis in range(2):
        oracle = [F(0)] * 3
        for state in GRID_3X3.states:
            oracle[state[axis]] += b.mass(state)
        assert b.marginal(axis).masses == tuple(oracle)


@given(
    beliefs(GRID_3X3),
    st.lists(
        st.one_of(
            st.integers(min_value=-20, max_value=20),
            st.fractions(min_value=-5, max_value=5, max_denominator=30),
        ),
        min_size=GRID_3X3.size,
        max_size=GRID_3X3.size,
    ),
)
def test_expectation_matches_the_state_loop_oracle(b, values):
    e = b.expectation(values)
    assert type(e) is F
    assert e == expectation_by_state_loop(b, values)
    assert b.expectation([str(v) for v in values]) == e


def test_expectation_refuses_floats_bools_and_a_length_mismatch():
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            MIRROR_LOW.expectation([0, 1, 1, bad])
    with pytest.raises(ValueError, match="length"):
        MIRROR_LOW.expectation([0, 1, 1])


def test_condition_on_diagonal():
    assert MIRROR_LOW.condition(DIAGONAL).masses() == (F(3, 4), 0, 0, F(1, 4))


def test_condition_on_everything_is_identity():
    assert MIRROR_LOW.condition(StateSubset.full(GRID_2X2)) == MIRROR_LOW


def test_condition_on_null_event():
    b = Belief.dirac(GRID_2X2, (0, 0))
    with pytest.raises(ValueError, match="null event"):
        b.condition(StateSubset.from_states(GRID_2X2, [(1, 1)]))


@given(beliefs(GRID_2X2, full_support=True), subsets(GRID_2X2))
def test_condition_matches_restrict_normalize_oracle(b, s):
    conditioned = b.condition(s)
    total = sum(b.mass(state) for state in s)
    for state in GRID_2X2.states:
        expected = b.mass(state) / total if state in s else F(0)
        assert conditioned.mass(state) == expected


@given(beliefs(GRID_2X2, full_support=True), subsets(GRID_2X2), subsets(GRID_2X2))
def test_iterated_conditioning_is_intersection(b, s, t):
    both = s.intersection(t)
    if both.is_empty:
        return
    assert b.condition(s).condition(both) == b.condition(both)


def test_mixture_degenerate():
    assert mixture([1], [MIRROR_LOW]) == MIRROR_LOW


def test_mixture_of_extreme_point_masses():
    bottom = Belief.dirac(GRID_2X2, (0, 0))
    top = Belief.dirac(GRID_2X2, (1, 1))
    mixed = mixture([F(1, 2), F(1, 2)], [bottom, top])
    assert mixed.masses() == (F(1, 2), 0, 0, F(1, 2))


def test_mixture_validation():
    with pytest.raises(ValueError, match="sum"):
        mixture([F(1, 2), F(1, 4)], [MIRROR_LOW, MIRROR_LOW])
    with pytest.raises(ValueError, match="spaces"):
        mixture([F(1, 2), F(1, 2)], [MIRROR_LOW, Belief.uniform(GRID_3X3)])


@given(st.data())
def test_layered_mixture_matches_termwise_oracle(data):
    # Up to four components (a layered prior has four), checked state by
    # state against the sum of the terms in Fraction arithmetic.
    space = data.draw(st.sampled_from([GRID_2X2, GRID_2X3]))
    k = data.draw(st.integers(min_value=1, max_value=4))
    parts = [data.draw(beliefs(space)) for _ in range(k)]
    raw = data.draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=k, max_size=k).filter(any)
    )
    weights = [F(r, sum(raw)) for r in raw]
    mixed = mixture(weights, parts)
    for f in range(space.size):
        expected = sum(w * F(p.nums[f], p.den) for w, p in zip(weights, parts))
        assert mixed.mass_flat(f) == expected


@given(beliefs(GRID_2X2), beliefs(GRID_2X2), st.integers(min_value=0, max_value=8))
def test_marginal_commutes_with_mixture(a, b, k):
    w = F(k, 8)
    mixed = mixture([w, 1 - w], [a, b])
    for axis in range(2):
        lhs = mixed.marginal(axis).masses
        rhs = tuple(
            w * ma + (1 - w) * mb
            for ma, mb in zip(a.marginal(axis).masses, b.marginal(axis).masses)
        )
        assert lhs == rhs


@given(beliefs(GRID_3X3))
def test_masses_always_sum_to_one_exactly(b):
    assert sum(b.masses()) == 1
    assert sum(b.nums) == b.den


def test_tv_distance():
    bottom = Belief.dirac(GRID_2X2, (0, 0))
    top = Belief.dirac(GRID_2X2, (1, 1))
    assert bottom.tv_distance(top) == 1
    assert bottom.tv_distance(bottom) == 0
    assert MIRROR_LOW.tv_distance(Belief.uniform(GRID_2X2)) == F(1, 8)


def test_support_and_full_support_flag():
    assert MIRROR_LOW.full_support
    half = Belief.from_fractions(GRID_2X2, ["1/2", "0", "0", "1/2"])
    assert not half.full_support
    assert half.support() == DIAGONAL
