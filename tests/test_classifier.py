import hashlib
import random
from dataclasses import fields, replace

import pytest

from bayespol import (
    StateSpace,
    StateSubset,
    antichain_dominates,
    build_polarizing_priors,
    classify,
    is_antichain,
    max_set,
    min_set,
)
from bayespol import leq, ll
from bayespol.classifier import (
    _biased_down_pivot,
    _biased_up_pivot,
    _dominance_failure,
    compensatory_pivot,
    compensatory_pivot_dual,
    is_spanning,
)

from conftest import DIAGONAL, GRID_2X2, GRID_3X3, OFF_DIAGONAL


def _subset(space, *states):
    return StateSubset.from_states(space, states)


# -- min/max antichains --------------------------------------------------------


def test_min_max_of_full_space_are_the_corners():
    full = StateSubset.full(GRID_3X3)
    assert min_set(full).states() == ((0, 0),)
    assert max_set(full).states() == ((2, 2),)


def test_min_max_of_ring():
    ring = StateSubset.full(GRID_3X3).difference(_subset(GRID_3X3, (0, 0), (2, 2)))
    assert set(min_set(ring).states()) == {(0, 1), (1, 0)}
    assert set(max_set(ring).states()) == {(1, 2), (2, 1)}


def test_min_max_of_singleton():
    single = _subset(GRID_3X3, (1, 2))
    assert min_set(single) == single and max_set(single) == single


def test_min_max_reject_empty():
    with pytest.raises(ValueError):
        min_set(StateSubset.empty(GRID_2X2))


def test_every_member_sits_above_some_minimal_element():
    rng = random.Random(4)
    from bayespol import leq

    for _ in range(200):
        mask = rng.randrange(1, GRID_3X3.full_mask + 1)
        subset = StateSubset(GRID_3X3, mask)
        minimal = min_set(subset)
        assert is_antichain(minimal)
        for member in subset:
            assert any(leq(low, member) for low in minimal)


# -- classify -------------------------------------------------------------------


def test_classify_the_four_prototype_sets():
    diag = classify(GRID_2X2, DIAGONAL)
    assert diag.can_strongly_polarize
    assert diag.spanning and diag.complement_spanning
    assert diag.balanced and not diag.compensatory

    off = classify(GRID_2X2, OFF_DIAGONAL)
    assert not off.can_strongly_polarize
    assert off.compensatory and off.compensatory_pivot == (0, 0)
    assert off.spanning and off.complement_spanning and off.balanced

    bottom_row = classify(GRID_2X2, _subset(GRID_2X2, (0, 0), (1, 0)))
    assert not bottom_row.can_strongly_polarize
    assert not bottom_row.spanning and not bottom_row.complement_spanning

    ell_shape = classify(GRID_2X2, _subset(GRID_2X2, (0, 0), (1, 0), (0, 1)))
    assert not ell_shape.can_strongly_polarize
    assert ell_shape.biased_down and ell_shape.biased_down_pivot == (1, 1)
    assert not ell_shape.complement_spanning


def test_diagonal_is_the_unique_2x2_passer():
    passers = [
        mask
        for mask in range(1, GRID_2X2.full_mask)
        if classify(GRID_2X2, StateSubset(GRID_2X2, mask)).can_strongly_polarize
    ]
    assert passers == [DIAGONAL.mask]


def test_ring_passes_on_3x3():
    ring = StateSubset.full(GRID_3X3).difference(_subset(GRID_3X3, (0, 0), (2, 2)))
    assert classify(GRID_3X3, ring).can_strongly_polarize


def _spans_by_states(subset):
    # the definition, state by state: every axis's lowest and highest value
    space = subset.space
    return all(
        any(s[axis] == 0 for s in subset.states())
        and any(s[axis] == n - 1 for s in subset.states())
        for axis, n in enumerate(space.shape)
    )


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 4), (2, 2, 2)])
def test_mask_spanning_matches_the_state_definition(shape):
    space = StateSpace.grid(*shape)
    for mask in range(space.full_mask + 1):
        subset = StateSubset(space, mask)
        for s in (subset, subset.complement()):
            assert is_spanning(s) == _spans_by_states(s), (shape, s.mask)


def test_grids_that_are_not_two_dimensional_are_refused_with_their_dims():
    cube = StateSpace.grid(2, 2, 2)
    low, high = _subset(cube, (0, 0, 0)), _subset(cube, (1, 1, 1))
    line = StateSpace.grid(4)
    calls = [
        (lambda: classify(cube, low.union(high)), "2x2x2"),
        (lambda: antichain_dominates(cube, low, high), "2x2x2"),
        (lambda: build_polarizing_priors(cube, low.union(high)), "2x2x2"),
        (lambda: classify(line, _subset(line, (0,), (3,))), "4"),
    ]
    for call, dims in calls:
        with pytest.raises(ValueError, match=f"dims {dims} ") as exc:
            call()
        assert "proven for two-dimensional grids" in str(exc.value)
        assert "allow_high_dim" not in str(exc.value)


def test_classify_rejects_trivial_sets():
    with pytest.raises(ValueError):
        classify(GRID_2X2, StateSubset.full(GRID_2X2))
    with pytest.raises(ValueError):
        classify(GRID_2X2, StateSubset.empty(GRID_2X2))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_compensatory_dual_form_agrees_exhaustively(shape):
    space = StateSpace.grid(*shape)
    for mask in range(1, space.full_mask + 1):
        subset = StateSubset(space, mask)
        assert (compensatory_pivot(subset) is None) == (
            compensatory_pivot_dual(subset) is None
        )


def _brute_force_scans(space):
    """The four pivot scans straight from the definitions on states.

    Each scan lists its candidate pivots in flat order with the states that
    must be members and the states that must not; a subset's pivot is the
    first candidate whose two lists it satisfies.
    """
    states, bottom, top = space.states, space.bottom, space.top

    def rows(candidates, inside, outside):
        return [
            (p, [s for s in states if inside(s, p)], [s for s in states if outside(s, p)])
            for p in states
            if candidates(p)
        ]

    never = lambda s, p: False  # noqa: E731
    return {
        _biased_down_pivot: rows(
            lambda p: ll(bottom, p), lambda s, p: ll(s, p), lambda s, p: leq(p, s)
        ),
        _biased_up_pivot: rows(
            lambda p: ll(p, top), lambda s, p: ll(p, s), lambda s, p: leq(s, p)
        ),
        compensatory_pivot: rows(
            lambda p: ll(p, top), never, lambda s, p: leq(s, p) or ll(p, s)
        ),
        compensatory_pivot_dual: rows(
            lambda p: ll(bottom, p), never, lambda s, p: leq(p, s) or ll(s, p)
        ),
    }


def _first_pivot_by_states(rows, members):
    return next(
        (
            p
            for p, inside, outside in rows
            if members.issuperset(inside) and members.isdisjoint(outside)
        ),
        None,
    )


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_pivot_scans_match_the_state_definitions(shape):
    space = StateSpace.grid(*shape)
    scans = _brute_force_scans(space)
    for mask in range(1, space.full_mask):
        subset = StateSubset(space, mask)
        members = set(subset.states())
        for scan, rows in scans.items():
            expected = _first_pivot_by_states(rows, members)
            assert scan(subset) == expected, (shape, mask, scan.__name__)


def test_pivot_tables_are_keyed_on_the_shape_alone():
    # same shape as 3x4, other axis values: every verdict and pivot is the same
    labelled = StateSpace.make([(0, "1/2", 5), (-1, 3, 7, 8)])
    grid = StateSpace.grid(3, 4)
    for mask in range(1, grid.full_mask):
        a = classify(labelled, StateSubset(labelled, mask))
        b = classify(grid, StateSubset(grid, mask))
        assert a.identified_set.mask == b.identified_set.mask == mask
        assert a == replace(b, identified_set=a.identified_set), mask


# -- antichain dominance ---------------------------------------------------------


def test_extreme_singletons_dominate():
    verdict = antichain_dominates(
        GRID_2X2, _subset(GRID_2X2, (0, 0)), _subset(GRID_2X2, (1, 1))
    )
    assert verdict.holds


def test_non_antichain_inputs_rejected():
    chain = _subset(GRID_2X2, (0, 0), (1, 1))
    with pytest.raises(ValueError, match="antichain"):
        antichain_dominates(GRID_2X2, chain, _subset(GRID_2X2, (0, 1)))


def test_missing_extreme_values_fail_condition_two():
    verdict = antichain_dominates(
        GRID_3X3, _subset(GRID_3X3, (0, 1), (1, 0)), _subset(GRID_3X3, (1, 2))
    )
    assert not verdict.holds
    assert "maximal" in verdict.failed_condition


def test_compensatory_union_fails_condition_three():
    low = _subset(GRID_3X3, (0, 2), (2, 0))
    high = _subset(GRID_3X3, (1, 2), (2, 1))
    verdict = antichain_dominates(GRID_3X3, low, high)
    assert not verdict.holds
    assert verdict.failed_condition == "union is compensatory"
    assert verdict.pivot == (1, 1)


def test_bottom_corner_below_off_diagonal():
    # The union contains the bottom corner, which sits weakly below every
    # candidate pivot, so no pivot can certify a compensatory union.
    verdict = antichain_dominates(
        GRID_2X2, _subset(GRID_2X2, (0, 0)), OFF_DIAGONAL
    )
    assert verdict.holds


def _dominance_by_states(space, low, high, compensatory_rows):
    """The first failed dominance condition and its pivot, from the states."""
    lows, highs = set(low.states()), set(high.states())
    if lows & highs:
        return "disjoint", None
    for axis, n in enumerate(space.shape):
        if not any(s[axis] == 0 for s in lows):
            return f"low misses minimal value on axis {axis}", None
        if not any(s[axis] == n - 1 for s in highs):
            return f"high misses maximal value on axis {axis}", None
    pivot = _first_pivot_by_states(compensatory_rows, lows | highs)
    return None if pivot is None else ("union is compensatory", pivot)


@pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
def test_the_mask_dominance_test_matches_antichain_dominates(shape):
    space = StateSpace.grid(*shape)
    compensatory_rows = _brute_force_scans(space)[compensatory_pivot]
    antichains = [
        StateSubset(space, mask)
        for mask in range(1, space.full_mask + 1)
        if is_antichain(StateSubset(space, mask))
    ]
    for low in antichains:
        for high in antichains:
            expected = _dominance_by_states(space, low, high, compensatory_rows)
            failure = _dominance_failure(space, low.mask, high.mask)
            if failure is not None:
                condition, pivot = failure
                failure = condition, None if pivot is None else space.state_at(pivot)
            assert failure == expected, (low, high)
            verdict = antichain_dominates(space, low, high)
            assert verdict.holds == (expected is None), (low, high)
            assert (verdict.failed_condition, verdict.pivot) == (expected or (None, None))


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_classified_sets_satisfy_the_three_dominance_relations(shape):
    space = StateSpace.grid(*shape)
    for mask in range(1, space.full_mask):
        subset = StateSubset(space, mask)
        if not classify(space, subset).can_strongly_polarize:
            continue
        complement = subset.complement()
        assert antichain_dominates(space, min_set(subset), max_set(subset)).holds
        assert antichain_dominates(space, min_set(subset), max_set(complement)).holds
        assert antichain_dominates(space, min_set(complement), max_set(subset)).holds


@pytest.mark.parametrize(
    "shape,digest",
    [
        ((2, 3), "d93dd2d6849ec963"),
        ((3, 3), "bb13c6b259cf8872"),
        ((2, 4), "d481626a76eb82d6"),
    ],
)
def test_classify_reports_are_pinned(shape, digest):
    # Every report field, the three pivots included, for every proper subset.
    space = StateSpace.grid(*shape)
    h = hashlib.sha256()
    for mask in range(1, space.full_mask):
        report = classify(space, StateSubset(space, mask))
        row = [report.identified_set.mask] + [
            getattr(report, f.name) for f in fields(report) if f.name != "identified_set"
        ]
        h.update(repr(row).encode())
    assert h.hexdigest()[:16] == digest
