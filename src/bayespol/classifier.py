"""Geometric classification of identified sets on two-dimensional grids.

A proper nonempty subset can support persistent coordinatewise polarization
exactly when it and its complement are spanning, it is balanced (biased
neither downward nor upward), and it is non-compensatory.  The predicates
quantify over grid states as pivots; the space's order cones, as bitmasks,
make the scans cheap enough for exhaustive subset sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import State, StateSpace, StateSubset


def _require_two_dimensions(space: StateSpace) -> None:
    """Refuse a grid outside the proven characterization, naming its dims."""
    if space.ndim != 2:
        raise ValueError(
            f"dims {'x'.join(map(str, space.shape))} is a {space.ndim}-dimensional"
            " grid: the characterization is proven for two-dimensional grids,"
            " so the classifier takes two dimensions only"
        )


def _diagonal(space: StateSpace) -> int:
    """Flat step of (1, ..., 1): g >> f iff g >= f + (1, ..., 1), so the
    strict up-cone of f is the weak up-cone of f + d, when that state exists,
    and the strict down-cone is the weak down-cone of f - d."""
    return sum(space.strides)


def is_antichain(subset: StateSubset) -> bool:
    """No two distinct members are comparable."""
    space = subset.space
    up, down = space.up_cones, space.down_cones
    for f in subset.flats():
        related = (down[f] | up[f]) & subset.mask
        if related != 1 << f:
            return False
    return True


def min_set(subset: StateSubset) -> StateSubset:
    """Minimal antichain: members with no other member weakly below them."""
    if subset.is_empty:
        raise ValueError("min_set of empty subset")
    down = subset.space.down_cones
    flats = [f for f in subset.flats() if down[f] & subset.mask == 1 << f]
    return StateSubset.from_flats(subset.space, flats)


def max_set(subset: StateSubset) -> StateSubset:
    """Maximal antichain: members with no other member weakly above them."""
    if subset.is_empty:
        raise ValueError("max_set of empty subset")
    up = subset.space.up_cones
    flats = [f for f in subset.flats() if up[f] & subset.mask == 1 << f]
    return StateSubset.from_flats(subset.space, flats)


def is_spanning(subset: StateSubset) -> bool:
    """Attains the lowest and highest value on every coordinate."""
    mask = subset.mask
    for lowest, highest in subset.space.axis_extremes:
        if not (mask & lowest and mask & highest):
            return False
    return True


def _biased_down_pivot(subset: StateSubset) -> Optional[State]:
    """Pivot strictly above the bottom whose strict down-cone lies inside the
    subset while its weak up-cone misses it entirely."""
    space = subset.space
    up, down, d = space.up_cones, space.down_cones, _diagonal(space)
    gmask = subset.mask
    for f in StateSubset(space, up[d]).flats():
        if down[f - d] & ~gmask == 0 and up[f] & gmask == 0:
            return space.state_at(f)
    return None


def _biased_up_pivot(subset: StateSubset) -> Optional[State]:
    space = subset.space
    up, down, d = space.up_cones, space.down_cones, _diagonal(space)
    gmask = subset.mask
    for f in StateSubset(space, down[space.size - 1 - d]).flats():
        if up[f + d] & ~gmask == 0 and down[f] & gmask == 0:
            return space.state_at(f)
    return None


def compensatory_pivot(subset: StateSubset) -> Optional[State]:
    """Pivot strictly below the top with every member off its weak down-cone
    and off its strict up-cone (trapped in the off-diagonal quadrants)."""
    space = subset.space
    up, down, d = space.up_cones, space.down_cones, _diagonal(space)
    gmask = subset.mask
    for f in StateSubset(space, down[space.size - 1 - d]).flats():
        if gmask & (down[f] | up[f + d]) == 0:
            return space.state_at(f)
    return None


def compensatory_pivot_dual(subset: StateSubset) -> Optional[State]:
    """Dual form: pivot strictly above the bottom with every member off its
    weak up-cone and off its strict down-cone."""
    space = subset.space
    up, down, d = space.up_cones, space.down_cones, _diagonal(space)
    gmask = subset.mask
    for f in StateSubset(space, up[d]).flats():
        if gmask & (up[f] | down[f - d]) == 0:
            return space.state_at(f)
    return None


@dataclass(frozen=True)
class ClassificationReport:
    identified_set: StateSubset
    spanning: bool
    complement_spanning: bool
    biased_down: bool
    biased_up: bool
    balanced: bool
    compensatory: bool
    can_strongly_polarize: bool
    biased_down_pivot: Optional[State]
    biased_up_pivot: Optional[State]
    compensatory_pivot: Optional[State]


def classify(space: StateSpace, identified: StateSubset) -> ClassificationReport:
    """Evaluate the three polarization conditions for an identified set.

    The characterization is proven for two-dimensional grids only, so any
    other grid is refused with a ValueError that names its dims.
    """
    if identified.space != space:
        raise ValueError("identified set lives on a different space")
    _require_two_dimensions(space)
    if not identified.is_proper:
        raise ValueError("identified set must be a proper nonempty subset")

    pivot = compensatory_pivot(identified)
    dual = compensatory_pivot_dual(identified)
    if (pivot is None) != (dual is None):
        raise AssertionError(
            "internal error: compensatory forms disagree on " f"{identified!r}"
        )
    down = _biased_down_pivot(identified)
    up = _biased_up_pivot(identified)
    spanning = is_spanning(identified)
    complement_spanning = is_spanning(identified.complement())
    balanced = down is None and up is None
    compensatory = pivot is not None
    return ClassificationReport(
        identified_set=identified,
        spanning=spanning,
        complement_spanning=complement_spanning,
        biased_down=down is not None,
        biased_up=up is not None,
        balanced=balanced,
        compensatory=compensatory,
        can_strongly_polarize=(
            spanning and complement_spanning and balanced and not compensatory
        ),
        biased_down_pivot=down,
        biased_up_pivot=up,
        compensatory_pivot=pivot,
    )


@dataclass(frozen=True)
class AntichainDominance:
    holds: bool
    failed_condition: Optional[str] = None
    pivot: Optional[State] = None

    def __bool__(self) -> bool:
        return self.holds


def antichain_dominates(
    space: StateSpace, low: StateSubset, high: StateSubset
) -> AntichainDominance:
    """Whether ``high`` antichain-dominates ``low``.

    Requires: disjointness; ``low`` attains the minimal value and ``high``
    the maximal value on both coordinates; and a non-compensatory union.
    """
    _require_two_dimensions(space)
    if low.space != space or high.space != space:
        raise ValueError("antichains live on a different space")
    if low.is_empty or high.is_empty:
        raise ValueError("antichains must be nonempty")
    if not is_antichain(low):
        raise ValueError(f"{low!r} is not an antichain")
    if not is_antichain(high):
        raise ValueError(f"{high!r} is not an antichain")

    if not low.isdisjoint(high):
        return AntichainDominance(False, "disjoint")
    for axis, (lowest, highest) in enumerate(space.axis_extremes):
        if not low.mask & lowest:
            return AntichainDominance(False, f"low misses minimal value on axis {axis}")
        if not high.mask & highest:
            return AntichainDominance(False, f"high misses maximal value on axis {axis}")
    pivot = compensatory_pivot(low.union(high))
    if pivot is not None:
        return AntichainDominance(False, "union is compensatory", pivot)
    return AntichainDominance(True)
