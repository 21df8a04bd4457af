"""Geometric classification of identified sets on two-dimensional grids.

A proper nonempty subset can support persistent coordinatewise polarization
exactly when it and its complement are spanning, it is balanced (biased
neither downward nor upward), and it is non-compensatory.  The predicates
quantify over grid states as pivots.  Each pivot scan reads a table built
once per grid shape from the order cones, as bitmasks, so a scan is one mask
test per candidate pivot, cheap enough for exhaustive subset sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import State, StateSpace, StateSubset, _require_subset


def _require_two_dimensions(space: StateSpace) -> None:
    """Refuse a grid outside the proven characterization, naming its dims."""
    if space.ndim != 2:
        raise ValueError(
            f"dims {'x'.join(map(str, space.shape))} is a {space.ndim}-dimensional"
            " grid: the characterization is proven for two-dimensional grids,"
            " so the classifier takes two dimensions only"
        )


# Grid shapes whose pivot tables are kept.
_TABLE_CACHE_SIZE = 64

# A pivot-table row (pivot flat, cone mask, required part): the pivot
# certifies a subset's mask g exactly when g & cone mask == required part.
_Row = tuple[int, int, int]


class _PivotTables(NamedTuple):
    """Per pivot scan, its candidate pivots in ascending flat order, each
    with the cone masks its test reads."""

    biased_down: tuple[_Row, ...]
    biased_up: tuple[_Row, ...]
    compensatory: tuple[_Row, ...]
    compensatory_dual: tuple[_Row, ...]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pivot_tables(shape: tuple[int, ...]) -> _PivotTables:
    """The four pivot scans' tables for a grid shape.

    The cones, and so the tables, depend on the shape alone, and a shape
    tuple hashes far faster than a ``StateSpace`` with its ``Fraction`` axes.
    ``d`` is the flat step of (1, ..., 1): g >> f iff g >= f + (1, ..., 1),
    so the strict up-cone of f is the weak up-cone of f + d, when that state
    exists, and the strict down-cone is the weak down-cone of f - d.
    """
    space = StateSpace.grid(*shape)
    up, down, d = space.up_cones, space.down_cones, sum(space.strides)
    above_bottom = StateSubset(space, up[d]).flats()
    below_top = StateSubset(space, down[space.size - 1 - d]).flats()
    return _PivotTables(
        biased_down=tuple(
            [(f, down[f - d] | up[f], down[f - d]) for f in above_bottom]
        ),
        biased_up=tuple([(f, up[f + d] | down[f], up[f + d]) for f in below_top]),
        compensatory=tuple([(f, down[f] | up[f + d], 0) for f in below_top]),
        compensatory_dual=tuple([(f, up[f] | down[f - d], 0) for f in above_bottom]),
    )


def _first_pivot(rows: tuple[_Row, ...], gmask: int) -> Optional[int]:
    """Flat index of the first row's pivot that certifies ``gmask``."""
    for f, cone, required in rows:
        if gmask & cone == required:
            return f
    return None


def _pivot_state(subset: StateSubset, rows: tuple[_Row, ...]) -> Optional[State]:
    f = _first_pivot(rows, subset.mask)
    return None if f is None else subset.space.state_at(f)


def _extreme_mask(mask: int, cones: tuple[int, ...]) -> int:
    """The members f of ``mask`` whose cone meets ``mask`` at f alone.

    With ``down_cones`` these are the minimal members (none other weakly
    below), with ``up_cones`` the maximal ones.
    """
    out = 0
    rest = mask
    while rest:
        bit = rest & -rest
        if cones[bit.bit_length() - 1] & mask == bit:
            out |= bit
        rest ^= bit
    return out


def is_antichain(subset: StateSubset) -> bool:
    """No two distinct members are comparable: the set is its own min set."""
    _require_subset(subset, "subset")
    return _extreme_mask(subset.mask, subset.space.down_cones) == subset.mask


def min_set(subset: StateSubset) -> StateSubset:
    """Minimal antichain: members with no other member weakly below them."""
    _require_subset(subset, "subset")
    if subset.is_empty:
        raise ValueError("min_set of empty subset")
    space = subset.space
    return StateSubset(space, _extreme_mask(subset.mask, space.down_cones))


def max_set(subset: StateSubset) -> StateSubset:
    """Maximal antichain: members with no other member weakly above them."""
    _require_subset(subset, "subset")
    if subset.is_empty:
        raise ValueError("max_set of empty subset")
    space = subset.space
    return StateSubset(space, _extreme_mask(subset.mask, space.up_cones))


def _spans(axis_extremes: tuple[tuple[int, int], ...], mask: int) -> bool:
    for lowest, highest in axis_extremes:
        if not (mask & lowest and mask & highest):
            return False
    return True


def is_spanning(subset: StateSubset) -> bool:
    """Attains the lowest and highest value on every coordinate."""
    return _spans(subset.space.axis_extremes, subset.mask)


def _biased_down_pivot(subset: StateSubset) -> Optional[State]:
    """Pivot strictly above the bottom whose strict down-cone lies inside the
    subset while its weak up-cone misses it entirely."""
    return _pivot_state(subset, _pivot_tables(subset.space.shape).biased_down)


def _biased_up_pivot(subset: StateSubset) -> Optional[State]:
    return _pivot_state(subset, _pivot_tables(subset.space.shape).biased_up)


def compensatory_pivot(subset: StateSubset) -> Optional[State]:
    """Pivot strictly below the top with every member off its weak down-cone
    and off its strict up-cone (trapped in the off-diagonal quadrants)."""
    return _pivot_state(subset, _pivot_tables(subset.space.shape).compensatory)


def compensatory_pivot_dual(subset: StateSubset) -> Optional[State]:
    """Dual form: pivot strictly above the bottom with every member off its
    weak up-cone and off its strict down-cone."""
    return _pivot_state(subset, _pivot_tables(subset.space.shape).compensatory_dual)


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
    _require_subset(identified, "identified")
    if identified.space != space:
        raise ValueError("identified set lives on a different space")
    _require_two_dimensions(space)
    if not identified.is_proper:
        raise ValueError("identified set must be a proper nonempty subset")

    tables = _pivot_tables(space.shape)
    mask = identified.mask
    pivot = _first_pivot(tables.compensatory, mask)
    if (pivot is None) != (_first_pivot(tables.compensatory_dual, mask) is None):
        raise AssertionError(
            "internal error: compensatory forms disagree on " f"{identified!r}"
        )
    down = _first_pivot(tables.biased_down, mask)
    up = _first_pivot(tables.biased_up, mask)
    extremes = space.axis_extremes
    spanning = _spans(extremes, mask)
    complement_spanning = _spans(extremes, space.full_mask ^ mask)
    balanced = down is None and up is None
    compensatory = pivot is not None
    state = space.state_at
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
        biased_down_pivot=None if down is None else state(down),
        biased_up_pivot=None if up is None else state(up),
        compensatory_pivot=None if pivot is None else state(pivot),
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
    _require_subset(low, "low")
    _require_subset(high, "high")
    _require_two_dimensions(space)
    if low.space != space or high.space != space:
        raise ValueError("antichains live on a different space")
    if low.is_empty or high.is_empty:
        raise ValueError("antichains must be nonempty")
    if not is_antichain(low):
        raise ValueError(f"{low!r} is not an antichain")
    if not is_antichain(high):
        raise ValueError(f"{high!r} is not an antichain")

    failure = _dominance_failure(space, low.mask, high.mask)
    if failure is None:
        return AntichainDominance(True)
    condition, pivot = failure
    return AntichainDominance(
        False, condition, None if pivot is None else space.state_at(pivot)
    )


def _dominance_failure(
    space: StateSpace, low: int, high: int
) -> Optional[tuple[str, Optional[int]]]:
    """The first antichain-dominance condition that the masks ``low`` and
    ``high`` fail, with the compensatory pivot's flat index when it is the
    union's; ``None`` when all three hold.  The masks are taken to be
    nonempty antichains on the 2-D ``space``."""
    if low & high:
        return "disjoint", None
    for axis, (lowest, highest) in enumerate(space.axis_extremes):
        if not low & lowest:
            return f"low misses minimal value on axis {axis}", None
        if not high & highest:
            return f"high misses maximal value on axis {axis}", None
    pivot = _first_pivot(_pivot_tables(space.shape).compensatory, low | high)
    if pivot is not None:
        return "union is compensatory", pivot
    return None
