"""Finite product state spaces and exact-rational probability mass functions.

Everything downstream of this module is exact: coordinates, masses and all
derived quantities are rationals (internally, integer numerators over one
shared denominator), so order comparisons never suffer float ties.  States
are index vectors into the grid; coordinate labels are consulted only for
the partial order, never for arithmetic.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

RationalLike = Union[Fraction, int, str]

# A state is an index vector (i_1, ..., i_d) into a StateSpace.
State = tuple[int, ...]

_Value = TypeVar("_Value")

# Shapes whose shared ``StateSpace.grid`` instance is kept.
_GRID_CACHE_SIZE = 64


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    # bool is an int subclass; True and False are not rationals
    if isinstance(value, bool):
        raise TypeError(f"refusing bool {value!r}; pass an int, Fraction, or 'p/q' string")
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass an int, Fraction, or 'p/q' string")
    return Fraction(value)


# ``Belief`` and ``LikelihoodFn`` take plain int numerators and denominator
# only, tested inline as ``_INT.issuperset(map(type, nums))``: it runs on
# every ``Belief``.  bool is an int subclass, and a float or ``Fraction``
# would reach ``math.gcd`` with a message that names no field.
_INT = frozenset({int})


def _refuse_non_int(nums: Sequence[int], den: int) -> None:
    """Raise a ``TypeError`` naming the first of ``nums`` and ``den`` that is
    not a plain int."""
    for i, n in enumerate(nums):
        if type(n) is not int:
            raise TypeError(f"nums[{i}] must be an int, got {n!r}")
    raise TypeError(f"den must be an int, got {den!r}")


def _refuse_non_tuple(nums: object) -> None:
    """Raise a ``TypeError`` naming ``nums`` unless it is a tuple: a list
    would leave the frozen value mutable and unhashable."""
    if type(nums) is not tuple:
        raise TypeError(f"nums must be a tuple, got {type(nums).__name__}")


def _trusted(cls: type[_Value], space: "StateSpace", nums: tuple[int, ...], den: int) -> _Value:
    """A ``Belief`` or ``LikelihoodFn`` (``cls``) from integers the library
    drew or enumerated itself, without the public constructor's checks.

    The caller vouches for what those checks test: ``nums`` is a tuple of
    ``space.size`` ints, ``den`` is a positive int, and the values are valid
    for ``cls`` by construction.  The gcd reduction is the public path's,
    so the result equals, and hashes as, ``cls(space, nums, den)``.  Only
    the verifier's samplers and exhaustive grids call it; tests/test_imports.py
    keeps it that way, so no outside input skips the checks.
    """
    g = math.gcd(den, *nums)
    if g > 1:
        nums = tuple([n // g for n in nums])
        den //= g
    obj = object.__new__(cls)
    fields = obj.__dict__
    fields["space"] = space
    fields["nums"] = nums
    fields["den"] = den
    return obj


def over_common_denominator(values: Iterable[RationalLike]) -> tuple[tuple[int, ...], int]:
    """Exact rationals as integer numerators over their least common denominator."""
    fractions = [frac(v) for v in values]
    den = math.lcm(*(f.denominator for f in fractions)) if fractions else 1
    return tuple([f.numerator * (den // f.denominator) for f in fractions]), den


def leq(a: State, b: State) -> bool:
    """Coordinatewise weak order: a <= b on every coordinate."""
    return all(x <= y for x, y in zip(a, b))


def ll(a: State, b: State) -> bool:
    """Coordinatewise strict order: a < b on every coordinate."""
    return all(x < y for x, y in zip(a, b))


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite grid: the Cartesian product of strictly increasing axes.

    Each axis is a strictly increasing tuple of rational values with at least
    two entries.  States are addressed by index vectors, enumerated row-major
    with the last axis fastest; ``flat`` converts an index vector to its
    position in that enumeration.  The coordinatewise order's cover edges and
    cones are worked out once per instance, on first use.
    """

    axes: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("state space needs at least one axis")
        coerced = []
        for k, axis in enumerate(self.axes):
            vals = tuple(frac(v) for v in axis)
            if len(vals) < 2:
                raise ValueError(f"axis {k} has {len(vals)} values; need at least 2")
            if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
                raise ValueError(f"axis {k} is not strictly increasing: {vals}")
            coerced.append(vals)
        object.__setattr__(self, "axes", tuple(coerced))
        # Hashing the axes hashes every Fraction, and spaces key the order
        # caches, so the hash is worked out once here.
        object.__setattr__(self, "_hash", hash((self.axes,)))
        shape = tuple(len(a) for a in self.axes)
        strides = []
        acc = 1
        for n in reversed(shape):
            strides.append(acc)
            acc *= n
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_strides", tuple(reversed(strides)))
        object.__setattr__(self, "_size", acc)
        object.__setattr__(self, "_full_mask", (1 << acc) - 1)
        object.__setattr__(
            self, "_states", tuple(_cartesian(*(range(n) for n in shape)))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @staticmethod
    def make(axes: Iterable[Iterable[RationalLike]]) -> "StateSpace":
        return StateSpace(tuple(tuple(axis) for axis in axes))

    @staticmethod
    @lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
    def grid(*shape: int) -> "StateSpace":
        """Unit-spaced space with axes 0..n_i-1; handy when labels don't matter.

        One instance is shared per shape, so its cached order tables are
        worked out once for every caller.
        """
        for i, n in enumerate(shape):
            # bool is an int subclass, and True would make a one-value axis
            if type(n) is not int:
                raise TypeError(f"shape[{i}] must be an int, got {n!r}")
        return StateSpace.make([range(n) for n in shape])

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return self._size  # type: ignore[attr-defined]

    @property
    def strides(self) -> tuple[int, ...]:
        """Flat-index step of one unit along each axis."""
        return self._strides  # type: ignore[attr-defined]

    @property
    def states(self) -> tuple[State, ...]:
        """All states in row-major order (last axis fastest)."""
        return self._states  # type: ignore[attr-defined]

    @property
    def bottom(self) -> State:
        return (0,) * self.ndim

    @property
    def top(self) -> State:
        return tuple(n - 1 for n in self.shape)

    @property
    def full_mask(self) -> int:
        return self._full_mask  # type: ignore[attr-defined]

    def flat(self, state: State) -> int:
        if len(state) != self.ndim:
            raise ValueError(
                f"state {state} has length {len(state)}, but shape {self.shape}"
                f" has {self.ndim} axes"
            )
        for i, n in zip(state, self.shape):
            if not 0 <= i < n:
                raise ValueError(f"state {state} out of bounds for shape {self.shape}")
        return sum(i * s for i, s in zip(state, self._strides))  # type: ignore[attr-defined]

    def state_at(self, flat: int) -> State:
        return self._states[flat]  # type: ignore[attr-defined]

    def coords(self, state: State) -> tuple[Fraction, ...]:
        """Real-valued coordinate vector of a state."""
        return tuple(axis[i] for axis, i in zip(self.axes, state))

    # -- the coordinatewise order ------------------------------------------

    @cached_property
    def cover_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs ``(f, f + stride)`` of the coordinatewise order.

        Listed axis by axis and, within an axis, from the top down, so that
        ``x[f] += x[g]`` over them in this order turns ``x`` into its sums
        over every up-cone (one axis at a time), and ``x[g] += x[f]`` over
        them in reverse order into its sums over every down-cone.
        """
        states = self._states  # type: ignore[attr-defined]
        return tuple(
            (f, f + stride)
            for axis, (n, stride) in enumerate(zip(self.shape, self.strides))
            for f in reversed(range(self.size))
            if states[f][axis] + 1 < n
        )

    @cached_property
    def axis_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per axis and per value on it, the flat indices of the states there.

        ``sum(map(nums.__getitem__, g))`` over ``axis_groups[axis]`` gives a
        mass vector's marginal numerators on that axis.
        """
        states = self._states  # type: ignore[attr-defined]
        groups = [[[] for _ in range(n)] for n in self.shape]
        for f, state in enumerate(states):
            for axis, i in enumerate(state):
                groups[axis][i].append(f)
        return tuple(tuple([tuple(g) for g in axis]) for axis in groups)

    @cached_property
    def cdf_cuts(self) -> tuple[tuple[int, int, Callable[[Sequence[int]], Sequence[int]]], ...]:
        """Per interior cut of each axis, axis-major and by cut, ``(axis,
        cut, get)``: ``sum(get(nums))`` is a mass vector's marginal cdf
        numerator on ``axis`` at ``cut``, its mass on the states whose value
        there is at most ``cut``.

        A cut holding one state (the first cut of a 1-D grid) gets a
        one-element slice, so ``get`` always returns a sequence.
        """
        cuts = []
        for axis, groups in enumerate(self.axis_groups):
            below: list[int] = []
            for cut, group in enumerate(groups[:-1]):
                below += group
                if len(below) > 1:
                    get = operator.itemgetter(*below)
                else:
                    get = operator.itemgetter(slice(below[0], below[0] + 1))
                cuts.append((axis, cut, get))
        return tuple(cuts)

    @cached_property
    def _verdicts(self) -> dict:
        """``orders._verdict_from_gaps``'s verdicts on this space, by outcome,
        kept here so that every witness lives on the caller's space."""
        return {}

    @cached_property
    def axis_extremes(self) -> tuple[tuple[int, int], ...]:
        """Per axis, the bitmasks of the states at its lowest and at its
        highest value: ``axis_groups[axis][0]`` and ``[-1]`` as masks."""
        return tuple(
            (sum(1 << f for f in groups[0]), sum(1 << f for f in groups[-1]))
            for groups in self.axis_groups
        )

    @cached_property
    def projection_corners(self) -> tuple[int, ...]:
        """Corner states of the projection events {state_axis >= cut},
        axis-major and by cut: each event is its corner's up-cone."""
        return tuple(
            cut * stride
            for n, stride in zip(self.shape, self.strides)
            for cut in range(1, n)
        )

    @cached_property
    def orthant_events(self) -> tuple[tuple[int, int], ...]:
        """``(corner, up-cone mask)`` per upper orthant, every state's up-cone
        but the bottom's, listed by mask: ``event_family``'s order."""
        up = self.up_cones
        return tuple(sorted([(f, up[f]) for f in range(1, self.size)], key=operator.itemgetter(1)))

    @cached_property
    def projection_events(self) -> tuple[tuple[int, int], ...]:
        """``(corner, up-cone mask)`` per projection event, in
        ``projection_corners``' axis-major order: ``event_family``'s order."""
        up = self.up_cones
        return tuple((f, up[f]) for f in self.projection_corners)

    @cached_property
    def up_cones(self) -> tuple[int, ...]:
        """Per state, the bitmask of the states at or above it."""
        up = [1 << f for f in range(self.size)]
        for f, g in self.cover_edges:
            up[f] |= up[g]
        return tuple(up)

    @cached_property
    def down_cones(self) -> tuple[int, ...]:
        """Per state, the bitmask of the states at or below it."""
        down = [1 << f for f in range(self.size)]
        for f, g in reversed(self.cover_edges):
            down[g] |= down[f]
        return tuple(down)

    def __repr__(self) -> str:
        return f"StateSpace({'x'.join(str(n) for n in self.shape)})"


@dataclass(frozen=True)
class StateSubset:
    """Subset of a StateSpace's states, stored as a membership bitmask."""

    space: StateSpace
    mask: int

    def __post_init__(self) -> None:
        # bool is an int subclass, and a float mask fails later in bitwise
        # operations with a message that names no field.
        if type(self.mask) is not int:
            raise TypeError(f"mask must be an int, got {self.mask!r}")
        if not 0 <= self.mask <= self.space.full_mask:
            raise ValueError("mask out of range for space")

    @staticmethod
    def from_states(space: StateSpace, states: Iterable[State]) -> "StateSubset":
        mask = 0
        for s in states:
            mask |= 1 << space.flat(tuple(s))
        return StateSubset(space, mask)

    @staticmethod
    def from_flats(space: StateSpace, flats: Iterable[int]) -> "StateSubset":
        mask = 0
        for f in flats:
            mask |= 1 << f
        return StateSubset(space, mask)

    @staticmethod
    def full(space: StateSpace) -> "StateSubset":
        return StateSubset(space, space.full_mask)

    @staticmethod
    def empty(space: StateSpace) -> "StateSubset":
        return StateSubset(space, 0)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[State]:
        return iter(self.states())

    def __contains__(self, state: State) -> bool:
        return bool(self.mask >> self.space.flat(tuple(state)) & 1)

    def contains_flat(self, flat: int) -> bool:
        return bool(self.mask >> flat & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_proper(self) -> bool:
        return 0 < self.mask < self.space.full_mask

    def flats(self) -> tuple[int, ...]:
        m = self.mask
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def states(self) -> tuple[State, ...]:
        # Tuples on hot paths are built from lists, not generators: CPython
        # allocates a generator's tuple at a guessed length and shrinks it,
        # so each one takes a fresh block and frees it onto the free list of
        # its final length, which then holds up to 2,000 idle blocks.
        return tuple([self.space.state_at(f) for f in self.flats()])

    def complement(self) -> "StateSubset":
        return StateSubset(self.space, self.space.full_mask ^ self.mask)

    def union(self, other: "StateSubset") -> "StateSubset":
        self._check_space(other)
        return StateSubset(self.space, self.mask | other.mask)

    def intersection(self, other: "StateSubset") -> "StateSubset":
        self._check_space(other)
        return StateSubset(self.space, self.mask & other.mask)

    def difference(self, other: "StateSubset") -> "StateSubset":
        self._check_space(other)
        return StateSubset(self.space, self.mask & ~other.mask)

    def issubset(self, other: "StateSubset") -> bool:
        self._check_space(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "StateSubset") -> bool:
        self._check_space(other)
        return self.mask & other.mask == 0

    def _check_space(self, other: "StateSubset") -> None:
        if self.space != other.space:
            raise ValueError("subsets live on different spaces")

    def __repr__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.states()) + "}"


def _require_subset(value: object, name: str) -> None:
    """Refuse anything but a ``StateSubset`` with a ValueError naming ``name``."""
    if not isinstance(value, StateSubset):
        raise ValueError(f"{name} must be a StateSubset, got {type(value).__name__}")


def _indicator(mask: int, size: int) -> tuple[int, ...]:
    """Per state of a ``size``-state space, 1 if it is in ``mask``, else 0."""
    return tuple([mask >> f & 1 for f in range(size)])


@dataclass(frozen=True)
class Marginal:
    """Univariate marginal: per-value masses and the running-sum cdf."""

    masses: tuple[Fraction, ...]
    cdf: tuple[Fraction, ...]


@dataclass(frozen=True)
class Belief:
    """Exact probability mass function over a StateSpace.

    Masses are stored as integer numerators over one shared denominator and
    are canonicalized (gcd-reduced) at construction, so equal distributions
    compare equal.  Instances are immutable; every operation returns a new
    Belief whose masses sum to one exactly.

    The constructor checks every field: ``nums`` must be a tuple of
    nonnegative ints, one per state, summing to the positive int ``den``.
    The verifier's samplers and exhaustive grids, whose integers meet these
    conditions by construction, build through ``core._trusted`` instead,
    which skips the checks and keeps the same gcd reduction.
    """

    space: StateSpace
    nums: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        _refuse_non_tuple(self.nums)
        if len(self.nums) != self.space.size:
            raise ValueError(
                f"expected {self.space.size} masses, got {len(self.nums)}"
            )
        if not (_INT.issuperset(map(type, self.nums)) and type(self.den) is int):
            _refuse_non_int(self.nums, self.den)
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if min(self.nums) < 0:
            raise ValueError("negative mass")
        if sum(self.nums) != self.den:
            raise ValueError("masses do not sum to 1")
        g = math.gcd(self.den, *self.nums)
        if g > 1:
            object.__setattr__(self, "nums", tuple([n // g for n in self.nums]))
            object.__setattr__(self, "den", self.den // g)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fractions(space: StateSpace, masses: Iterable[RationalLike]) -> "Belief":
        return Belief(space, *over_common_denominator(masses))

    @staticmethod
    def from_weights(space: StateSpace, weights: Sequence[int]) -> "Belief":
        """Belief proportional to nonnegative integer weights."""
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return Belief(space, tuple(weights), total)

    @staticmethod
    def uniform(space: StateSpace) -> "Belief":
        return Belief(space, (1,) * space.size, space.size)

    @staticmethod
    def uniform_on(space: StateSpace, subset: StateSubset) -> "Belief":
        if subset.space != space:
            raise ValueError("subset lives on a different space")
        if subset.is_empty:
            raise ValueError("uniform distribution over empty set")
        return Belief(space, _indicator(subset.mask, space.size), len(subset))

    @staticmethod
    def dirac(space: StateSpace, state: State) -> "Belief":
        nums = [0] * space.size
        nums[space.flat(tuple(state))] = 1
        return Belief(space, tuple(nums), 1)

    # -- accessors ---------------------------------------------------------

    def mass(self, state: State) -> Fraction:
        return Fraction(self.nums[self.space.flat(tuple(state))], self.den)

    def mass_flat(self, flat: int) -> Fraction:
        return Fraction(self.nums[flat], self.den)

    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def num_on(self, flats: Iterable[int]) -> int:
        """Unnormalized mass on a set of flat indices (numerator over den)."""
        nums = self.nums
        return sum(nums[f] for f in flats)

    def prob(self, subset: StateSubset) -> Fraction:
        if subset.space != self.space:
            raise ValueError("subset lives on a different space")
        return Fraction(self.num_on(subset.flats()), self.den)

    @property
    def full_support(self) -> bool:
        return min(self.nums) > 0

    def support(self) -> StateSubset:
        return StateSubset.from_flats(
            self.space, (f for f, n in enumerate(self.nums) if n > 0)
        )

    # -- operations --------------------------------------------------------

    def marginal_nums(self, axis: int) -> list[int]:
        """Per-value numerators of the marginal on one axis (over self.den)."""
        # bool is an int subclass: True would index axis 1
        if type(axis) is not int:
            raise TypeError(f"axis must be an int, got {axis!r}")
        if not 0 <= axis < self.space.ndim:
            raise ValueError(f"axis {axis} out of range for {self.space.ndim}-d space")
        get = self.nums.__getitem__
        return [sum(map(get, g)) for g in self.space.axis_groups[axis]]

    def marginal(self, axis: int) -> Marginal:
        nums = self.marginal_nums(axis)
        masses = tuple(Fraction(n, self.den) for n in nums)
        cdf = []
        acc = Fraction(0)
        for m in masses:
            acc += m
            cdf.append(acc)
        return Marginal(masses, tuple(cdf))

    def condition(self, subset: StateSubset) -> "Belief":
        """Conditional distribution given the event ``subset``."""
        if subset.space != self.space:
            raise ValueError("subset lives on a different space")
        mask = subset.mask
        nums = tuple([n if mask >> f & 1 else 0 for f, n in enumerate(self.nums)])
        total = sum(nums)
        if total == 0:
            raise ValueError("conditioning on null event")
        return Belief(self.space, nums, total)

    def expectation(self, values: Sequence[RationalLike]) -> Fraction:
        if len(values) != self.space.size:
            raise ValueError("value vector length mismatch")
        nums, den = over_common_denominator(values)
        return Fraction(sum(map(operator.mul, self.nums, nums)), den * self.den)

    def tv_distance(self, other: "Belief") -> Fraction:
        if other.space != self.space:
            raise ValueError("beliefs live on different spaces")
        diff = sum(
            abs(a * other.den - b * self.den) for a, b in zip(self.nums, other.nums)
        )
        return Fraction(diff, 2 * self.den * other.den)

    def __repr__(self) -> str:
        return "Belief(" + ", ".join(str(Fraction(n, self.den)) for n in self.nums) + ")"


def mixture(weights: Sequence[RationalLike], beliefs: Sequence[Belief]) -> Belief:
    """Pointwise convex combination of beliefs sharing one space.

    Each component's numerators are scaled onto the least common multiple of
    the products ``weight denominator x belief denominator``.
    """
    if len(weights) != len(beliefs):
        raise ValueError("one weight per belief required")
    if not beliefs:
        raise ValueError("empty mixture")
    ws = [frac(w) for w in weights]
    if any(w < 0 for w in ws):
        raise ValueError("negative mixture weight")
    if sum(ws) != 1:
        raise ValueError(f"mixture weights sum to {sum(ws)}, expected 1")
    space = beliefs[0].space
    for b in beliefs[1:]:
        if b.space != space:
            raise ValueError("mixture components live on different spaces")
    terms = [(w, b) for w, b in zip(ws, beliefs) if w]
    den = math.lcm(*(w.denominator * b.den for w, b in terms))
    nums = [0] * space.size
    for w, b in terms:
        scale = w.numerator * (den // (w.denominator * b.den))
        for f, n in enumerate(b.nums):
            if n:
                nums[f] += scale * n
    return Belief(space, tuple(nums), den)
