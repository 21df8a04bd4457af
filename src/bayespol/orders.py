"""Multivariate stochastic orders on finite grids.

Three event families define three orders: upper sets (multidimensional
stochastic dominance, the strongest), upper orthants, and upper projections
(coordinatewise dominance, the weakest).  Comparators report a full verdict
with witness events; a separate strong-coordinatewise check demands a strict
cdf gap at every interior point of every marginal.

Strictness convention: by default ``P strictly below Q`` means weak dominance
on every event of the family plus strict inequality on at least one event.
The alternative all-events convention is available via ``Strictness``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .core import Belief, RationalLike, StateSpace, StateSubset, frac

DEFAULT_UPPER_SET_CAP = 10**6
# Entries kept per cache, keyed by (space, family, cap).  A canonical basis
# holds one tuple of Fractions per event, so it keeps fewer.
_FAMILY_CACHE_SIZE = 64
_BASIS_CACHE_SIZE = 16
# Distinct verdicts kept per space.  A coordinatewise or orthant outcome is
# two witness masks and a flag, so on small grids a few dozen cover a sweep;
# upper-set witnesses are min cuts and can number far more.
_VERDICT_CACHE_SIZE = 4096


class CapExceededError(ValueError):
    """Upper-set enumeration would exceed the configured cap."""


class UpperFamilyKind(Enum):
    UPPER_SET = "st"
    UPPER_ORTHANT = "uo"
    UPPER_PROJECTION = "cw"


class Strictness(Enum):
    # strict dominance = weak dominance + strict inequality on >= 1 event
    ONE_EVENT = "one_event"
    # strict dominance = strict inequality on every event
    ALL_EVENTS = "all_events"


def _check_member(field: str, value: object, enum: type[Enum]) -> None:
    # Dispatch tests members by identity, so a bare value such as "st" would
    # fall through every test to the last branch.
    if not isinstance(value, enum):
        raise ValueError(f"{field} must be a member of {enum.__name__}, got {value!r}")


class Relation(Enum):
    STRICTLY_BELOW = "strictly_below"
    WEAKLY_BELOW = "weakly_below"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    WEAKLY_ABOVE = "weakly_above"
    STRICTLY_ABOVE = "strictly_above"


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one order comparison.

    ``witness`` is an event where strictness is achieved (for the Strictly*
    relations) or where the low-side inequality fails (for Incomparable);
    ``opposite_witness`` is only set for Incomparable and violates the other
    direction.  Equal means equal mass on every event of the family, which
    for the coordinatewise order is weaker than equality of distributions.
    """

    relation: Relation
    witness: Optional[StateSubset] = None
    opposite_witness: Optional[StateSubset] = None

    @property
    def weakly_below(self) -> bool:
        return self.relation in (
            Relation.STRICTLY_BELOW,
            Relation.WEAKLY_BELOW,
            Relation.EQUAL,
        )

    @property
    def strictly_below(self) -> bool:
        return self.relation is Relation.STRICTLY_BELOW


@dataclass(frozen=True)
class StrongCwVerdict:
    """Strong coordinatewise dominance check with a failure witness."""

    holds: bool
    axis: Optional[int] = None
    cut: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# Event enumeration
# ---------------------------------------------------------------------------


def _upper_set_masks(space: StateSpace, cap: int) -> tuple[int, ...]:
    """All upward-closed subsets as bitmasks, including 0 and the full mask.

    States are processed along a linear extension from the top of the grid
    down, so a state may join only once everything strictly above it is in.
    The walk is a depth-first search on an explicit stack, leaving a state
    out before putting it in, and raises once more than ``cap`` sets exist.
    Each branch carries the positions still open, as bits in that order:
    leaving a state out closes its down-cone, which can no longer join, and
    the next state to branch on is the lowest open position.  So every step
    branches, and the walk is output-sensitive: a few big-int operations per
    node of the search tree, whose leaves are the upper sets.
    """
    size = space.size
    states = space.states
    order = sorted(range(size), key=lambda f: -sum(states[f]))
    position = [0] * size
    for pos, f in enumerate(order):
        position[f] = pos
    down = space.down_cones
    # Per position, the positions of the states at or below it.
    closes = []
    for f in order:
        cone, bits = down[f], 0
        while cone:
            low = cone & -cone
            bits |= 1 << position[low.bit_length() - 1]
            cone ^= low
        closes.append(bits)
    state_bit = [1 << f for f in order]

    out: list[int] = []
    stack = [((1 << size) - 1, 0)]
    while stack:
        open_, mask = stack.pop()
        if not open_:
            if len(out) >= cap:
                raise CapExceededError(
                    f"more than {cap} upper sets on {space!r}; raise the cap"
                )
            out.append(mask)
            continue
        low = open_ & -open_
        pos = low.bit_length() - 1
        stack.append((open_ ^ low, mask | state_bit[pos]))
        stack.append((open_ & ~closes[pos], mask))
    return tuple(out)


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def _family_masks(
    space: StateSpace, kind: UpperFamilyKind, cap: int
) -> tuple[int, ...]:
    """Proper nonempty events of the family, as bitmasks.

    The upper orthants are the up-cones of every state but the bottom, listed
    by mask; the projections are listed axis-major.  Both orders are read
    from the space's ``orthant_events`` and ``projection_events`` tables,
    which ``_orthant_gaps`` scans for its witnesses.
    """
    if kind is UpperFamilyKind.UPPER_ORTHANT:
        return tuple([mask for _, mask in space.orthant_events])
    if kind is UpperFamilyKind.UPPER_PROJECTION:
        return tuple([mask for _, mask in space.projection_events])
    full = space.full_mask
    return tuple(m for m in _upper_set_masks(space, cap) if 0 < m < full)


def event_family(
    space: StateSpace,
    kind: UpperFamilyKind,
    cap: int = DEFAULT_UPPER_SET_CAP,
) -> tuple[StateSubset, ...]:
    """Proper nonempty events of the family, cached per space."""
    _check_member("kind", kind, UpperFamilyKind)
    return tuple(StateSubset(space, m) for m in _family_masks(space, kind, cap))


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------


def _check_shared_space(low: Belief, high: Belief) -> StateSpace:
    if low.space != high.space:
        raise ValueError("beliefs live on different spaces")
    return low.space


def _max_closure(up: Sequence[int], w: Sequence[int]) -> tuple[int, int]:
    """Maximum of w(U) over upper sets U, and the smallest U attaining it.

    Picard's reduction makes this a minimum cut; with the order taken
    transitively (``up[f]`` is the mask of states at or above ``f``) the flow
    is a transport: each state with w > 0 supplies w, each state with w < 0
    demands -w, and supply moves to demand at or above it.  States with
    w = 0 drop out.  A greedy fill, scarcest first, precedes shortest
    augmenting paths, found breadth-first and alternating between moving
    supply up and withdrawing an earlier shipment.  Once no augmenting path
    is left, the supply still unshipped is the maximum, and the states above
    the suppliers the last search reached form the source side of the cut:
    the smallest maximising upper set, as a mask.
    """
    supply: dict[int, int] = {}
    demand: dict[int, int] = {}
    unmet = 0  # demand states still short
    for f, x in enumerate(w):
        if x > 0:
            supply[f] = x
        elif x < 0:
            demand[f] = -x
            unmet |= 1 << f
    demand_mask = unmet
    shipped: dict[tuple[int, int], int] = {}  # (a, b) -> amount moved from a up to b

    # Greedy start: the highest suppliers have the fewest outlets, the lowest
    # demands the fewest suppliers, so each goes first.
    unspent = 0
    for a in reversed(supply):  # keys ascend
        left = supply[a]
        outlets = up[a] & unmet
        while outlets and left:
            bit = outlets & -outlets
            outlets ^= bit
            b = bit.bit_length() - 1
            need = demand[b]
            if need > left:
                shipped[a, b] = left
                demand[b] = need - left
                left = 0
                break
            shipped[a, b] = need
            demand[b] = 0
            unmet ^= bit
            left -= need
        supply[a] = left
        unspent += left
    if not unspent:
        return 0, 0
    feeders = dict.fromkeys(demand, 0)  # b -> mask of the a shipping to b
    for a, b in shipped:
        feeders[b] |= 1 << a

    while True:
        frontier = [a for a, left in supply.items() if left]
        reached = 0  # suppliers reached
        for a in frontier:
            reached |= 1 << a
        seen = 0  # demand states reached
        via_supplier: dict[int, int] = {}  # demand b -> supplier that reached it
        via_demand: dict[int, int] = {}  # supplier a -> demand b it was withdrawn from
        end = -1
        while frontier and end < 0:
            nxt = []
            for a in frontier:
                fresh = up[a] & demand_mask & ~seen
                if not fresh:
                    continue
                seen |= fresh
                short = fresh & unmet
                if short:
                    end = (short & -short).bit_length() - 1
                    via_supplier[end] = a
                    break
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    b = bit.bit_length() - 1
                    via_supplier[b] = a
                    back = feeders[b] & ~reached
                    reached |= back
                    while back:
                        lsb = back & -back
                        back ^= lsb
                        a2 = lsb.bit_length() - 1
                        via_demand[a2] = b
                        nxt.append(a2)
            frontier = nxt
        if end < 0:
            cut = 0
            while reached:
                lsb = reached & -reached
                reached ^= lsb
                cut |= up[lsb.bit_length() - 1]
            return sum(supply.values()), cut

        # Walk back from the short demand to an unspent supplier: ship along
        # each supplier -> demand step, withdraw along each demand -> supplier
        # step, by the bottleneck amount.
        steps = []
        amount = demand[end]
        b = end
        while True:
            a = via_supplier[b]
            steps.append((a, b, 1))
            if a not in via_demand:
                break
            b = via_demand[a]
            steps.append((a, b, -1))
            amount = min(amount, shipped[a, b])
        start = a
        amount = min(amount, supply[start])
        for a, b, sign in steps:
            x = shipped.get((a, b), 0) + sign * amount
            if x:
                shipped[a, b] = x
                feeders[b] |= 1 << a
            else:
                del shipped[a, b]
                feeders[b] &= ~(1 << a)
        supply[start] -= amount
        demand[end] -= amount
        if not demand[end]:
            unmet ^= 1 << end


def _orthant_gaps(
    space: StateSpace, kind: UpperFamilyKind, w: Sequence[int]
) -> tuple[Optional[int], Optional[int], bool]:
    """Witnesses and all-events flag as in ``_upper_set_gaps``, for upper
    orthants or projections.

    ``w`` holds integer gaps ``low·hden − high·lden``, one per state, for
    two mass vectors of integer numerators over ``lden`` and ``hden``; they
    need not be reduced, as only the sign of each event's gap counts.  The
    first witness is an event where the low side has more mass, the second
    one where it has less.  Each event is the up-cone of its corner state.
    Suffix sums of w along the cover edges, one axis at a time, give w(E)
    for every orthant E at its corner, so one table holds every gap.

    The witness is the first event with the gap in ``event_family``'s order,
    which the space's ``(corner, up-cone mask)`` table lists:
    ``space.orthant_events`` (by mask) or ``space.projection_events``
    (axis-major).  One pass over it stops once both witnesses are found;
    the flag is then ``False``, as the verdict no longer reads it.
    """
    sums = list(w)
    for f, g in space.cover_edges:
        sums[f] += sums[g]
    if kind is UpperFamilyKind.UPPER_ORTHANT:
        events = space.orthant_events
    else:
        events = space.projection_events
    low_gt = high_gt = None
    everywhere = True
    for f, mask in events:
        gap = sums[f]
        if gap > 0:
            if low_gt is None:
                low_gt = mask
                if high_gt is not None:
                    return low_gt, high_gt, False
        elif gap < 0:
            if high_gt is None:
                high_gt = mask
                if low_gt is not None:
                    return low_gt, high_gt, False
        else:
            everywhere = False
    return low_gt, high_gt, everywhere


def _upper_set_gaps(
    space: StateSpace, w: Sequence[int], one_event: bool
) -> tuple[Optional[int], Optional[int], bool]:
    """Upper-set witnesses of w(U) > 0 and of w(U) < 0 for the gaps w = low -
    high over a common denominator.

    Projection events are upper sets, so they are checked first and settle
    most incomparable pairs; each direction they leave open costs one
    ``_max_closure``.  The flag says whether the one direction with a gap has
    it on every proper nonempty upper set; it is computed only for the
    all-events convention.
    """
    up = space.up_cones
    low_gt, high_gt, _ = _orthant_gaps(space, UpperFamilyKind.UPPER_PROJECTION, w)
    if low_gt is not None and high_gt is not None:
        return low_gt, high_gt, False
    if low_gt is None:
        value, cut = _max_closure(up, w)
        if value > 0:
            low_gt = cut
    if high_gt is None:
        value, cut = _max_closure(up, [-x for x in w])
        if value > 0:
            high_gt = cut
    if one_event or (low_gt is None) == (high_gt is None):
        return low_gt, high_gt, False
    # The side with gaps has them everywhere iff no proper nonempty upper set
    # reaches 0.  Those sets are exactly the ones holding the top and missing
    # the bottom: the top's gap plus a closure of the states in between.
    gaps = w if high_gt is not None else [-x for x in w]
    inner = list(gaps)
    inner[0] = inner[-1] = 0
    return low_gt, high_gt, gaps[-1] + _max_closure(up, inner)[0] < 0


def compare(
    low: Belief,
    high: Belief,
    kind: UpperFamilyKind,
    strictness: Strictness = Strictness.ONE_EVENT,
) -> DominanceVerdict:
    """Compare two beliefs on every event of the family.

    Trivial events never distinguish distributions, so only proper nonempty
    events are consulted.  Upper sets are decided by minimum cuts, without
    enumerating them; the other two families are read from one table of
    orthant sums.
    """
    _check_member("kind", kind, UpperFamilyKind)
    _check_member("strictness", strictness, Strictness)
    space = _check_shared_space(low, high)
    lden, hden = low.den, high.den
    w = [a * hden - b * lden for a, b in zip(low.nums, high.nums)]
    return _verdict_from_gaps(space, kind, w, strictness)


def _verdict_from_gaps(
    space: StateSpace, kind: UpperFamilyKind, w: list[int], strictness: Strictness
) -> DominanceVerdict:
    """``compare``'s verdict from its integer gaps ``w = low·hden − high·lden``.

    Only the sign of each event's sum of ``w`` counts, so any positive
    multiple of the gaps gives the same relation and the same witnesses.
    A verdict is a function of its witness masks and its strictness alone,
    so each distinct outcome's verdict is built once per space, kept on the
    space, and shared after that: verdicts and their witnesses are frozen.
    Past ``_VERDICT_CACHE_SIZE`` outcomes on one space, new ones are built
    and not kept.
    """
    one_event = strictness is Strictness.ONE_EVENT
    if kind is UpperFamilyKind.UPPER_SET:
        low_gt, high_gt, everywhere = _upper_set_gaps(space, w, one_event)
    else:
        low_gt, high_gt, everywhere = _orthant_gaps(space, kind, w)
    key = (low_gt, high_gt, one_event or everywhere)
    verdicts = space._verdicts
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = _build_verdict(space, *key)
        if len(verdicts) < _VERDICT_CACHE_SIZE:
            verdicts[key] = verdict
    return verdict


def _build_verdict(
    space: StateSpace, low_gt: Optional[int], high_gt: Optional[int], strict: bool
) -> DominanceVerdict:
    """The verdict for the witness masks ``_verdict_from_gaps`` found; with
    one side's gap alone, ``strict`` picks strictly over weakly."""
    if low_gt is not None and high_gt is not None:
        return DominanceVerdict(
            Relation.INCOMPARABLE,
            StateSubset(space, low_gt),
            StateSubset(space, high_gt),
        )
    if low_gt is None and high_gt is None:
        return DominanceVerdict(Relation.EQUAL)
    if high_gt is not None:
        return DominanceVerdict(
            Relation.STRICTLY_BELOW if strict else Relation.WEAKLY_BELOW,
            StateSubset(space, high_gt),
        )
    return DominanceVerdict(
        Relation.STRICTLY_ABOVE if strict else Relation.WEAKLY_ABOVE,
        StateSubset(space, low_gt),
    )


def _cdf_failure(
    space: StateSpace,
    a_nums: Sequence[int],
    a_den: int,
    b_nums: Sequence[int],
    b_den: int,
    strict: bool = True,
) -> Optional[tuple[int, int]]:
    """First ``(axis, cut)``, axis-major, where a's marginal cdf fails to
    exceed b's, strictly or (``strict=False``) weakly; ``None`` if it never
    fails.  The masses are integer numerators over ``a_den`` and ``b_den``;
    they need not be reduced.  ``strict`` selects ``<=`` or ``<`` in place:
    the strong sampler calls this on every rejected draw, and folding it
    into the gap (``gap < strict``) measured 2–3% slower per draw on 2x3 and
    3x3 under CPython 3.11.  Each cdf is one sum through the space's
    ``cdf_cuts`` getter.
    """
    for axis, cut, get in space.cdf_cuts:
        ac = sum(get(a_nums))
        bc = sum(get(b_nums))
        if (ac * b_den <= bc * a_den) if strict else (ac * b_den < bc * a_den):
            return axis, cut
    return None


def compare_strong_cw(low: Belief, high: Belief) -> StrongCwVerdict:
    """Strict marginal-cdf gap at every interior point of every axis."""
    space = _check_shared_space(low, high)
    failure = _cdf_failure(space, low.nums, low.den, high.nums, high.den)
    if failure is None:
        return StrongCwVerdict(True)
    return StrongCwVerdict(False, *failure)


# ---------------------------------------------------------------------------
# Generating-function machinery
# ---------------------------------------------------------------------------


def is_increasing(space: StateSpace, values: Sequence[Fraction]) -> bool:
    """Monotone with respect to the coordinatewise order on states."""
    if len(values) != space.size:
        raise ValueError("value vector length mismatch")
    return all(values[f] <= values[g] for f, g in space.cover_edges)


def additive_parts(
    space: StateSpace, values: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Exact decomposition u(s) = sum_i u_i(s_i), or None if there is none.

    The constant is folded into the first component.
    """
    if len(values) != space.size:
        raise ValueError("value vector length mismatch")
    base = values[space.flat(space.bottom)]
    parts = []
    for axis in range(space.ndim):
        column = []
        for t in range(space.shape[axis]):
            probe = list(space.bottom)
            probe[axis] = t
            column.append(values[space.flat(tuple(probe))] - base)
        parts.append(tuple(column))
    for f, state in enumerate(space.states):
        rebuilt = base + sum(parts[i][state[i]] for i in range(space.ndim))
        if rebuilt != values[f]:
            return None
    first = tuple(v + base for v in parts[0])
    return (first,) + tuple(parts[1:])


def product_parts(
    space: StateSpace, values: Sequence[Fraction]
) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Exact factorization u(s) = prod_i u_i(s_i) with u_i >= 0 increasing."""
    if len(values) != space.size:
        raise ValueError("value vector length mismatch")
    vals = [frac(v) for v in values]
    if any(v < 0 for v in vals):
        return None
    top_value = vals[space.flat(space.top)]
    if top_value == 0:
        # nonnegative increasing with zero at the top means identically zero
        if any(v != 0 for v in vals):
            return None
        return tuple((Fraction(0),) * n for n in space.shape)
    factors = []
    for axis in range(space.ndim):
        column = []
        for t in range(space.shape[axis]):
            probe = list(space.top)
            probe[axis] = t
            column.append(vals[space.flat(tuple(probe))])
        if any(column[i] > column[i + 1] for i in range(len(column) - 1)):
            return None
        factors.append(tuple(column))
    scale = top_value ** (space.ndim - 1)
    for f, state in enumerate(space.states):
        prod = Fraction(1)
        for i in range(space.ndim):
            prod *= factors[i][state[i]]
        if vals[f] * scale != prod:
            return None
    normalized = [factors[0]] + [
        tuple(v / top_value for v in col) for col in factors[1:]
    ]
    return tuple(normalized)


def in_generating_class(
    space: StateSpace, values: Sequence[Fraction], kind: UpperFamilyKind
) -> bool:
    _check_member("kind", kind, UpperFamilyKind)
    vals = [frac(v) for v in values]
    if kind is UpperFamilyKind.UPPER_SET:
        return is_increasing(space, vals)
    if kind is UpperFamilyKind.UPPER_ORTHANT:
        return product_parts(space, vals) is not None
    return additive_parts(space, vals) is not None and is_increasing(space, vals)


def _indicator(space: StateSpace, mask: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(1) if mask >> f & 1 else Fraction(0) for f in range(space.size)
    )


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def canonical_basis(
    space: StateSpace,
    kind: UpperFamilyKind,
    cap: int = DEFAULT_UPPER_SET_CAP,
) -> tuple[tuple[Fraction, ...], ...]:
    """Finite indicator basis whose expectation test reproduces ``compare``.

    Upper sets: indicators of upper sets.  Upper orthants: indicators of
    orthants (products of per-axis upper-interval indicators).  Coordinatewise:
    per-axis upper-interval indicators plus all their pairwise sums.
    """
    _check_member("kind", kind, UpperFamilyKind)
    if kind is not UpperFamilyKind.UPPER_PROJECTION:
        return tuple(
            _indicator(space, m) for m in _family_masks(space, kind, cap)
        )
    singles = [_indicator(space, m)
               for m in _family_masks(space, kind, cap)]
    sums = [
        tuple(a + b for a, b in zip(u, v))
        for i, u in enumerate(singles)
        for v in singles[i + 1:]
    ]
    return tuple(singles) + tuple(sums)


def _generating_basis(
    space: StateSpace,
    kind: UpperFamilyKind,
    basis: Optional[Sequence[Sequence[RationalLike]]] = None,
    cap: int = DEFAULT_UPPER_SET_CAP,
) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical basis, or the given functions checked against the order's
    generating class and coerced to exact rationals."""
    if basis is None:
        return canonical_basis(space, kind, cap)
    funcs = tuple(tuple(frac(v) for v in u) for u in basis)
    for u in funcs:
        if not in_generating_class(space, u, kind):
            raise ValueError(
                f"basis function {u} is not in the generating class for {kind.value}"
            )
    return funcs


def compare_by_generators(
    low: Belief,
    high: Belief,
    kind: UpperFamilyKind,
    basis: Optional[Sequence[Sequence[RationalLike]]] = None,
    cap: int = DEFAULT_UPPER_SET_CAP,
) -> bool:
    """True iff E_low[u] <= E_high[u] for every basis function.

    With the canonical basis this equals weak dominance under ``compare``.
    Basis functions must belong to the order's generating class.
    """
    _check_member("kind", kind, UpperFamilyKind)
    space = _check_shared_space(low, high)
    for u in _generating_basis(space, kind, basis, cap):
        if low.expectation(u) > high.expectation(u):
            return False
    return True
