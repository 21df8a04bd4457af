"""Output checks computed from the definitions, independent of bayespol's comparators.

Every check works on index tuples and exact integers: an event's mass is a
brute-force sum of state masses, family membership is tested against the
definition of each event family, and strong coordinatewise dominance is
recomputed from the marginal cdfs.  A check returns ``None`` when the output
is valid and a one-line description of the problem otherwise, so a different
but valid witness still passes.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

ST, UO, CW = "st", "uo", "cw"

# Upper sets are enumerated by brute force over all subsets, so only on grids
# this small; on larger grids only the witnesses of an upper-set verdict are
# checked.
ST_BRUTE_FORCE_MAX_STATES = 12

State = tuple[int, ...]


@lru_cache(maxsize=None)
def grid_states(shape: tuple[int, ...]) -> tuple[State, ...]:
    """Row-major states, last axis fastest."""
    return tuple(product(*(range(n) for n in shape)))


def flat_index(shape: Sequence[int], state: State) -> int:
    f = 0
    for i, n in zip(state, shape):
        f = f * n + i
    return f


def states_of_mask(shape: tuple[int, ...], mask: int) -> tuple[State, ...]:
    return tuple(s for f, s in enumerate(grid_states(shape)) if mask >> f & 1)


def _successors(shape: tuple[int, ...], state: State):
    for axis, n in enumerate(shape):
        if state[axis] + 1 < n:
            yield state[:axis] + (state[axis] + 1,) + state[axis + 1:]


def in_family(kind: str, shape: tuple[int, ...], event: frozenset) -> bool:
    """Whether ``event`` is a proper nonempty event of the order's family."""
    if not 0 < len(event) < len(grid_states(shape)):
        return False
    if kind == ST:
        return all(t in event for s in event for t in _successors(shape, s))
    if kind == UO:
        corner = tuple(min(s[i] for s in event) for i in range(len(shape)))
        return event == frozenset(
            s for s in grid_states(shape) if all(x >= c for x, c in zip(s, corner))
        )
    for axis in range(len(shape)):
        cut = min(s[axis] for s in event)
        if cut > 0 and event == frozenset(
            s for s in grid_states(shape) if s[axis] >= cut
        ):
            return True
    return False


@lru_cache(maxsize=None)
def family_flats(kind: str, shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every proper nonempty event of the family, as flat-index tuples."""
    states = grid_states(shape)
    if kind == CW:
        events = {
            frozenset(s for s in states if s[axis] >= cut)
            for axis, n in enumerate(shape)
            for cut in range(1, n)
        }
    elif kind == UO:
        events = {
            frozenset(s for s in states if all(x >= c for x, c in zip(s, corner)))
            for corner in product(*(range(n) for n in shape))
        }
    else:
        if len(states) > ST_BRUTE_FORCE_MAX_STATES:
            raise ValueError(f"no brute-force upper sets on {shape}")
        events = set()
        for mask in range(1 << len(states)):
            event = frozenset(states_of_mask(shape, mask))
            if in_family(ST, shape, event):
                events.add(event)
    proper = (e for e in events if 0 < len(e) < len(states))
    return tuple(
        sorted(tuple(sorted(flat_index(shape, s) for s in e)) for e in proper)
    )


def _cross(low, high, flats) -> int:
    """Sign of high(E) - low(E), by cross-multiplied brute-force sums."""
    a = sum(low.nums[f] for f in flats) * high.den
    b = sum(high.nums[f] for f in flats) * low.den
    return (b > a) - (b < a)


def relation(kind: str, low, high) -> str:
    """The relation value ``compare`` must report, from the definitions."""
    signs = {_cross(low, high, fl) for fl in family_flats(kind, low.space.shape)}
    above, below = -1 in signs, 1 in signs
    if above and below:
        return "incomparable"
    if below:
        return "strictly_below"
    return "strictly_above" if above else "equal"


def _event(shape, subset) -> tuple[frozenset, tuple[int, ...]]:
    states = frozenset(tuple(s) for s in subset.states())
    return states, tuple(flat_index(shape, s) for s in states)


def check_verdict(kind: str, low, high, verdict, full: bool) -> Optional[str]:
    """Validate a DominanceVerdict's witnesses, and with ``full`` its relation."""
    shape = low.space.shape
    rel = verdict.relation.value
    expected = {
        "strictly_below": [("witness", 1)],
        "strictly_above": [("witness", -1)],
        "incomparable": [("witness", -1), ("opposite_witness", 1)],
    }.get(rel, [])
    for field, sign in expected:
        subset = getattr(verdict, field)
        if subset is None:
            return f"{kind} {rel}: missing {field}"
        event, flats = _event(shape, subset)
        if not in_family(kind, shape, event):
            return f"{kind} {rel}: {field} is not in the {kind} family"
        if _cross(low, high, flats) != sign:
            return f"{kind} {rel}: {field} has the wrong mass inequality"
    if rel == "equal" and kind == ST and any(
        _cross(low, high, (f,)) for f in range(len(low.nums))
    ):
        # upper sets determine the distribution, so only identical ones are equal
        return "st equal: the distributions differ"
    if full and relation(kind, low, high) != rel:
        return f"{kind}: reported {rel}, definitions give {relation(kind, low, high)}"
    return None


def strong_cw(low, high) -> Optional[tuple[int, int]]:
    """First (axis, cut) where the marginal cdf gap is not strict, or None."""
    shape = low.space.shape
    states = grid_states(shape)
    for axis, n in enumerate(shape):
        for cut in range(n - 1):
            below = [f for f, s in enumerate(states) if s[axis] <= cut]
            if _cross(low, high, below) >= 0:
                return axis, cut
    return None


def check_strong(low, high, verdict) -> Optional[str]:
    failure = strong_cw(low, high)
    if verdict.holds != (failure is None):
        return f"strong cw: reported {verdict.holds}, definitions give {failure is None}"
    if failure is not None:
        shape = low.space.shape
        if not (0 <= verdict.axis < len(shape) and 0 <= verdict.cut < shape[verdict.axis] - 1):
            return "strong cw: failure witness out of range"
        below = [
            f for f, s in enumerate(grid_states(shape)) if s[verdict.axis] <= verdict.cut
        ]
        if _cross(low, high, below) < 0:
            return "strong cw: failure witness has a strict gap"
    return None


def posterior(prior, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Posterior masses proportional to prior times per-state evidence weights."""
    joint = [Fraction(n, prior.den) * w for n, w in zip(prior.nums, weights)]
    total = sum(joint)
    return tuple(j / total for j in joint)


def check_polarization(kind: str, report, prior_low, prior_high, weights) -> Optional[str]:
    """The whole polarization chain of a positive report, from the definitions.

    ``weights`` is the likelihood (one-shot) or the identified set's indicator
    (limit) as per-state values.
    """
    if not report.verdict:
        return "polarization report is negative"
    for prior, post, side in (
        (prior_low, report.posterior_low, "low"),
        (prior_high, report.posterior_high, "high"),
    ):
        if posterior(prior, weights) != tuple(post.masses()):
            return f"{side} posterior differs from prior times evidence"
    links = (
        ("low_drop", report.posterior_low, prior_low, report.low_drop),
        ("high_rise", prior_high, report.posterior_high, report.high_rise),
    )
    if not report.strong_middle:
        links += (("prior_gap", prior_low, prior_high, report.prior_gap),)
    elif check_strong(prior_low, prior_high, report.prior_gap) or not report.prior_gap.holds:
        return "prior_gap: not strongly coordinatewise ordered"
    full = kind != ST or len(prior_low.nums) <= ST_BRUTE_FORCE_MAX_STATES
    for name, a, b, verdict in links:
        if verdict.relation.value != "strictly_below":
            return f"{name}: reported {verdict.relation.value}"
        problem = check_verdict(kind, a, b, verdict, full)
        if problem:
            return f"{name}: {problem}"
    return None
