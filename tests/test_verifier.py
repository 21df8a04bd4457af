import hashlib
import json
import math
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

import bayespol.actions as actions_module
import bayespol.verifier as verifier_module
from bayespol import (
    Belief,
    LikelihoodFn,
    Mode,
    StateSpace,
    SweepConfig,
    UpperFamilyKind,
    UtilityFamilyKind,
    direction_analysis,
    direction_consistency_sweep,
    family_polarization_search,
    opposite_direction_witness,
    sweep,
)

from bayespol.verifier import (
    EXHAUSTIVE_TRIAL_BUDGET,
    _compositions,
    _draw_weights,
    _random_likelihood,
    _random_strong_pair,
)

from conftest import DIAGONAL, GRID_2X2, GRID_2X3, GRID_3X3, strong_cw_failure_by_state_loop

ST = UpperFamilyKind.UPPER_SET
UO = UpperFamilyKind.UPPER_ORTHANT
CW = UpperFamilyKind.UPPER_PROJECTION
PRODUCTS = UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING
INCREASING = UtilityFamilyKind.INCREASING


def test_sweep_reports_are_reproducible_bit_exactly():
    config = SweepConfig(CW, Mode.LIMIT, (2, 2), trials=400, seed=42)
    first = sweep(config)
    second = sweep(config)
    assert first.trials_run == second.trials_run
    assert first.counterexamples == second.counterexamples


def test_different_seeds_explore_different_instances():
    a = sweep(SweepConfig(CW, Mode.LIMIT, (2, 2), trials=400, seed=1))
    b = sweep(SweepConfig(CW, Mode.LIMIT, (2, 2), trials=400, seed=2))
    assert {h.report.prior_low for h in a.counterexamples} != {
        h.report.prior_low for h in b.counterexamples
    }


def test_exhaustive_cw_limit_hits_only_the_diagonal():
    config = SweepConfig(CW, Mode.LIMIT, (2, 2), denominator_bound=6)
    report = sweep(config)
    assert report.found_any
    assert {hit.report.identified_set.mask for hit in report.counterexamples} == {DIAGONAL.mask}
    # 10 full-support priors with denominator 6, squared, times 14 subsets
    assert report.trials_run == 10 * 10 * 14


def test_exhaustive_st_one_shot_finds_nothing():
    config = SweepConfig(ST, Mode.ONE_SHOT, (2, 2), denominator_bound=4)
    report = sweep(config)
    assert not report.found_any
    assert report.trials_run == 1 * 1 * 80  # one D=4 full-support prior... see note
    # denominator 4 over 4 states forces the uniform prior; 80 = 3^4 - 1 grids


def test_random_impossible_cells_find_nothing():
    for kind, mode, dims in (
        (ST, Mode.ONE_SHOT, (2, 3)),
        (UO, Mode.LIMIT, (2, 2)),
        (UO, Mode.LIMIT, (3, 3)),
    ):
        report = sweep(SweepConfig(kind, mode, dims, trials=1500, seed=7))
        assert not report.found_any, (kind, mode, dims)


def test_counterexample_payloads_replay():
    config = SweepConfig(CW, Mode.LIMIT, (2, 2), trials=800, seed=11)
    report = sweep(config)
    assert report.found_any
    for hit in report.counterexamples:
        assert hit.replay().verdict
        assert hit.replay() == hit.report


@pytest.mark.parametrize(
    "kind,mode",
    [(CW, Mode.ONE_SHOT), (ST, Mode.LIMIT), (UO, Mode.LIMIT)],
    ids=["cw-oneshot", "st-limit", "uo-limit"],
)
def test_strong_outside_the_coordinatewise_limit_cell_is_refused(kind, mode):
    # the strong middle link is defined for the coordinatewise limit cell only
    with pytest.raises(ValueError, match="^strong "):
        SweepConfig(kind, mode, (2, 2), trials=50, strong=True)


@pytest.mark.parametrize("strong", ["no", 0, 1, None])
def test_strong_must_be_a_bool(strong):
    with pytest.raises(ValueError, match="^strong must be a bool"):
        SweepConfig(CW, Mode.LIMIT, (2, 2), trials=5, strong=strong)


def test_strong_sweep_respects_the_pinned_set():
    config = SweepConfig(
        CW,
        Mode.LIMIT,
        (2, 2),
        trials=300,
        seed=3,
        strong=True,
        identified_set=((0, 1), (1, 0)),
    )
    report = sweep(config)
    assert report.trials_run == 300
    assert not report.found_any


def test_strong_sweep_on_the_diagonal_can_succeed():
    config = SweepConfig(
        CW, Mode.LIMIT, (2, 2), trials=300, seed=3, strong=True,
        identified_set=((0, 0), (1, 1)),
    )
    report = sweep(config)
    assert report.found_any
    for hit in report.counterexamples:
        assert hit.report.strong_middle


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(CW, Mode.LIMIT, (2, 2), trials=0)
    with pytest.raises(ValueError, match="trials"):
        SweepConfig(CW, Mode.LIMIT, (2, 2), trials=-1)
    # 3 is below the 4 states of 2x2: no full-support prior, so no trial
    with pytest.raises(ValueError, match="denominator_bound"):
        SweepConfig(CW, Mode.LIMIT, (2, 2), denominator_bound=3)
    # one-shot trials draw likelihoods, never an evidence set
    with pytest.raises(ValueError, match="identified_set"):
        SweepConfig(CW, Mode.ONE_SHOT, (2, 2), identified_set=((1, 1),))
    # the sampling fields, which used to fail only at the first trial
    for bound in (0, -3):
        with pytest.raises(ValueError, match="mass_bound"):
            SweepConfig(CW, Mode.LIMIT, (2, 2), mass_bound=bound)
    for levels in ((), (F(0), F(3, 2)), (F(-1, 2),), (0.5,)):
        with pytest.raises(ValueError, match="likelihood_levels"):
            SweepConfig(CW, Mode.ONE_SHOT, (2, 2), likelihood_levels=levels)
    # exhaustive one-shot evidence skips the all-zero likelihood: no trial
    with pytest.raises(ValueError, match="likelihood_levels"):
        SweepConfig(CW, Mode.ONE_SHOT, (2, 2), denominator_bound=4, likelihood_levels=(0,))
    assert SweepConfig(CW, Mode.ONE_SHOT, (2, 2), likelihood_levels=(0, "1/3", 1))
    with pytest.raises(ValueError, match="mass_bound"):
        family_polarization_search(PRODUCTS, Mode.LIMIT, GRID_2X2, trials=5, mass_bound=0)


# (field, value, the name the error gives)
NON_INTEGER_FIELDS = [
    ("trials", True, "trials"),
    ("trials", 10.0, "trials"),
    ("seed", 1.5, "seed"),
    ("seed", False, "seed"),
    ("seed", "3", "seed"),
    ("mass_bound", True, "mass_bound"),
    ("mass_bound", 12.0, "mass_bound"),
    ("denominator_bound", 6.0, "denominator_bound"),
    ("denominator_bound", True, "denominator_bound"),
    ("dims", (2.0, 2), "dims[0]"),
    ("dims", (2, True), "dims[1]"),
    ("dims", (1, 2), "dims[0]"),
    ("dims", (), "dims"),
    ("dims", [2, 2], "dims"),
]


@pytest.mark.parametrize(
    "field,value,named", NON_INTEGER_FIELDS, ids=[f"{f}={v!r}" for f, v, _ in NON_INTEGER_FIELDS]
)
def test_integer_fields_refuse_other_types_by_name(field, value, named):
    # trials=True used to run one trial, seed=1.5 to seed "1.5:t", and
    # dims=(2.0, 2) to fail only at the first trial with a bare TypeError
    fields = {"kind": CW, "mode": Mode.LIMIT, "dims": (2, 2), field: value}
    with pytest.raises(ValueError, match=re.escape(named)):
        SweepConfig(**fields)


@pytest.mark.parametrize(
    "pinned,message",
    [
        (((5, 5),), "identified_set: state (5, 5) out of bounds"),
        (((0, 0), (1, 2)), "identified_set: state (1, 2) out of bounds"),
        ((), "identified_set is empty"),
        (
            ((1,),),
            "identified_set: state (1,) has length 1, but shape (2, 2) has 2 axes",
        ),
    ],
)
def test_a_pinned_identified_set_is_checked_when_the_config_is_made(pinned, message):
    # both used to fail only at the sweep's first trial, without the field name
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepConfig(CW, Mode.LIMIT, (2, 2), identified_set=pinned)


def test_likelihood_levels_refuse_booleans():
    for levels in ((False, True), (0, True), (F(1, 2), False)):
        with pytest.raises(ValueError, match="likelihood_levels.*bool"):
            SweepConfig(CW, Mode.ONE_SHOT, (2, 2), likelihood_levels=levels)


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(CW, Mode.LIMIT, (2, 2), denominator_bound=6),
        SweepConfig(ST, Mode.ONE_SHOT, (2, 2), denominator_bound=5),
        SweepConfig(
            UO, Mode.ONE_SHOT, (2, 2), denominator_bound=4, likelihood_levels=(0, 0, "1/2")
        ),
        SweepConfig(CW, Mode.LIMIT, (2, 3), denominator_bound=7, identified_set=((0, 0),)),
        SweepConfig(ST, Mode.ONE_SHOT, (4,), denominator_bound=5),
    ],
    ids=["limit", "oneshot", "oneshot-zero-levels", "pinned", "flat"],
)
def test_exhaustive_trial_count_is_the_planned_count(config):
    assert sweep(config).trials_run == config.exhaustive_trials()


def test_exhaustive_sweeps_over_budget_are_refused_up_front():
    # 3x3 over denominator 30: C(29, 8)^2 prior pairs times 2^9 - 2 subsets
    planned = math.comb(29, 8) ** 2 * 510
    assert planned > EXHAUSTIVE_TRIAL_BUDGET
    with pytest.raises(ValueError, match=f"denominator_bound 30 .* {planned:,} "):
        SweepConfig(CW, Mode.LIMIT, (3, 3), denominator_bound=30)
    # the same grid pinned to one set: C(29, 8)^2 trials, still over budget
    with pytest.raises(ValueError, match=f"{math.comb(29, 8) ** 2:,}"):
        SweepConfig(CW, Mode.LIMIT, (3, 3), denominator_bound=30, identified_set=((0, 0),))
    # AC5's exhaustive sweep, the largest in the tests and the benchmark, fits
    assert SweepConfig(ST, Mode.ONE_SHOT, (2, 2), denominator_bound=6).exhaustive_trials() == 8000


# -- samplers against the slow paths they replaced -------------------------------


def test_draw_weights_is_randint_draw_for_draw():
    # powers of two included: there half the bit draws are rejected
    for bound in range(1, 41):
        for seed in range(8):
            fast, slow = random.Random(f"{seed}:{bound}"), random.Random(f"{seed}:{bound}")
            assert _draw_weights(fast, 9, bound) == [slow.randint(1, bound) for _ in range(9)]
            assert fast.getstate() == slow.getstate()


def _strong_pair_by_old_loop(rng, space, bound):
    """Beliefs for every draw, both directions through the state-loop cdfs."""
    while True:
        a = Belief.from_weights(space, [rng.randint(1, bound) for _ in range(space.size)])
        b = Belief.from_weights(space, [rng.randint(1, bound) for _ in range(space.size)])
        if strong_cw_failure_by_state_loop(a, b) is None:
            return a, b
        if strong_cw_failure_by_state_loop(b, a) is None:
            return b, a


@pytest.mark.parametrize("space", [GRID_2X3, GRID_3X3], ids=["2x3", "3x3"])
def test_strong_pairs_match_the_old_rejection_loop(space):
    for seed in range(3000):
        fast, slow = random.Random(f"{seed}:0"), random.Random(f"{seed}:0")
        assert _random_strong_pair(fast, space, 12) == _strong_pair_by_old_loop(slow, space, 12)
        assert fast.getstate() == slow.getstate()


def _likelihood_by_fractions(rng, space, levels):
    values = [levels[rng.randrange(len(levels))] for _ in range(space.size)]
    if all(v == 0 for v in values):
        values[rng.randrange(space.size)] = F(1)
    return LikelihoodFn.from_fractions(space, values)


_LEVELS = {
    "default": (F(0), F(1, 2), F(1)),
    "zero": (F(0),),
    "thirds-quarters": (F(0), F(1, 3), F(3, 4)),
    "one-level": (F(2, 5),),
    # every level count up to 12, including powers of two, where half the
    # bit draws are rejected; level 0 reaches the all-zero fallback draw too
    **{f"{n}-levels": tuple(F(k, n) for k in range(n)) for n in range(2, 13)},
}


@pytest.mark.parametrize("levels", list(_LEVELS.values()), ids=list(_LEVELS))
def test_random_likelihood_matches_the_fraction_path(levels):
    for space in (GRID_2X2, GRID_3X3):
        for seed in range(300):
            fast, slow = random.Random(seed), random.Random(seed)
            assert _random_likelihood(fast, space, levels) == _likelihood_by_fractions(
                slow, space, levels
            )
            assert fast.getstate() == slow.getstate()


def test_a_config_shares_its_grid():
    config = SweepConfig(CW, Mode.LIMIT, (2, 3))
    assert config.space is config.space is StateSpace.grid(2, 3)


def test_compositions_are_every_positive_vector_in_lexicographic_order():
    for total in range(1, 9):
        for parts in range(1, 5):
            expected = sorted(
                v for v in product(range(1, total + 1), repeat=parts) if sum(v) == total
            )
            assert list(_compositions(total, parts)) == expected


# -- direction sweep -----------------------------------------------------------


def test_direction_sweep_runs_clean_on_grids_and_flat_sets():
    for dims in ((2, 2), (5,), (6,)):
        config = SweepConfig(ST, Mode.ONE_SHOT, dims, trials=1500, seed=13)
        report = direction_consistency_sweep(config)
        assert report.violations == ()
        assert report.trials_run == 1500


def test_direction_sweep_rejects_fields_it_would_ignore():
    with pytest.raises(ValueError, match="mode"):
        direction_consistency_sweep(SweepConfig(ST, Mode.LIMIT, (2, 2), trials=10))
    with pytest.raises(ValueError, match="mode"):
        direction_consistency_sweep(
            SweepConfig(ST, Mode.LIMIT, (2, 2), trials=10, identified_set=((1, 1),))
        )
    with pytest.raises(ValueError, match="strong"):
        direction_consistency_sweep(
            SweepConfig(ST, Mode.ONE_SHOT, (2, 2), trials=10, strong=True)
        )


def test_exhaustive_direction_sweep_runs_the_grid():
    report = direction_consistency_sweep(
        SweepConfig(ST, Mode.ONE_SHOT, (4,), denominator_bound=5)
    )
    # 4 full-support priors with denominator 5, squared, times 3^4 - 1 grids,
    # of which the two nonzero constant ones are skipped
    assert report.trials_run == 4 * 4 * 80
    assert report.skipped_constant == 4 * 4 * 2
    assert report.violations == ()


def test_direction_sweep_skips_constant_likelihoods():
    config = SweepConfig(
        ST, Mode.ONE_SHOT, (2, 2), trials=600, seed=1,
        likelihood_levels=(F(1, 2), F(1, 2), F(1)),
    )
    report = direction_consistency_sweep(config)
    assert report.skipped_constant > 0


def test_opposite_direction_witness_splits_all_middle_states():
    space = StateSpace.grid(7)
    p, p_other, ell = opposite_direction_witness(space)
    outcome = direction_analysis(p, p_other, ell)
    assert outcome.consistent
    for f in range(1, space.size - 1):
        assert outcome.table.low_signs[f] == -1
        assert outcome.table.high_signs[f] == 1
    # extremes move together
    assert outcome.table.low_signs[0] == outcome.table.high_signs[0] == -1
    assert outcome.table.low_signs[-1] == outcome.table.high_signs[-1] == 1


# -- pinned trial streams --------------------------------------------------------


def _draw_key(obj):
    """Beliefs and likelihoods by their integer weights, subsets by mask."""
    mask = getattr(obj, "mask", None)
    return mask if mask is not None else [list(obj.nums), obj.den]


def _sweep_case(config):
    def run():
        report = sweep(config)
        return report.trials_run, [
            [_draw_key(h.report.prior_low), _draw_key(h.report.prior_high)]
            for h in report.counterexamples
        ]

    return run


def _direction_case(config):
    def run():
        report = direction_consistency_sweep(config)
        return [report.trials_run, report.skipped_constant], [
            [_draw_key(v.prior), _draw_key(v.prior_other)] for v in report.violations
        ]

    return run


def _family_case(family, mode):
    def run():
        outcome = family_polarization_search(family, mode, GRID_2X2, trials=200, seed=77)
        return outcome.sweep.trials, [
            [_draw_key(h["prior_low"]), _draw_key(h["prior_high"])]
            for h in outcome.sweep.hits
        ]

    return run


_STREAM_CASES = {
    "st-oneshot-2x3": (
        _sweep_case(SweepConfig(ST, Mode.ONE_SHOT, (2, 3), trials=200, seed=101)),
        "c0fa03ff13d50ed4",
    ),
    "cw-oneshot-2x2": (
        _sweep_case(SweepConfig(CW, Mode.ONE_SHOT, (2, 2), trials=200, seed=5)),
        "e9c271e654304145",
    ),
    "uo-limit-3x3": (
        _sweep_case(SweepConfig(UO, Mode.LIMIT, (3, 3), trials=200, seed=202)),
        "ed26103bceef3386",
    ),
    "cw-limit-2x2": (
        _sweep_case(SweepConfig(CW, Mode.LIMIT, (2, 2), trials=200, seed=42)),
        "ed62cc0f5ba43da1",
    ),
    "cw-strong-pinned-2x2": (
        _sweep_case(
            SweepConfig(
                CW, Mode.LIMIT, (2, 2), trials=200, seed=3, strong=True,
                identified_set=((0, 0), (1, 1)),
            )
        ),
        "eecf47e22661ab9e",
    ),
    "cw-strong-2x3": (
        _sweep_case(
            SweepConfig(CW, Mode.LIMIT, (2, 3), trials=200, seed=9, strong=True)
        ),
        "b179cf524676945a",
    ),
    "cw-pinned-2x2": (
        _sweep_case(
            SweepConfig(
                CW, Mode.LIMIT, (2, 2), trials=200, seed=4,
                identified_set=((0, 1), (1, 0)),
            )
        ),
        "0b28ce69c23a7a0c",
    ),
    "cw-exhaustive-2x2": (
        _sweep_case(SweepConfig(CW, Mode.LIMIT, (2, 2), denominator_bound=5)),
        "677939156de3467e",
    ),
    "cw-exhaustive-strong-2x2": (
        _sweep_case(
            SweepConfig(
                CW, Mode.LIMIT, (2, 2), denominator_bound=6, strong=True,
                identified_set=((0, 0), (1, 1)),
            )
        ),
        "2667703c8b279bc5",
    ),
    "direction-2x2": (
        _direction_case(SweepConfig(ST, Mode.ONE_SHOT, (2, 2), trials=200, seed=1)),
        "3a282c5e498d1fc7",
    ),
    "family-products-limit": (_family_case(PRODUCTS, Mode.LIMIT), "946d85b061b0048b"),
    "family-increasing-oneshot": (_family_case(INCREASING, Mode.ONE_SHOT), "b9fc6820a61bb6be"),
    "family-increasing-limit": (_family_case(INCREASING, Mode.LIMIT), "946d85b061b0048b"),
}


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_trial_streams_match_their_pinned_digests(case, monkeypatch):
    """The priors and evidence every trial hands its predicate, the trial
    count and the hits hash to a fixed digest per seeded case."""
    draws = []

    def recording(module, name):
        original = getattr(module, name)

        def predicate(*args, **kwargs):
            draws.append([_draw_key(x) for x in args[-3:]])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, predicate)

    recording(verifier_module, "one_shot")
    recording(verifier_module, "limit")
    recording(actions_module, "_all_basis_movements_polarize")

    def direction(p, p_other, ell):
        draws.append([_draw_key(p), _draw_key(p_other), _draw_key(ell)])
        return direction_analysis(p, p_other, ell)

    monkeypatch.setattr(verifier_module, "direction_analysis", direction)
    run, expected = _STREAM_CASES[case]
    trials, hits = run()
    payload = json.dumps([trials, hits, draws])
    assert 0 < len(draws) <= 1500
    assert hashlib.sha256(payload.encode()).hexdigest()[:16] == expected
