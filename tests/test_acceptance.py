"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible under ``pytest -s``) and asserts
its wall-clock budget.  Everything here is exact arithmetic; the only
tolerances are the explicitly stated Monte Carlo ones.
"""
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from bayespol import (
    Belief,
    LikelihoodFn,
    Mode,
    Relation,
    Signal,
    StateSpace,
    StateSubset,
    SweepConfig,
    UpperFamilyKind,
    UtilityFamilyKind,
    action_polarizes,
    build_polarizing_priors,
    classify,
    compare,
    compare_by_generators,
    compare_strong_cw,
    direction_analysis,
    direction_consistency_sweep,
    family_polarization_search,
    find_one_shot_orthant_instance,
    limit,
    mirror_extremes_instance,
    mirror_extremes_threshold,
    opposite_direction_witness,
    simulate,
    sweep,
    tradeoff_curve,
    UtilityFn,
)
from bayespol.cli import load_scenario

pytestmark = pytest.mark.acceptance

ST = UpperFamilyKind.UPPER_SET
UO = UpperFamilyKind.UPPER_ORTHANT
CW = UpperFamilyKind.UPPER_PROJECTION

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "mirror-priors-2x2.json"


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n{self.name}: PASS ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its time budget"
        else:
            print(f"\n{self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_ac1_mirror_priors_reproduction():
    with _Budget("AC1 mirror-priors reproduction", 1.0):
        scenario = load_scenario(str(SCENARIO))
        space = scenario.space
        pl, ph = scenario.prior_low, scenario.prior_high
        ident = scenario.identified
        ql = pl.condition(ident)
        qh = ph.condition(ident)
        for axis in range(2):
            assert ql.marginal(axis).masses == (F(3, 4), F(1, 4))
            assert pl.marginal(axis).masses == (F(5, 8), F(3, 8))
            assert ph.marginal(axis).masses == (F(3, 8), F(5, 8))
            assert qh.marginal(axis).masses == (F(1, 4), F(3, 4))
            cut = ql.marginal(axis).cdf[0]
            chain = [
                ql.marginal(axis).cdf[0],
                pl.marginal(axis).cdf[0],
                ph.marginal(axis).cdf[0],
                qh.marginal(axis).cdf[0],
            ]
            assert chain == sorted(chain, reverse=True) and len(set(chain)) == 4
        report = limit(CW, pl, ph, ident)
        assert report.verdict is True


def test_ac2_tradeoff_reproduction():
    with _Budget("AC2 probability-magnitude tradeoff", 1.0):
        deltas = [F(k, 100) for k in range(1, 100)]
        rows = tradeoff_curve(deltas)
        for d, row in zip(deltas, rows):
            assert row.magnitude == d / 2
            assert row.prob_identified == 1 - d
        quarter = next(r for r in rows if r.delta == F(1, 4))
        assert quarter.posterior_low.masses() == (F(3, 4), 0, 0, F(1, 4))
        assert quarter.posterior_high.masses() == (F(1, 4), 0, 0, F(3, 4))


def test_ac3_classification_biconditional_exhaustive():
    with _Budget("AC3 classification-construction biconditional", 300.0):
        expected_totals = {(2, 2): 14, (2, 3): 62, (3, 3): 510}
        for shape, total in expected_totals.items():
            space = StateSpace.grid(*shape)
            passers = []
            scanned = 0
            for mask in range(1, space.full_mask):
                scanned += 1
                subset = StateSubset(space, mask)
                verdict = classify(space, subset).can_strongly_polarize
                if verdict:
                    result = build_polarizing_priors(space, subset)
                    assert result.certificate.verdict, (shape, subset)
                    assert result.certificate.strong_middle
                    passers.append(mask)
                else:
                    with pytest.raises(ValueError):
                        build_polarizing_priors(space, subset)
            assert scanned == total
            if shape == (2, 2):
                diagonal = StateSubset.from_states(space, [(0, 0), (1, 1)])
                assert passers == [diagonal.mask]


def test_ac3_classify_and_build_every_4x4_set():
    with _Budget("AC3 classify-and-build on 4x4", 120.0):
        space = StateSpace.grid(4, 4)
        built = 0
        for mask in range(1, space.full_mask):
            subset = StateSubset(space, mask)
            if not classify(space, subset).can_strongly_polarize:
                continue
            result = build_polarizing_priors(space, subset)
            assert result.certificate.verdict, subset
            assert result.certificate.strong_middle
            built += 1
        assert built == 37054


def test_ac4_necessity_evidence():
    with _Budget("AC4 necessity sweeps on failing sets", 600.0):
        for shape in ((2, 2), (2, 3)):
            space = StateSpace.grid(*shape)
            for mask in range(1, space.full_mask):
                subset = StateSubset(space, mask)
                if classify(space, subset).can_strongly_polarize:
                    continue
                config = SweepConfig(
                    CW,
                    Mode.LIMIT,
                    shape,
                    trials=10_000,
                    seed=mask,
                    strong=True,
                    identified_set=subset.states(),
                )
                report = sweep(config)
                assert report.trials_run == 10_000
                assert not report.found_any, (shape, subset)


def test_ac5_impossibility_sweeps():
    with _Budget("AC5 impossibility sweeps", 900.0):
        exhaustive = sweep(
            SweepConfig(ST, Mode.ONE_SHOT, (2, 2), denominator_bound=6)
        )
        assert exhaustive.trials_run == 10 * 10 * 80
        assert not exhaustive.found_any
        for dims in ((2, 3), (3, 3)):
            report = sweep(
                SweepConfig(ST, Mode.ONE_SHOT, dims, trials=100_000, seed=101)
            )
            assert report.trials_run == 100_000
            assert not report.found_any, dims
        for dims in ((2, 2), (2, 3), (3, 3)):
            report = sweep(
                SweepConfig(UO, Mode.LIMIT, dims, trials=100_000, seed=202)
            )
            assert report.trials_run == 100_000
            assert not report.found_any, dims


def test_ac6_possibility_constructions():
    with _Budget("AC6 possibility constructions", 60.0):
        for shape in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            space = StateSpace.grid(*shape)
            threshold = mirror_extremes_threshold(space)
            result = mirror_extremes_instance(space, (threshold + 1) / 2)
            assert result.certificate.verdict, shape
        threshold = mirror_extremes_threshold(StateSpace.grid(3, 3))
        assert threshold == F(3, 7)
        above = mirror_extremes_instance(StateSpace.grid(3, 3), threshold + F(1, 100))
        below = mirror_extremes_instance(StateSpace.grid(3, 3), threshold - F(1, 100))
        assert above.certificate.verdict and not below.certificate.verdict
        for shape in ((2, 2), (3, 3)):
            inst = find_one_shot_orthant_instance(StateSpace.grid(*shape), F(1, 2))
            assert inst.report.verdict, shape


def test_ac7_limit_convergence():
    with _Budget("AC7 posterior convergence", 60.0):
        space = StateSpace.grid(2, 2)
        prior = Belief.from_fractions(space, ["3/8", "1/4", "1/4", "1/8"])
        signal = Signal(
            space,
            ("a", "b"),
            (
                LikelihoodFn.from_fractions(space, ["1/2", "1/4", "3/4", "1/2"]),
                LikelihoodFn.from_fractions(space, ["1/2", "3/4", "1/4", "1/2"]),
            ),
        )
        close = 0
        for seed in range(100):
            records = simulate(prior, signal, (0, 0), 500, seed=seed)
            if records[-1].tv_to_limit < F(1, 1000):
                close += 1
        assert close >= 99, f"only {close}/100 runs converged"


def test_ac8_order_theory_suite():
    with _Budget("AC8 order-theory suite", 600.0):
        # implication chain on random pairs
        rng = random.Random(808)
        space = StateSpace.grid(2, 3)
        for _ in range(10_000):
            a = Belief.from_weights(space, [rng.randint(0, 9) or 1 for _ in range(6)])
            b = Belief.from_weights(space, [rng.randint(0, 9) or 1 for _ in range(6)])
            if compare(a, b, ST).weakly_below:
                assert compare(a, b, UO).weakly_below
                assert compare(a, b, CW).weakly_below
            elif compare(a, b, UO).weakly_below:
                assert compare(a, b, CW).weakly_below

        # stored counterexamples for both failed converses
        grid = StateSpace.grid(2, 2)
        q = Belief.from_weights(grid, (1, 6, 6, 7))
        p = Belief.from_weights(grid, (2, 4, 4, 10))
        assert compare(q, p, UO).relation is Relation.STRICTLY_BELOW
        assert compare(q, p, ST).relation is Relation.INCOMPARABLE
        q2 = Belief.from_weights(grid, (7, 4, 4, 5))
        p2 = Belief.from_weights(grid, (4, 6, 6, 4))
        assert compare(q2, p2, CW).relation is Relation.STRICTLY_BELOW
        assert compare(q2, p2, UO).relation is Relation.INCOMPARABLE

        # generator duality, exhaustive over the denominator-8 grid
        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        grid_beliefs = [
            Belief(grid, nums, 8) for nums in compositions(8, 4)
        ]
        assert len(grid_beliefs) == 165
        for a in grid_beliefs:
            for b in grid_beliefs:
                for kind in (ST, UO, CW):
                    assert compare_by_generators(a, b, kind) == compare(
                        a, b, kind
                    ).weakly_below

        # strong dominance forces strict expectation gaps
        checked = 0
        while checked < 1000:
            lo = Belief.from_weights(space, [rng.randint(1, 9) for _ in range(6)])
            hi = Belief.from_weights(space, [rng.randint(1, 9) for _ in range(6)])
            if not compare_strong_cw(lo, hi).holds:
                continue
            parts0 = sorted(rng.randint(0, 6) for _ in range(2))
            parts1 = sorted(rng.randint(0, 6) for _ in range(3))
            values = [F(parts0[s[0]] + parts1[s[1]]) for s in space.states]
            if len(set(values)) == 1:
                continue
            assert lo.expectation(values) < hi.expectation(values)
            checked += 1


def test_ac9_direction_suite():
    with _Budget("AC9 direction-consistency suite", 300.0):
        total_violations = 0
        for dims, trials, seed in (((2, 2), 35_000, 1), ((5,), 35_000, 2), ((2, 3), 30_000, 3)):
            report = direction_consistency_sweep(
                SweepConfig(ST, Mode.ONE_SHOT, dims, trials=trials, seed=seed)
            )
            total_violations += len(report.violations)
            assert report.trials_run == trials
        assert total_violations == 0

        space = StateSpace.grid(6)
        p, p_other, ell = opposite_direction_witness(space)
        outcome = direction_analysis(p, p_other, ell)
        assert outcome.consistent
        for f in range(1, space.size - 1):
            assert outcome.table.low_signs[f] == -1
            assert outcome.table.high_signs[f] == 1


def test_ac10_action_layer():
    with _Budget("AC10 action-polarization layer", 600.0):
        space = StateSpace.grid(2, 2)
        sums_limit = family_polarization_search(
            UtilityFamilyKind.SUMS_OF_INCREASING, Mode.LIMIT, space
        )
        assert sums_limit.possible and sums_limit.instance is not None
        products_oneshot = family_polarization_search(
            UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING, Mode.ONE_SHOT, space
        )
        assert products_oneshot.possible and products_oneshot.instance is not None

        for family, mode in (
            (UtilityFamilyKind.PRODUCTS_OF_NONNEG_INCREASING, Mode.LIMIT),
            (UtilityFamilyKind.INCREASING, Mode.ONE_SHOT),
            (UtilityFamilyKind.INCREASING, Mode.LIMIT),
        ):
            outcome = family_polarization_search(
                family, mode, space, trials=100_000, seed=77
            )
            assert not outcome.possible
            assert outcome.sweep.trials == 100_000
            assert outcome.sweep.hits == ()

        pl = Belief.from_fractions(space, ["3/8", "1/4", "1/4", "1/8"])
        ph = Belief.from_fractions(space, ["1/8", "1/4", "1/4", "3/8"])
        diagonal = StateSubset.from_states(space, [(0, 0), (1, 1)])
        u = UtilityFn(space, (F(0), F(1), F(1), F(2)),
                      UtilityFamilyKind.SUMS_OF_INCREASING)
        movement = action_polarizes(u, pl, ph, diagonal)
        assert (movement.low_before, movement.low_after) == (F(3, 4), F(1, 2))
        assert (movement.high_before, movement.high_after) == (F(5, 4), F(3, 2))
        assert movement.polarizes
