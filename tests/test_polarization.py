import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayespol import (
    Belief,
    LikelihoodFn,
    StateSpace,
    StateSubset,
    UpperFamilyKind,
    compare,
    direction_analysis,
    limit,
    one_shot,
    posterior_increases,
)
from bayespol import Mode, PolarizationReport, Strictness, limit_posterior, polarization, update
from bayespol.construct import mirror_extremes_instance, mirror_extremes_threshold
from bayespol.orders import DominanceVerdict, Relation
from bayespol.polarization import _reduced_links
from bayespol.verifier import (
    _random_belief,
    _random_likelihood,
    _random_strong_pair,
    opposite_direction_witness,
)

from conftest import (
    CHAIN_FIELDS,
    CORNER_LIKELIHOOD,
    DIAGONAL,
    GRID_2X2,
    GRID_2X3,
    GRID_3X3,
    MIRROR_HIGH,
    MIRROR_LOW,
    beliefs,
    chain_report_eagerly,
    direction_analysis_by_posteriors,
    likelihoods,
    reduced_links_by_compare,
    subsets,
)

ST = UpperFamilyKind.UPPER_SET
UO = UpperFamilyKind.UPPER_ORTHANT
CW = UpperFamilyKind.UPPER_PROJECTION


def test_limit_cw_polarization_on_diagonal():
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert report.verdict
    assert report.checks == {"low_drop": True, "prior_gap": True, "high_rise": True}
    assert report.posterior_low.masses() == (F(3, 4), 0, 0, F(1, 4))


def test_limit_on_full_space_is_no_movement():
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, StateSubset.full(GRID_2X2))
    assert not report.verdict
    assert not report.checks["low_drop"]


def test_limit_uo_fails_with_singleton_witness():
    report = limit(UO, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert not report.verdict
    top = StateSubset.from_states(GRID_2X2, [(1, 1)])
    # the low agent's mass on the top corner rises from 1/8 to 1/4
    assert report.low_drop.witness == top or report.low_drop.opposite_witness == top


def test_one_shot_constant_likelihood_is_never_polarizing():
    ell = LikelihoodFn.from_fractions(GRID_2X2, ["1/2"] * 4)
    report = one_shot(CW, MIRROR_LOW, MIRROR_HIGH, ell)
    assert not report.verdict
    assert not report.checks["low_drop"]
    assert report.checks["prior_gap"]


def test_one_shot_requires_full_support():
    thin = Belief.from_fractions(GRID_2X2, ["1/2", "1/2", "0", "0"])
    with pytest.raises(ValueError, match="full-support"):
        one_shot(CW, thin, MIRROR_HIGH, CORNER_LIKELIHOOD)


def test_strong_middle_mode():
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL, strong_middle=True)
    assert report.verdict
    with pytest.raises(ValueError, match="coordinatewise"):
        limit(ST, MIRROR_LOW, MIRROR_HIGH, DIAGONAL, strong_middle=True)


@pytest.mark.parametrize("strong", ["no", 0, 1, None])
def test_strong_middle_must_be_a_bool(strong):
    with pytest.raises(ValueError, match="^strong_middle must be a bool"):
        limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL, strong)
    with pytest.raises(ValueError, match="^strong_middle must be a bool"):
        PolarizationReport(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL, strong, Strictness.ONE_EVENT)


def test_one_shot_upper_set_random_sweep_finds_nothing():
    rng = random.Random(77)
    for space in (GRID_2X2, GRID_2X3):
        size = space.size
        for _ in range(1500):
            pl = Belief.from_weights(space, [rng.randint(1, 9) for _ in range(size)])
            ph = Belief.from_weights(space, [rng.randint(1, 9) for _ in range(size)])
            values = [F(rng.randint(0, 4), 4) for _ in range(size)]
            if all(v == 0 for v in values):
                values[0] = F(1)
            ell = LikelihoodFn.from_fractions(space, values)
            assert not one_shot(ST, pl, ph, ell).verdict


def test_one_shot_impossibility_holds_on_one_dimension_too():
    # the univariate baseline: a single axis, stochastic-dominance order
    line = StateSpace.grid(5)
    rng = random.Random(55)
    for _ in range(1500):
        pl = Belief.from_weights(line, [rng.randint(1, 9) for _ in range(5)])
        ph = Belief.from_weights(line, [rng.randint(1, 9) for _ in range(5)])
        values = [F(rng.randint(0, 4), 4) for _ in range(5)]
        if all(v == 0 for v in values):
            values[0] = F(1)
        ell = LikelihoodFn.from_fractions(line, values)
        assert not one_shot(ST, pl, ph, ell).verdict


@given(beliefs(GRID_2X2, full_support=True), beliefs(GRID_2X2, full_support=True),
       subsets(GRID_2X2))
def test_limit_equals_one_shot_on_partitional_signal(pl, ph, ident):
    ell = LikelihoodFn.indicator(GRID_2X2, ident)
    for kind in (ST, UO, CW):
        assert limit(kind, pl, ph, ident).verdict == one_shot(kind, pl, ph, ell).verdict


@given(beliefs(GRID_2X3, full_support=True), subsets(GRID_2X3))
def test_conditional_reduction_equivalence(prior, ident):
    # posterior-below-prior iff the conditional on the set sits below the
    # conditional on the complement, coordinatewise
    posterior = prior.condition(ident)
    direct = compare(posterior, prior, CW).weakly_below
    reduced = compare(
        prior.condition(ident), prior.condition(ident.complement()), CW
    ).weakly_below
    assert direct == reduced
    # the built-in agreement assertion in limit() must not fire either
    limit(CW, prior, prior, ident)


@st.composite
def _prior_pairs(draw):
    space = draw(st.sampled_from([GRID_2X2, GRID_2X3, GRID_3X3]))
    return draw(beliefs(space, full_support=True)), draw(beliefs(space, full_support=True))


@settings(max_examples=40, deadline=None)
@given(_prior_pairs())
def test_integer_reduced_links_match_the_conditional_compares(pair):
    pl, ph = pair
    space = pl.space
    seen = set()
    for mask in range(1, space.full_mask):
        ident = StateSubset(space, mask)
        links = _reduced_links(pl, ph, ident)
        assert links == reduced_links_by_compare(pl, ph, ident)
        report = limit(CW, pl, ph, ident)
        assert links == (report.low_drop.weakly_below, report.high_rise.weakly_below)
        seen.add(links)
    # every proper subset of a grid includes sets on both sides of each link
    assert {low for low, _ in seen} == {high for _, high in seen} == {False, True}


SELF_CHECK_SETS = (DIAGONAL, DIAGONAL.complement(), StateSubset(GRID_2X2, 0b0001))


def _assert_every_cw_limit_report_fires(valid):
    """Each way of making a CW limit report on the sets runs the self-check:
    ``limit``, a direct ``PolarizationReport`` and ``replace`` of a report
    made before the link flipped."""
    for ident in SELF_CHECK_SETS:
        for strong in (False, True):
            with pytest.raises(AssertionError, match="conditional reduction"):
                limit(CW, MIRROR_LOW, MIRROR_HIGH, ident, strong_middle=strong)
            with pytest.raises(AssertionError, match="conditional reduction"):
                PolarizationReport(
                    CW, MIRROR_LOW, MIRROR_HIGH, ident, strong, Strictness.ONE_EVENT
                )
    for report in valid:
        with pytest.raises(AssertionError, match="conditional reduction"):
            dataclasses.replace(report)
    # the self-check runs only in the coordinatewise order
    limit(UO, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)


@pytest.mark.parametrize("link", ["low", "high"])
def test_limit_self_check_fires_when_a_direct_link_flips(monkeypatch, link):
    # The direct links are the two posterior links; ``rise`` marks the high one.
    real = polarization._posterior_link

    def flipped(kind, prior, evidence, strictness, rise):
        verdict = real(kind, prior, evidence, strictness, rise)
        if rise != (link == "high"):
            return verdict
        if verdict.weakly_below:
            return DominanceVerdict(Relation.INCOMPARABLE, verdict.witness, verdict.witness)
        return DominanceVerdict(Relation.EQUAL)

    valid = [limit(CW, MIRROR_LOW, MIRROR_HIGH, ident) for ident in SELF_CHECK_SETS]
    monkeypatch.setattr(polarization, "_posterior_link", flipped)
    _assert_every_cw_limit_report_fires(valid)


@pytest.mark.parametrize("link", ["low", "high"])
def test_limit_self_check_fires_when_a_reduced_link_flips(monkeypatch, link):
    real = polarization._reduced_links

    def flipped(pl, ph, identified):
        low, high = real(pl, ph, identified)
        return (not low, high) if link == "low" else (low, not high)

    valid = [limit(CW, MIRROR_LOW, MIRROR_HIGH, ident) for ident in SELF_CHECK_SETS]
    monkeypatch.setattr(polarization, "_reduced_links", flipped)
    _assert_every_cw_limit_report_fires(valid)


# -- lazy reports ----------------------------------------------------------------

ORACLE_GRIDS = (GRID_2X2, GRID_2X3, GRID_3X3, StateSpace.grid(2, 2, 2))


def _first_failing_link(report):
    return next((name for name, ok in report.checks.items() if not ok), None)


@pytest.mark.parametrize("space", ORACLE_GRIDS, ids=repr)
def test_lazy_reports_match_the_eager_chain(space):
    rng = random.Random(f"lazy-chain:{space!r}")
    trials = []
    for t in range(30):
        # strongly ordered pairs pass the middle link far more often
        if t % 2:
            pl, ph = _random_strong_pair(rng, space, 12)
        else:
            pl, ph = _random_belief(rng, space, 12), _random_belief(rng, space, 12)
        ell = _random_likelihood(rng, space, (F(0), F(1, 2), F(1)))
        ident = StateSubset(space, rng.randrange(1, space.full_mask + 1))
        trials.append((pl, ph, ell, ident))
    # and one coordinatewise hit, in both modes
    tilt = (1 + mirror_extremes_threshold(space)) / 2
    hit = mirror_extremes_instance(space, tilt)
    extremes = hit.certificate.identified_set
    trials.append(
        (hit.prior_low, hit.prior_high, LikelihoodFn.indicator(space, extremes), extremes)
    )
    outcomes = set()
    for pl, ph, ell, ident in trials:
        for kind in (ST, UO, CW):
            for strictness in Strictness:
                cases = [(Mode.ONE_SHOT, False), (Mode.LIMIT, False)]
                if kind is CW:
                    cases.append((Mode.LIMIT, True))
                for mode, strong in cases:
                    if mode is Mode.ONE_SHOT:
                        make = lambda: one_shot(kind, pl, ph, ell, strictness)
                        ql, qh, evidence = update(pl, ell), update(ph, ell), None
                    else:
                        make = lambda: limit(kind, pl, ph, ident, strong, strictness)
                        ql, qh = limit_posterior(pl, ident), limit_posterior(ph, ident)
                        evidence = ident
                    eager = chain_report_eagerly(
                        kind, mode, pl, ph, ql, qh, strong, strictness, evidence
                    )
                    lazy = make()
                    # the verdict first, as a sweep reads it
                    assert lazy.verdict == eager.verdict
                    for name in CHAIN_FIELDS:
                        assert getattr(lazy, name) == getattr(eager, name), name
                    assert lazy.checks == eager.checks
                    outcomes.add(_first_failing_link(eager))
    # the verdict stops at each link, and passes all three, somewhere
    assert outcomes == {"low_drop", "prior_gap", "high_rise", None}


def _oracle_prior_pairs(rng, space):
    return [
        (_random_belief(rng, space, 12), _random_belief(rng, space, 12)),
        (_random_belief(rng, space, 4), _random_belief(rng, space, 4)),
        _random_strong_pair(rng, space, 12),
    ]


def _assert_links_match_eager_posteriors(report, pl, ph, ql, qh, kind, strictness):
    """The slow path the integer links replaced: build both posteriors, then
    ``compare`` them against the priors."""
    assert report.low_drop == compare(ql, pl, kind, strictness)
    assert report.high_rise == compare(ph, qh, kind, strictness)
    assert report.posterior_low == ql
    assert report.posterior_high == qh
    return report.low_drop.relation, report.high_rise.relation


# every relation but equality, which random full-support draws rarely meet
_ORACLE_RELATIONS = set(Relation) - {Relation.EQUAL}
_WEAK_RELATIONS = {Relation.WEAKLY_BELOW, Relation.WEAKLY_ABOVE}


@pytest.mark.parametrize("space", ORACLE_GRIDS, ids=repr)
def test_integer_limit_links_match_compare_on_built_posteriors(space):
    rng = random.Random(f"limit-links:{space!r}")
    pairs = _oracle_prior_pairs(rng, space)
    seen = set()
    for mask in range(1, space.full_mask):
        ident = StateSubset(space, mask)
        for pl, ph in pairs:
            ql, qh = limit_posterior(pl, ident), limit_posterior(ph, ident)
            for kind in (ST, UO, CW):
                for strictness in Strictness:
                    report = limit(kind, pl, ph, ident, strictness=strictness)
                    seen.update(_assert_links_match_eager_posteriors(
                        report, pl, ph, ql, qh, kind, strictness
                    ))
    expected = _ORACLE_RELATIONS
    if space == GRID_2X2:
        # the drawn 2x2 pairs leave no limit link weak but not strict
        expected = expected - _WEAK_RELATIONS
    assert seen >= expected


def _oracle_likelihoods(space):
    levels = (F(0), F(1, 2), F(1))
    if space == GRID_2X2:
        return [
            LikelihoodFn.from_fractions(space, values)
            for values in itertools.product(levels, repeat=space.size)
            if any(values)
        ]
    rng = random.Random(f"one-shot-likelihoods:{space!r}")
    return [_random_likelihood(rng, space, levels) for _ in range(80)]


@pytest.mark.parametrize("space", (GRID_2X2, GRID_2X3, GRID_3X3), ids=repr)
def test_integer_one_shot_links_match_compare_on_built_posteriors(space):
    rng = random.Random(f"one-shot-links:{space!r}")
    pairs = _oracle_prior_pairs(rng, space)
    seen = set()
    for ell in _oracle_likelihoods(space):
        for pl, ph in pairs:
            ql, qh = update(pl, ell), update(ph, ell)
            for kind in (ST, UO, CW):
                for strictness in Strictness:
                    report = one_shot(kind, pl, ph, ell, strictness)
                    seen.update(_assert_links_match_eager_posteriors(
                        report, pl, ph, ql, qh, kind, strictness
                    ))
    assert seen >= _ORACLE_RELATIONS


def test_the_middle_link_alone_can_fail_the_verdict():
    # Both outer links hold and the priors are not ordered: rare in random
    # draws, so pinned here.
    pl = Belief(GRID_2X2, (5, 10, 9, 9), 33)
    ph = Belief(GRID_2X2, (9, 10, 9, 7), 35)
    ell = LikelihoodFn(GRID_2X2, (1, 2, 2, 1), 2)
    report = one_shot(CW, pl, ph, ell)
    eager = chain_report_eagerly(
        CW, Mode.ONE_SHOT, pl, ph, update(pl, ell), update(ph, ell), False,
        Strictness.ONE_EVENT,
    )
    pl = Belief(GRID_2X2, (1, 6, 4, 6), 17)
    ph = Belief(GRID_2X2, (3, 4, 3, 2), 12)
    ident = StateSubset(GRID_2X2, 0b0110)
    limit_report = limit(CW, pl, ph, ident)
    limit_eager = chain_report_eagerly(
        CW, Mode.LIMIT, pl, ph, limit_posterior(pl, ident), limit_posterior(ph, ident),
        False, Strictness.ONE_EVENT, ident,
    )
    for lazy, expected in ((report, eager), (limit_report, limit_eager)):
        assert not lazy.verdict
        assert lazy.checks == {"low_drop": True, "prior_gap": False, "high_rise": True}
        for name in CHAIN_FIELDS:
            assert getattr(lazy, name) == getattr(expected, name), name


def test_a_one_shot_miss_at_the_low_link_takes_one_compare(monkeypatch):
    # Links are the two posterior links and the middle compare; posteriors
    # come from bayes._posterior (update or limit_posterior).
    links, posteriors = [], []

    def counting(fn, calls):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("_posterior_link", "compare"):
        monkeypatch.setattr(polarization, name, counting(getattr(polarization, name), links))
    monkeypatch.setattr(
        polarization, "_posterior", counting(polarization._posterior, posteriors)
    )
    report = one_shot(ST, MIRROR_LOW, MIRROR_HIGH, CORNER_LIKELIHOOD)
    assert not report.verdict
    assert links == ["_posterior_link"] and posteriors == []
    assert not report.low_drop.strictly_below
    # the other links are still there, computed once on first access
    assert report.checks == {"low_drop": False, "prior_gap": True, "high_rise": False}
    report.checks
    assert sorted(links) == ["_posterior_link", "_posterior_link", "compare"]
    assert posteriors == []
    # each posterior is built once, when a field reads it
    assert report.posterior_low == update(MIRROR_LOW, CORNER_LIKELIHOOD)
    assert posteriors == ["_posterior"]
    report.directions
    report.posterior_high
    assert posteriors == ["_posterior", "_posterior"]
    assert len(links) == 3


# same shape as GRID_2X2, other axis labels: a different space
OTHER_2X2 = StateSpace.make([[0, 1], [0, 2]])
FOREIGN_HIGH = Belief.from_weights(GRID_2X3, [1] * 6)
THIN = Belief.from_fractions(GRID_2X2, ["1/2", "1/2", "0", "0"])
# The constant likelihood and the full set leave the low prior where it is,
# so in each case below the low link would fail first.
CONSTANT = LikelihoodFn.from_fractions(GRID_2X2, ["1/2"] * 4)
FULL = StateSubset.full(GRID_2X2)


def _zero_likelihood(space):
    # LikelihoodFn refuses an all-zero vector; build one past its checks
    ell = object.__new__(LikelihoodFn)
    for name, value in (("space", space), ("nums", (0,) * space.size), ("den", 1)):
        object.__setattr__(ell, name, value)
    return ell


# (kind, prior_low, prior_high, evidence, strong_middle); one_shot takes the
# likelihoods and limit the sets, and a direct PolarizationReport takes both.
@pytest.mark.parametrize(
    "inputs,message",
    [
        ((CW, MIRROR_LOW, FOREIGN_HIGH, CONSTANT, False),
         "prior and likelihood live on different spaces"),
        ((CW, FOREIGN_HIGH, MIRROR_HIGH, CONSTANT, False),
         "prior and likelihood live on different spaces"),
        ((ST, MIRROR_LOW, MIRROR_HIGH, LikelihoodFn.from_fractions(GRID_2X3, ["1/2"] * 6), False),
         "prior and likelihood live on different spaces"),
        ((UO, MIRROR_LOW, MIRROR_HIGH, _zero_likelihood(GRID_2X2), False),
         "zero evidence probability"),
        ((CW, THIN, MIRROR_HIGH, CONSTANT, False), "one-shot polarization requires full-support"),
        ((CW, MIRROR_LOW, THIN, CONSTANT, False), "one-shot polarization requires full-support"),
        ((CW, MIRROR_LOW, FOREIGN_HIGH, FULL, False), "subset lives on a different space"),
        ((ST, FOREIGN_HIGH, MIRROR_HIGH, FULL, False), "subset lives on a different space"),
        ((UO, MIRROR_LOW, MIRROR_HIGH, StateSubset.full(OTHER_2X2), False),
         "subset lives on a different space"),
        ((CW, MIRROR_LOW, MIRROR_HIGH, StateSubset(GRID_2X2, 0), False), "identified set is empty"),
        ((CW, THIN, MIRROR_HIGH, FULL, False), "limit polarization requires full-support"),
        ((CW, MIRROR_LOW, THIN, FULL, True), "limit polarization requires full-support"),
        ((ST, MIRROR_LOW, MIRROR_HIGH, FULL, True), "coordinatewise order"),
        ((UO, MIRROR_LOW, MIRROR_HIGH, FULL, True), "coordinatewise order"),
        # a thin prior against the diagonal, which would otherwise polarize
        ((CW, THIN, MIRROR_HIGH, DIAGONAL, False), "limit polarization requires full-support"),
    ],
    ids=[
        "oneshot-mismatched-priors", "oneshot-mismatched-priors-low",
        "oneshot-foreign-evidence", "oneshot-zero-probability-evidence",
        "oneshot-thin-low", "oneshot-thin-high",
        "limit-mismatched-priors", "limit-mismatched-priors-low",
        "limit-foreign-evidence", "limit-empty-set",
        "limit-thin-low", "limit-thin-high",
        "limit-strong-middle-st", "limit-strong-middle-uo",
        "limit-thin-low-diagonal",
    ],
)
def test_invalid_inputs_raise_before_any_link(inputs, message):
    kind, low, high, evidence, strong = inputs
    with pytest.raises(ValueError, match=message):
        if isinstance(evidence, LikelihoodFn):
            one_shot(kind, low, high, evidence)
        else:
            limit(kind, low, high, evidence, strong_middle=strong)
    with pytest.raises(ValueError, match=message):
        PolarizationReport(kind, low, high, evidence, strong, Strictness.ONE_EVENT)


def test_evidence_of_the_wrong_type_is_refused_by_name():
    with pytest.raises(ValueError, match="^ell must be a LikelihoodFn, got StateSubset"):
        one_shot(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    with pytest.raises(ValueError, match="^identified must be a StateSubset, got LikelihoodFn"):
        limit(CW, MIRROR_LOW, MIRROR_HIGH, CORNER_LIKELIHOOD)
    for evidence in (None, DIAGONAL.mask, MIRROR_LOW):
        with pytest.raises(ValueError, match="^evidence must be a LikelihoodFn or a StateSubset"):
            PolarizationReport(CW, MIRROR_LOW, MIRROR_HIGH, evidence, False, Strictness.ONE_EVENT)


def test_reports_that_differ_only_past_the_low_link_are_unequal():
    # the low link fails in both, so the verdict reads nothing else
    a = one_shot(CW, MIRROR_LOW, MIRROR_HIGH, CONSTANT)
    b = one_shot(CW, MIRROR_LOW, MIRROR_LOW, CONSTANT)
    assert (a.verdict, a.low_drop, a.posterior_low) == (b.verdict, b.low_drop, b.posterior_low)
    assert a != b
    with pytest.raises(AttributeError):
        a.verdict = True
    with pytest.raises(AttributeError):
        a.high_rise = a.low_drop


def test_report_fields_are_its_inputs_and_what_it_settles():
    names = [f.name for f in dataclasses.fields(PolarizationReport)]
    assert names == [
        "kind", "prior_low", "prior_high", "evidence", "strong_middle", "strictness",
        "low_drop", "verdict",
    ]
    settled = {f.name for f in dataclasses.fields(PolarizationReport) if not f.init}
    assert settled == {"low_drop", "verdict"}


def _copy(belief):
    # equal to ``belief``, but not the same object
    return Belief(belief.space, tuple(belief.nums), belief.den)


def test_reports_from_equal_inputs_are_equal_and_hash_equal():
    ell = LikelihoodFn(GRID_2X2, CORNER_LIKELIHOOD.nums, CORNER_LIKELIHOOD.den)
    makers = [
        lambda low, high: one_shot(CW, low, high, CORNER_LIKELIHOOD),
        lambda low, high: one_shot(CW, low, high, ell, Strictness.ALL_EVENTS),
        lambda low, high: limit(CW, low, high, DIAGONAL),
        lambda low, high: limit(CW, low, high, StateSubset(GRID_2X2, DIAGONAL.mask), True),
        lambda low, high: limit(UO, low, high, DIAGONAL.complement()),
    ]
    reports = []
    for make in makers:
        a = make(MIRROR_LOW, MIRROR_HIGH)
        b = make(_copy(MIRROR_LOW), _copy(MIRROR_HIGH))
        # one of them with every cached field forced first
        for name in CHAIN_FIELDS:
            getattr(a, name)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        reports.append(a)
    # and reports from different inputs differ
    assert len(set(reports)) == len(reports)


def test_mode_and_identified_set_are_read_off_the_evidence():
    report = one_shot(CW, MIRROR_LOW, MIRROR_HIGH, CORNER_LIKELIHOOD)
    assert (report.mode, report.identified_set) == (Mode.ONE_SHOT, None)
    assert report.evidence == CORNER_LIKELIHOOD
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    assert (report.mode, report.identified_set) == (Mode.LIMIT, DIAGONAL)
    assert report.evidence == DIAGONAL


def test_assigning_any_report_attribute_raises():
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    names = [f.name for f in dataclasses.fields(report)]
    names += [*CHAIN_FIELDS, "checks", "undeclared"]
    for forced in (False, True):
        if forced:
            for name in CHAIN_FIELDS:
                getattr(report, name)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(report, name)
    assert report.verdict and report.posterior_low.masses() == (F(3, 4), 0, 0, F(1, 4))


# -- direction analysis --------------------------------------------------------


def test_direction_analysis_corner_likelihood_split():
    heavy_bottom = Belief.from_fractions(GRID_2X2, ["97/100", "1/100", "1/100", "1/100"])
    spread = Belief.from_fractions(GRID_2X2, ["1/10", "2/5", "2/5", "1/10"])
    outcome = direction_analysis(heavy_bottom, spread, CORNER_LIKELIHOOD)
    top = GRID_2X2.flat((1, 1))
    assert outcome.table.low_signs[top] == -1
    assert outcome.table.high_signs[top] == 1
    bottom = GRID_2X2.flat((0, 0))
    assert outcome.table.low_signs[bottom] == 1 and outcome.table.high_signs[bottom] == 1
    assert outcome.min_likelihood_states == ((0, 1), (1, 0))
    assert outcome.max_likelihood_states == ((0, 0),)
    assert outcome.consistent


def test_direction_analysis_constant_likelihood_all_zero():
    ell = LikelihoodFn.from_fractions(GRID_2X2, ["1/2"] * 4)
    outcome = direction_analysis(MIRROR_LOW, MIRROR_HIGH, ell)
    assert outcome.table.low_signs == (0, 0, 0, 0)
    assert outcome.table.high_signs == (0, 0, 0, 0)
    assert outcome.consistent


def test_three_level_likelihood_splits_every_middle_state():
    space = StateSpace.grid(2, 3)
    values = [F(1, 2)] * 6
    values[0] = F(1, 4)      # unique minimum at the bottom state
    values[-1] = F(1)        # unique maximum at the top state
    ell = LikelihoodFn.from_fractions(space, values)
    top_heavy = Belief.from_weights(space, (1, 1, 1, 1, 1, 40))
    bottom_heavy = Belief.from_weights(space, (40, 1, 1, 1, 1, 1))
    outcome = direction_analysis(top_heavy, bottom_heavy, ell)
    for f in range(1, 5):
        assert outcome.table.low_signs[f] == -1
        assert outcome.table.high_signs[f] == 1
    assert outcome.consistent


@given(beliefs(GRID_2X2, full_support=True), beliefs(GRID_2X2, full_support=True),
       likelihoods(GRID_2X2))
def test_direction_signs_match_posterior_increase_on_singletons(p, p2, ell):
    outcome = direction_analysis(p, p2, ell)
    for f, state in enumerate(GRID_2X2.states):
        singleton = StateSubset.from_states(GRID_2X2, [state])
        assert (outcome.table.low_signs[f] > 0) == posterior_increases(p, ell, singleton)
        assert (outcome.table.high_signs[f] > 0) == posterior_increases(p2, ell, singleton)


@given(beliefs(GRID_2X3, full_support=True), beliefs(GRID_2X3, full_support=True),
       likelihoods(GRID_2X3))
def test_direction_restrictions_hold_universally(p, p2, ell):
    assert direction_analysis(p, p2, ell).consistent


def test_direction_analysis_matches_the_posterior_oracle():
    rng = random.Random(21)
    cases = []
    # every likelihood on the {0, 1/2, 1} grid on 2x2, constant ones included,
    # against seeded prior pairs and a prior paired with itself
    for values in itertools.product((0, 1, 2), repeat=4):
        if any(values):
            ell = LikelihoodFn(GRID_2X2, values, 2)
            cases.append((MIRROR_LOW, MIRROR_LOW, ell))
            for _ in range(4):
                pair = [_random_belief(rng, GRID_2X2, 4) for _ in range(2)]
                cases.append((*pair, ell))
    levels = (F(0), F(1, 4), F(1, 2), F(1))
    for space in (GRID_2X3, GRID_3X3):
        cases.append(opposite_direction_witness(space))
        for _ in range(150):
            pair = [_random_belief(rng, space, 12) for _ in range(2)]
            cases.append((*pair, _random_likelihood(rng, space, levels)))
    still = 0
    for p, p_other, ell in cases:
        outcome = direction_analysis(p, p_other, ell)
        assert outcome == direction_analysis_by_posteriors(p, p_other, ell)
        signs = outcome.table.low_signs + outcome.table.high_signs
        still += any(signs) and 0 in signs
    # a moving table with a state that stays put
    assert still > 0
    other = LikelihoodFn(StateSpace.make([[0, 1], [0, 2]]), (1, 0, 0, 1), 1)
    for analyse in (direction_analysis, direction_analysis_by_posteriors):
        with pytest.raises(ValueError, match="prior and likelihood live on different spaces"):
            analyse(MIRROR_LOW, MIRROR_HIGH, other)


def test_direction_analysis_refuses_a_subset_as_its_likelihood():
    # a StateSubset used to fail deep inside with an AttributeError on nums
    with pytest.raises(ValueError, match="^ell must be a LikelihoodFn, got StateSubset$"):
        direction_analysis(MIRROR_LOW, MIRROR_HIGH, DIAGONAL)


def test_report_directions_match_movements():
    report = limit(CW, MIRROR_LOW, MIRROR_HIGH, DIAGONAL)
    ql = report.posterior_low
    for state, low_sign, _ in report.directions.rows():
        diff = ql.mass(state) - MIRROR_LOW.mass(state)
        assert (diff > 0) == (low_sign == 1)
        assert (diff < 0) == (low_sign == -1)
