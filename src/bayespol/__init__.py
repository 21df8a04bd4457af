"""Exact-arithmetic toolkit for Bayesian belief polarization on finite grids."""

from .actions import (
    ActionMovement,
    FamilySearchOutcome,
    TradeoffRow,
    UtilityFamilyKind,
    UtilityFn,
    action_polarizes,
    diagonal_tradeoff_priors,
    family_polarization_search,
    tradeoff_curve,
)
from .bayes import (
    LikelihoodFn,
    Signal,
    TrajectoryRecord,
    identified_set,
    limit_posterior,
    posterior_increases,
    simulate,
    update,
)
from .classifier import (
    AntichainDominance,
    ClassificationReport,
    antichain_dominates,
    classify,
    is_antichain,
    max_set,
    min_set,
)
from .construct import (
    ConstructionResult,
    OneShotOrthantInstance,
    antichain_distributions,
    build_polarizing_priors,
    find_one_shot_orthant_instance,
    mirror_extremes_instance,
    mirror_extremes_threshold,
    one_shot_orthant_instance,
)
from .core import Belief, Marginal, State, StateSpace, StateSubset, frac, leq, ll, mixture
from .orders import (
    CapExceededError,
    DominanceVerdict,
    Relation,
    Strictness,
    StrongCwVerdict,
    UpperFamilyKind,
    canonical_basis,
    compare,
    compare_by_generators,
    compare_strong_cw,
    event_family,
)
from .polarization import (
    DirectionAnalysis,
    DirectionTable,
    Mode,
    PolarizationReport,
    direction_analysis,
    limit,
    one_shot,
)
from .verifier import (
    DirectionSweepReport,
    SweepConfig,
    SweepHit,
    SweepReport,
    direction_consistency_sweep,
    opposite_direction_witness,
    sweep,
)

__version__ = "0.1.0"
