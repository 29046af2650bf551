"""Localized test-time scaling laboratory.

Defect-mask generation from quality-contrast attention, mask-aware
localized resampling, verifier-guided search, and a patch-economy theory
with Monte Carlo validation, all on an analytic patch-grid diffusion
testbed with closed-form score.
"""

from .attention import (
    AttentionBundle,
    AttentionField,
    DefectMask,
    PropagationMatrix,
    QualityMap,
    build_propagation,
    mask_gen,
    reduce_attention,
    threshold_mask,
)
from .resample import ResampleConfig, localized_resample
from .search import Candidate, SearchConfig, best_of_n, dfs_search
from .testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    forward_noise,
    gmm_score,
    posterior_mean,
    sample_base,
    synth_attention,
    verifier_score,
)
from .theory import (
    InfeasibleParameterError,
    MaskStats,
    PatchEconomy,
    bon_curve,
    budget_gains,
    classify_regime,
    dominance_check,
    expected_selection_stats,
    per_trial_gains,
    precision_floor,
    required_recall,
    simulate_patch_economy,
)

__all__ = [
    "AttentionBundle",
    "AttentionField",
    "Candidate",
    "CosineSchedule",
    "DefectMask",
    "InfeasibleParameterError",
    "LatentState",
    "MaskStats",
    "NoisePredictor",
    "PatchEconomy",
    "PatchWorld",
    "PropagationMatrix",
    "QualityMap",
    "ResampleConfig",
    "SearchConfig",
    "best_of_n",
    "bon_curve",
    "budget_gains",
    "build_propagation",
    "classify_regime",
    "dfs_search",
    "dominance_check",
    "expected_selection_stats",
    "forward_noise",
    "gmm_score",
    "localized_resample",
    "mask_gen",
    "per_trial_gains",
    "posterior_mean",
    "precision_floor",
    "reduce_attention",
    "required_recall",
    "sample_base",
    "simulate_patch_economy",
    "synth_attention",
    "threshold_mask",
    "verifier_score",
]

__version__ = "0.1.0"
