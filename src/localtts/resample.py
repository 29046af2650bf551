"""Mask-aware localized resampling.

A clean anchor state is re-noised to an intermediate time t0 (with
independent noise inside and outside the mask so noise levels match across
the boundary), refined from t0 down to a hand-off time t_g with the
unmasked coordinates pinned to freshly-noised copies of the anchor, and
finally swept from t_g to 0 with plain stochastic reverse steps to restore
full-state coherence.

Each refinement or integration step consumes exactly one oracle evaluation,
so a full call costs n_refine + n_integrate NFEs. With t_g = 0 the
integration phase is empty and unmasked coordinates of the output equal the
anchor bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import DefectMask
from .errors import check
from .testbed import (
    _TIME_TOL,
    CosineSchedule,
    LatentState,
    NoisePredictor,
    _ancestral_update,
    _resolve_target_time,
    _reverse_sweep,
    forward_noise,
)


@dataclass(frozen=True)
class ResampleConfig:
    """Timing of one localized refinement pass.

    t0 is the re-noise time, t_g the hand-off to the global sweep,
    n_refine the number of masked refinement steps between them, and
    n_integrate the number of plain reverse steps from t_g to 0 (zero iff
    t_g is zero).
    """

    t0: float
    t_g: float
    n_refine: int
    n_integrate: int

    def __post_init__(self):
        check([
            (self.t0 > 0, "t0", f"must be positive, got {self.t0}"),
            (0.0 <= self.t_g < self.t0, "t_g",
             f"must lie in [0, t0={self.t0}), got {self.t_g}"),
            (self.n_refine >= 1, "n_refine", f"must be at least 1, got {self.n_refine}"),
            (self.nfe_cost <= CosineSchedule.MAX_STEPS, "n_refine",
             f"plus n_integrate must be at most {CosineSchedule.MAX_STEPS}, got {self.nfe_cost:g}"),
            (self.t_g != 0.0 or self.n_integrate == 0, "n_integrate",
             f"must be 0 when t_g is 0, got {self.n_integrate}"),
            (not self.t_g > 0.0 or self.n_integrate >= 1, "n_integrate",
             f"must be at least 1 when t_g > 0, got {self.n_integrate}"),
        ])

    @property
    def refine_dt(self) -> float:
        return (self.t0 - self.t_g) / self.n_refine

    @property
    def nfe_cost(self) -> int:
        return self.n_refine + self.n_integrate


def _check_mask(predictor: NoisePredictor, mask: DefectMask) -> np.ndarray:
    if mask.grid != predictor.world.grid:
        raise ValueError(f"mask grid {mask.grid} does not match world grid {predictor.world.grid}")
    return predictor.world.coordinate_mask(mask.bits)


def _renoise(predictor: NoisePredictor, anchor: LatentState, mcoord: np.ndarray,
             cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    z_bg = rng.standard_normal(anchor.x.shape)
    z_mask = rng.standard_normal(anchor.x.shape)
    return forward_noise(predictor.schedule, anchor, cfg.t0, np.where(mcoord, z_mask, z_bg))


def renoise(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
            cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Forward-noise the anchor to t0 with region-blended noise.

    x_t0 = alpha(t0) anchor + sigma(t0) ((1-M) z_bg + M z_mask); both
    regions end up at the same noise level, only the masked region's noise
    is decoupled from the background's.
    """
    return _renoise(predictor, anchor, _check_mask(predictor, mask), cfg, rng)


def _masked_refine(predictor: NoisePredictor, state: LatentState, mcoord: np.ndarray,
                   anchor: LatentState, cfg: ResampleConfig,
                   rng: np.random.Generator) -> LatentState:
    sched = predictor.schedule
    t = sched.check_time(state.t)
    if not cfg.t_g < t <= cfg.t0 + _TIME_TOL:
        raise ValueError(f"refinement time {t} outside window ({cfg.t_g}, {cfg.t0}]")
    s = _resolve_target_time(t, cfg.refine_dt)
    refined, z = _ancestral_update(predictor, state.x, t, s, rng)
    anchored = sched.alpha(s) * anchor.x + sched.sigma(s) * z
    return LatentState(x=np.where(mcoord, refined, anchored), t=s)


def masked_refine_step(predictor: NoisePredictor, state: LatentState, mask: DefectMask,
                       anchor: LatentState, cfg: ResampleConfig,
                       rng: np.random.Generator) -> LatentState:
    """One refinement step t -> t - dt inside the (t_g, t0] window (one NFE).

    Masked coordinates take a stochastic reverse (ancestral) step; unmasked
    coordinates are reset to the anchor noised to the destination level, so
    the whole state lands at time t - dt. One shared noise draw feeds both
    regions, keeping noise correlated across the mask boundary. At a
    destination of 0 both branches are noiseless, making unmasked outputs
    equal the anchor exactly.
    """
    return _masked_refine(predictor, state, _check_mask(predictor, mask), anchor, cfg, rng)


def _resample(predictor: NoisePredictor, anchor: LatentState, mcoord: np.ndarray,
              cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Renoise, masked refinement and global sweep (cfg.nfe_cost steps);
    returns the clean state. mcoord broadcasts against the anchor, so a
    batch may carry one coordinate mask per row."""
    state = _renoise(predictor, anchor, mcoord, cfg, rng)
    for _ in range(cfg.n_refine):
        state = _masked_refine(predictor, state, mcoord, anchor, cfg, rng)
    times = np.linspace(cfg.t_g, 0.0, cfg.n_integrate + 1)
    return _reverse_sweep(predictor, state, times, rng)


def localized_resample(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
                       cfg: ResampleConfig, verifier, rng: np.random.Generator
                       ) -> tuple[LatentState, float]:
    """Full localized refinement: renoise, masked refinement, global sweep.

    Returns the refined clean state and its verifier score. Consumes
    exactly cfg.n_refine + cfg.n_integrate oracle evaluations.
    """
    state = _resample(predictor, anchor, _check_mask(predictor, mask), cfg, rng)
    return state, verifier(state)
