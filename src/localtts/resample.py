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
    LatentState,
    NoisePredictor,
    _ancestral_coefficients,
    _resolve_target_time,
    reverse_sde_step,
)


@dataclass(frozen=True)
class ResampleConfig:
    """Timing of one localized refinement pass.

    t0 is the re-noise time, t_g the hand-off to the global sweep,
    n_refine the number of masked refinement steps between them, and
    n_integrate the number of plain reverse steps from t_g to 0 (zero iff
    t_g is zero). The default tail is a brief sweep: t_g = 0.1 * t0.
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
            (self.t_g != 0.0 or self.n_integrate == 0, "n_integrate",
             f"must be 0 when t_g is 0, got {self.n_integrate}"),
            (not self.t_g > 0.0 or self.n_integrate >= 1, "n_integrate",
             f"must be at least 1 when t_g > 0, got {self.n_integrate}"),
        ])

    @classmethod
    def with_default_tail(cls, t0: float, n_refine: int, n_integrate: int = 1,
                          tail_fraction: float = 0.1) -> "ResampleConfig":
        t_g = tail_fraction * t0
        return cls(t0=t0, t_g=t_g, n_refine=n_refine,
                   n_integrate=n_integrate if t_g > 0 else 0)

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


def renoise(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
            cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Re-noise the anchor to t0 with independent noise per region.

    x_t0 = alpha(t0) anchor + sigma(t0) ((1-M) z_bg + M z_mask); both
    regions end up at the same noise level, only the masked region's noise
    is decoupled from the background's.
    """
    if abs(anchor.t) > _TIME_TOL:
        raise ValueError(f"anchor must be at t=0, got t={anchor.t}")
    sched = predictor.schedule
    t0 = sched.check_time(cfg.t0)
    mcoord = _check_mask(predictor, mask)
    z_bg = rng.standard_normal(anchor.x.shape)
    z_mask = rng.standard_normal(anchor.x.shape)
    z = np.where(mcoord, z_mask, z_bg)
    return LatentState(x=sched.alpha(t0) * anchor.x + sched.sigma(t0) * z, t=t0)


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
    sched = predictor.schedule
    t = sched.check_time(state.t)
    if not cfg.t_g < t <= cfg.t0 + _TIME_TOL:
        raise ValueError(f"refinement time {t} outside window ({cfg.t_g}, {cfg.t0}]")
    s = _resolve_target_time(t, cfg.refine_dt)
    mcoord = _check_mask(predictor, mask)
    ev = predictor.evaluate(state.x, t)
    coef_x, coef_x0, noise_std = _ancestral_coefficients(sched, t, s)
    z = rng.standard_normal(state.x.shape)
    refined = coef_x * state.x + coef_x0 * ev.denoised + noise_std * z
    anchored = sched.alpha(s) * anchor.x + sched.sigma(s) * z
    return LatentState(x=np.where(mcoord, refined, anchored), t=s)


def localized_resample(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
                       cfg: ResampleConfig, verifier, rng: np.random.Generator
                       ) -> tuple[LatentState, float]:
    """Full localized refinement: renoise, masked refinement, global sweep.

    Returns the refined clean state and its verifier score. Consumes
    exactly cfg.n_refine + cfg.n_integrate oracle evaluations.
    """
    state = renoise(predictor, anchor, mask, cfg, rng)
    for _ in range(cfg.n_refine):
        state = masked_refine_step(predictor, state, mask, anchor, cfg, rng)
    if cfg.t_g > 0.0:
        times = np.linspace(cfg.t_g, 0.0, cfg.n_integrate + 1)
        for t_cur, t_next in zip(times[:-1], times[1:]):
            state = reverse_sde_step(predictor, state, float(t_cur - t_next), rng)
    return state, verifier(state)
