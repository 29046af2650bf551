"""Mask-aware localized resampling.

A clean anchor state is re-noised to an intermediate time t0 (with
independent noise inside and outside the mask so noise levels match across
the boundary), refined from t0 down to a hand-off time t_g with the
unmasked coordinates pinned to freshly-noised copies of the anchor, and
finally swept from t_g to 0 with plain stochastic reverse steps to restore
full-state coherence.

Each step consumes one oracle evaluation per row (a refinement step evaluates
only the masked patches, which are independent of the others), so a full call
costs n_refine + n_integrate NFEs. The refinement phase builds the unmasked
background once, after its last step, and each phase checks its state once.
With t_g = 0 the integration phase is empty and unmasked coordinates of the
output equal the anchor bit-exactly.
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


def _check_mask(predictor: NoisePredictor, mask: DefectMask, state: LatentState) -> np.ndarray:
    if mask.grid != predictor.world.grid:
        raise ValueError(f"mask grid {mask.grid} does not match world grid {predictor.world.grid}")
    return np.broadcast_to(mask.bits, (*state.x.shape[:-1], mask.bits.size))


def _renoise(predictor: NoisePredictor, anchor: LatentState, bits: np.ndarray,
             cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    z_bg = rng.standard_normal(anchor.x.shape)
    z_mask = rng.standard_normal(anchor.x.shape)
    mcoord = predictor.world.coordinate_mask(bits)
    return forward_noise(predictor.schedule, anchor, cfg.t0, np.where(mcoord, z_mask, z_bg))


def renoise(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
            cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Forward-noise the anchor to t0 with region-blended noise.

    x_t0 = alpha(t0) anchor + sigma(t0) ((1-M) z_bg + M z_mask); both
    regions end up at the same noise level, only the masked region's noise
    is decoupled from the background's.
    """
    return _renoise(predictor, anchor, _check_mask(predictor, mask, anchor), cfg, rng)


def _masked_refine(predictor: NoisePredictor, x: np.ndarray, t: float, patches: tuple,
                   anchor: LatentState, cfg: ResampleConfig, steps: int,
                   rng: np.random.Generator) -> LatentState:
    """steps refinement steps from time t of the selected patches alone: their
    (P, d) rows are carried and written into x, the state buffer each oracle call
    reads, which is overwritten; the unmasked background is built once, after the last step."""
    sched, view, index = predictor.schedule, predictor.world.patch_view(x), patches[0]
    rows, t = view[index], sched.check_time(t)
    for step in range(steps):
        if not cfg.t_g < t <= cfg.t0 + _TIME_TOL:
            raise ValueError(f"refinement time {t} outside window ({cfg.t_g}, {cfg.t0}]")
        if step:
            view[index] = rows
        s = _resolve_target_time(t, cfg.refine_dt)
        (rows, z), t = _ancestral_update(predictor, x, t, s, rng, patches, rows), s
    np.multiply(sched.alpha(t), anchor.x, out=x)  # the anchor noised by the last step's noise
    x += sched.sigma(t) * z
    view[index] = rows
    return LatentState(x=x, t=t)


def masked_refine_step(predictor: NoisePredictor, state: LatentState, mask: DefectMask,
                       anchor: LatentState, cfg: ResampleConfig,
                       rng: np.random.Generator) -> LatentState:
    """One refinement step t -> t - dt inside the (t_g, t0] window (one NFE).

    Masked coordinates take a stochastic reverse (ancestral) step; unmasked
    coordinates are reset to the anchor noised to the destination level, so
    the whole state lands at time t - dt. One shared noise draw feeds both
    regions, keeping noise correlated across the mask boundary. At a
    destination of 0 both branches are noiseless, making unmasked outputs
    equal the anchor exactly. The one-step case of the refinement phase.
    """
    bits = _check_mask(predictor, mask, state)
    return _masked_refine(predictor, state.x.copy(), state.t, predictor.world.select(bits),
                          anchor, cfg, 1, rng)


def _resample(predictor: NoisePredictor, anchor: LatentState, bits: np.ndarray,
              cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Renoise, masked refinement and global sweep (cfg.nfe_cost steps);
    returns the clean state. bits holds one (n_patches,) mask per anchor row;
    the masked patches are selected once for every refinement step, which
    write into the renoised state's buffer."""
    noised = _renoise(predictor, anchor, bits, cfg, rng)
    state = _masked_refine(predictor, noised.x, noised.t, predictor.world.select(bits), anchor,
                           cfg, cfg.n_refine, rng)
    steps = -np.diff(np.linspace(cfg.t_g, 0.0, cfg.n_integrate + 1))
    return _reverse_sweep(predictor, state, steps, rng)


def localized_resample(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
                       cfg: ResampleConfig, verifier, rng: np.random.Generator
                       ) -> tuple[LatentState, float]:
    """Full localized refinement: renoise, masked refinement, global sweep.

    Returns the refined clean state and its verifier score. Consumes
    exactly cfg.n_refine + cfg.n_integrate oracle evaluations.
    """
    state = _resample(predictor, anchor, _check_mask(predictor, mask, anchor), cfg, rng)
    return state, verifier(state)
