"""Mask-aware localized resampling.

A clean anchor state is re-noised to an intermediate time t0 (the masked
coordinates get their own draw), refined from t0 down to a hand-off time t_g
with the unmasked coordinates pinned to freshly-noised copies of the anchor
(the background is rebuilt from the last refinement step's noise, so both
regions leave the phase at one noise level), and finally swept from t_g to 0
with plain stochastic reverse steps to restore full-state coherence.

Each step consumes one oracle evaluation per row (a refinement step evaluates
only the masked patches, which are independent of the others), so a full call
costs n_refine + n_integrate NFEs. Each phase carries its state in the
oracle's column layout from step to step (testbed._Phase); the refinement phase
builds the unmasked background once, after its last step, and each phase checks
its state once.
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
    _ancestral_phase,
    _resolve_target_time,
    _reverse_sweep,
    _time_tol,
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
        # a reverse step that starts within _TIME_TOL of 0 would divide 0 by 0
        field = "t_g" if self.n_integrate else "t0"
        check([(self.last_start >= _TIME_TOL, field, f"leaves the last reverse step starting "
                f"within {_TIME_TOL} of 0, got {getattr(self, field)}")])

    @property
    def refine_dt(self) -> float:
        return (self.t0 - self.t_g) / self.n_refine

    @property
    def last_start(self) -> float:
        """A lower bound of the smallest time a step of the pass starts from: the
        last integration step's, or with no integration (t_g = 0) the last
        refinement step's, less the rounding of the nfe_cost time subtractions
        that reach it (at most an ulp of t0 each, two to spare)."""
        start = self.t_g / self.n_integrate if self.n_integrate else self.refine_dt
        return start - (self.nfe_cost + 2) * np.finfo(float).eps * self.t0

    @property
    def time_tol(self) -> float:
        """The snap-to-0 tolerance of the pass's times, every one reached from t0."""
        return _time_tol(self.t0, self.nfe_cost)

    @property
    def nfe_cost(self) -> int:
        return self.n_refine + self.n_integrate


def _renoise(predictor: NoisePredictor, anchor: LatentState, cfg: ResampleConfig,
             rng: np.random.Generator) -> LatentState:
    """The anchor noised to t0, alpha(t0) anchor + sigma(t0) z_mask. Only its masked
    coordinates are read: _masked_refine rebuilds the background from its last step's
    noise. The background draw z_bg before z_mask is unread; it positions the stream."""
    rng.standard_normal(anchor.x.shape)  # z_bg
    return forward_noise(predictor.schedule, anchor, cfg.t0, rng.standard_normal(anchor.x.shape))


def _masked_refine(predictor: NoisePredictor, x: np.ndarray, t: float, patches: tuple,
                   anchor: LatentState, cfg: ResampleConfig, steps: int,
                   rng: np.random.Generator) -> LatentState:
    """steps refinement steps from time t of the selected patches alone
    (PatchWorld.select), one phase whose noise is drawn at once: the phase
    gathers their columns from x, the renoised state, and carries them packed
    at the front of x, whose buffer is overwritten; the unmasked background
    (the anchor noised by the last step's noise) is built once, after the last step."""
    sched, times = predictor.schedule, [predictor.schedule.check_time(t)]
    for _ in range(steps):
        if not cfg.t_g < times[-1] <= cfg.t0 + _TIME_TOL:
            raise ValueError(f"refinement time {times[-1]} outside window ({cfg.t_g}, {cfg.t0}]")
        times.append(_resolve_target_time(times[-1], cfg.refine_dt, cfg.time_tol))
    z = rng.standard_normal((steps, *x.shape))
    out = sched.alpha(times[-1]) * anchor.x
    out += sched.sigma(times[-1]) * z[-1]
    _ancestral_phase(predictor, x, times, z, out, x, patches)
    return LatentState(x=out, t=times[-1])


def _resample(predictor: NoisePredictor, anchor: LatentState, bits: np.ndarray,
              cfg: ResampleConfig, rng: np.random.Generator) -> LatentState:
    """Renoise, masked refinement and global sweep (cfg.nfe_cost steps); returns the clean
    state. bits holds one (n_patches,) mask per anchor row; the masked patches are selected
    once, the refinement phase carries their columns in the renoised state's buffer and
    rebuilds the background from the last refinement step's noise."""
    noised = _renoise(predictor, anchor, cfg, rng)
    state = _masked_refine(predictor, noised.x, noised.t, predictor.world.select(bits), anchor,
                           cfg, cfg.n_refine, rng)
    steps = -np.diff(np.linspace(cfg.t_g, 0.0, cfg.n_integrate + 1))
    return _reverse_sweep(predictor, state, steps, rng, cfg.time_tol)


def localized_resample(predictor: NoisePredictor, anchor: LatentState, mask: DefectMask,
                       cfg: ResampleConfig, verifier, rng: np.random.Generator
                       ) -> tuple[LatentState, float]:
    """Full localized refinement: renoise, masked refinement, global sweep.

    Returns the refined clean state and its verifier score. Consumes
    exactly cfg.n_refine + cfg.n_integrate oracle evaluations.
    """
    if mask.grid != predictor.world.grid:
        raise ValueError(f"mask grid {mask.grid} does not match world grid {predictor.world.grid}")
    bits = np.broadcast_to(mask.bits, (*anchor.x.shape[:-1], mask.bits.size))
    state = _resample(predictor, anchor, bits, cfg, rng)
    return state, verifier(state)
