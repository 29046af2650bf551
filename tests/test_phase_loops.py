"""The reverse sweep and the masked refinement carry their arrays from step to
step and check the state once, after the last step. These tests hold them to
their one-step cases bit for bit, and check that a non-finite value is still
caught by the end of its phase and that every phase still costs rows x steps
oracle evaluations of full (rows, dim) states.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from localtts.attention import mask_from_indices
from localtts.resample import (
    ResampleConfig,
    _masked_refine,
    _renoise,
    _resample,
    masked_refine_step,
    renoise,
)
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _ancestral_update,
    _reverse_sweep,
    reverse_sde_step,
    sample_base,
)

SHAPES = [(), (5,)]


def make_predictor(k: int, d: int, n_steps: int = 6) -> NoisePredictor:
    """A 2 x 3 world whose k components differ in weight, mean and variance."""
    weights = np.arange(1.0, k + 1) / (k * (k + 1) / 2)
    components = [(w, np.linspace(-1.0, 1.0, d) * (j - k / 2), 0.05 + 0.1 * j)
                  for j, w in enumerate(weights)]
    world = PatchWorld.uniform((2, 3), d, components)
    return NoisePredictor(world=world, schedule=CosineSchedule(horizon=1.0, n_steps=n_steps))


def same(a: LatentState, b: LatentState) -> bool:
    return a.t == b.t and a.x.shape == b.x.shape and a.x.tobytes() == b.x.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_sweep_equals_its_steps_one_by_one(k, d, shape):
    predictor = make_predictor(k, d)
    x = np.random.default_rng(1).normal(size=(*shape, predictor.world.dim))
    state = LatentState(x=x, t=0.9)
    steps = [0.2, 0.15, 0.3, 0.25]  # down to 0, where the last step adds no noise
    swept = _reverse_sweep(predictor, state, steps, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    for dt in steps:
        state = reverse_sde_step(predictor, state, dt, rng)
    assert same(swept, state) and swept.t == 0.0
    assert np.array_equal(x, np.random.default_rng(1).normal(size=x.shape))  # input untouched


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_step_keeps_the_bits_of_the_three_term_formula(k, masked):
    # x_s = coef_x x + coef_x0 denoised + noise_std z, evaluated as one expression
    predictor = make_predictor(k, 2)
    world, sched = predictor.world, predictor.schedule
    x = np.random.default_rng(6).normal(size=(4, world.dim))
    bits = np.broadcast_to(mask_from_indices(world.grid, [1, 3]).bits, (4, world.n_patches))
    patches = world.select(bits) if masked else None
    t, s = 0.5, 0.3
    view = world.patch_view(x)
    rows = view[patches[0]] if masked else None
    got, z = _ancestral_update(predictor, x, t, s, np.random.default_rng(7), patches, rows)
    denoised = predictor.evaluate(x, t, patches)
    a_t, s_t, a_s, s_s = sched.alpha(t), sched.sigma(t), sched.alpha(s), sched.sigma(s)
    var_ts = max(s_t * s_t - (a_t / a_s) ** 2 * s_s * s_s, 0.0)
    coef_x, coef_x0 = (a_t / a_s) * (s_s * s_s) / (s_t * s_t), a_s * var_ts / (s_t * s_t)
    noise_std = math.sqrt(var_ts * (s_s * s_s) / (s_t * s_t))
    xs, zs = (view[patches[0]], world.patch_view(z)[patches[0]]) if masked else (x, z)
    want = coef_x * xs + coef_x0 * denoised + noise_std * zs
    assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


RESAMPLES = [(0.0, 3, 0), (0.15, 3, 2), (0.15, 1, 1), (0.0, 1, 0)]  # (t_g, n_refine, n_integrate)


@pytest.mark.parametrize("t_g, n_refine, n_integrate", RESAMPLES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_resample_equals_its_steps_one_by_one(k, d, shape, t_g, n_refine, n_integrate):
    # renoise, n_refine masked_refine_step calls, then n_integrate reverse steps
    predictor = make_predictor(k, d)
    world = predictor.world
    anchor = LatentState(x=np.random.default_rng(4).normal(size=(*shape, world.dim)), t=0.0)
    mask = mask_from_indices(world.grid, [1, 4])
    cfg = ResampleConfig(t0=0.6, t_g=t_g, n_refine=n_refine, n_integrate=n_integrate)
    bits = np.broadcast_to(mask.bits, (*shape, world.n_patches))
    got = _resample(predictor, anchor, bits, cfg, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    state = renoise(predictor, anchor, mask, cfg, rng)
    for _ in range(n_refine):
        state = masked_refine_step(predictor, state, mask, anchor, cfg, rng)
    times = np.linspace(t_g, 0.0, n_integrate + 1)
    for t_cur, t_next in zip(times[:-1], times[1:]):
        state = reverse_sde_step(predictor, state, float(t_cur - t_next), rng)
    assert same(got, state) and got.t == 0.0


@pytest.mark.parametrize("t_g, n_refine, n_integrate", RESAMPLES)
@pytest.mark.parametrize("k", [1, 3, 9])
def test_resample_with_a_mask_per_row_equals_its_steps(k, t_g, n_refine, n_integrate):
    # one mask per row, one of them empty and one full, each step a one-step refinement
    predictor = make_predictor(k, 2)
    world = predictor.world
    rng = np.random.default_rng(8)
    anchor = LatentState(x=rng.normal(size=(6, world.dim)), t=0.0)
    bits = (rng.random((6, world.n_patches)) < 0.4).astype(np.uint8)
    bits[0], bits[1] = 0, 1
    cfg = ResampleConfig(t0=0.6, t_g=t_g, n_refine=n_refine, n_integrate=n_integrate)
    got = _resample(predictor, anchor, bits, cfg, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    state = _renoise(predictor, anchor, bits, cfg, rng)
    for _ in range(n_refine):
        state = _masked_refine(predictor, state.x.copy(), state.t, world.select(bits), anchor,
                               cfg, 1, rng)
    times = np.linspace(t_g, 0.0, n_integrate + 1)
    state = _reverse_sweep(predictor, state, times[:-1] - times[1:], rng)
    assert same(got, state)


def poisoned_evaluate(monkeypatch, bad_call: int) -> list:
    """Make NoisePredictor.evaluate put inf in its result at call bad_call
    (0-based); returns the shapes of the states it was called on."""
    calls, evaluate = [], NoisePredictor.evaluate

    def patched(self, x, t, patches=None):
        out = evaluate(self, x, t, patches)
        calls.append(np.shape(x))
        if len(calls) == bad_call + 1:
            out[(0,) * out.ndim] = np.inf
        return out

    monkeypatch.setattr(NoisePredictor, "evaluate", patched)
    return calls


@pytest.mark.parametrize("bad_call", [0, 2, 5])
def test_non_finite_mid_sweep_raises_by_its_end(monkeypatch, bad_call):
    predictor = make_predictor(3, 2, n_steps=6)
    calls = poisoned_evaluate(monkeypatch, bad_call)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        sample_base(predictor, np.random.default_rng(0), shape=(4,))
    assert len(calls) == 6  # the whole sweep ran, then its one check


@pytest.mark.parametrize("bad_call", [0, 2, 3])
def test_non_finite_mid_refinement_raises_by_its_end(monkeypatch, bad_call):
    predictor = make_predictor(3, 2)
    world = predictor.world
    anchor = LatentState(x=np.random.default_rng(4).normal(size=(4, world.dim)), t=0.0)
    bits = np.broadcast_to(mask_from_indices(world.grid, [0, 5]).bits, (4, world.n_patches))
    cfg = ResampleConfig(t0=0.6, t_g=0.15, n_refine=4, n_integrate=2)
    calls = poisoned_evaluate(monkeypatch, bad_call)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        _resample(predictor, anchor, bits, cfg, np.random.default_rng(0))
    assert len(calls) == 4  # the refinement ran and was checked before the global sweep


def test_each_phase_costs_rows_times_steps_of_full_states(monkeypatch):
    predictor = make_predictor(3, 2)
    world = predictor.world
    calls = poisoned_evaluate(monkeypatch, -1)  # records shapes, poisons nothing
    anchor = LatentState(x=np.random.default_rng(4).normal(size=(5, world.dim)), t=0.0)
    bits = np.broadcast_to(mask_from_indices(world.grid, [2]).bits, (5, world.n_patches))
    cfg = ResampleConfig(t0=0.6, t_g=0.15, n_refine=4, n_integrate=3)
    state = _renoise(predictor, anchor, bits, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    state = _masked_refine(predictor, state.x, state.t, world.select(bits), anchor, cfg, 4, rng)
    assert predictor.nfe == 5 * 4
    _reverse_sweep(predictor, state, [0.05] * 3, rng)
    assert predictor.nfe == 5 * (4 + 3)
    sample_base(predictor, rng, shape=(5,))
    assert predictor.nfe == 5 * (4 + 3 + 6)
    assert calls == [(5, world.dim)] * (4 + 3 + 6)  # the counted shape, whatever the patches
