"""The reverse sweep and the masked refinement carry their arrays in the
oracle's column layout from step to step and check the state once, after the
last step. These tests hold them to their one-step cases bit for bit, hold a
phase's constant tables to the expressions once evaluated at every step, run
them on worlds whose constants have one shared column and one column a patch, and
check that a non-finite value is still caught by the end of its phase and that
every phase still costs rows x steps oracle evaluations of full (rows, dim) states.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from localtts.attention import mask_from_indices
from localtts.errors import FieldErrors
from localtts.resample import ResampleConfig, _masked_refine, _renoise, _resample
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _ancestral_coefficients,
    _ancestral_phase,
    _at_time,
    _oracle_terms,
    _Phase,
    _reverse_sweep,
    sample_base,
)

SHAPES = [(), (5,)]


def make_predictor(k: int, d: int, n_steps: int = 6, nudged: bool = False) -> NoisePredictor:
    """A 2 x 3 world whose k components differ in weight, mean and variance; the
    oracle keeps one column of constants for it, or, nudged (the last patch's
    first variance raised), one column a patch."""
    weights = np.arange(1.0, k + 1) / (k * (k + 1) / 2)
    components = [(w, np.linspace(-1.0, 1.0, d) * (j - k / 2), 0.05 + 0.1 * j)
                  for j, w in enumerate(weights)]
    world = PatchWorld.uniform((2, 3), d, components)
    if nudged:
        variances = world.variances.copy()
        variances[-1, 0] += 0.01
        world = PatchWorld(grid=world.grid, patch_dim=d, weights=world.weights,
                           means=world.means, variances=variances,
                           verifier_weights=world.verifier_weights)
    assert world._variances.shape[-1] == (world.n_patches if nudged else 1)
    return NoisePredictor(world=world, schedule=CosineSchedule(horizon=1.0, n_steps=n_steps))


def same(a: LatentState, b: LatentState) -> bool:
    return a.t == b.t and a.x.shape == b.x.shape and a.x.tobytes() == b.x.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4, 9])  # 9: the pairwise tree over coordinates
@pytest.mark.parametrize("k", [1, 3, 9])
def test_sweep_equals_its_steps_one_by_one(k, d, shape, nudged=False):
    predictor = make_predictor(k, d, nudged=nudged)
    x = np.random.default_rng(1).normal(size=(*shape, predictor.world.dim))
    state = LatentState(x=x, t=0.9)
    steps = [0.2, 0.15, 0.3, 0.25]  # down to 0, where the last step adds no noise
    swept = _reverse_sweep(predictor, state, steps, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    for dt in steps:
        state = _reverse_sweep(predictor, state, [dt], rng)
    assert same(swept, state) and swept.t == 0.0
    assert np.array_equal(x, np.random.default_rng(1).normal(size=x.shape))  # input untouched


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4, 9])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_sweep_with_a_column_a_patch_equals_its_steps(k, d, shape):
    # the test above on the nudged world, whose constants keep one column a patch
    test_sweep_equals_its_steps_one_by_one(k, d, shape, nudged=True)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_step_keeps_the_bits_of_the_three_term_formula(k, masked, nudged=False):
    # x_s = coef_x x + coef_x0 denoised + noise_std z, evaluated as one expression
    predictor = make_predictor(k, 2, nudged=nudged)
    world, sched = predictor.world, predictor.schedule
    x = np.random.default_rng(6).normal(size=(4, world.dim))
    bits = np.broadcast_to(mask_from_indices(world.grid, [1, 3]).bits, (4, world.n_patches))
    patches = world.select(bits) if masked else None
    t, s = 0.5, 0.3
    view = world.patch_view(x)
    z = np.random.default_rng(7).standard_normal((1, *x.shape))
    out = np.zeros_like(x)  # a one-step phase writes only its columns
    _ancestral_phase(predictor, x.copy(), [t, s], z, out, np.empty_like(x), patches)
    got = world.patch_view(out)[patches[0]] if masked else out
    denoised = predictor.evaluate(x, t, patches)
    a_t, s_t, a_s, s_s = sched.alpha(t), sched.sigma(t), sched.alpha(s), sched.sigma(s)
    var_ts = max(s_t * s_t - (a_t / a_s) ** 2 * s_s * s_s, 0.0)
    coef_x, coef_x0 = (a_t / a_s) * (s_s * s_s) / (s_t * s_t), a_s * var_ts / (s_t * s_t)
    noise_std = math.sqrt(var_ts * (s_s * s_s) / (s_t * s_t))
    xs, zs = (view[patches[0]], world.patch_view(z[0])[patches[0]]) if masked else (x, z[0])
    want = coef_x * xs + coef_x0 * denoised + noise_std * zs
    assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert not masked or np.count_nonzero(out) == want.size


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_step_with_a_column_a_patch_keeps_the_bits_of_the_formula(k, masked):
    test_step_keeps_the_bits_of_the_three_term_formula(k, masked, nudged=True)


@pytest.mark.parametrize("k, d", [(1, 2), (3, 4), (9, 1), (3, 9)])
def test_phase_constants_equal_their_per_step_expressions(k, d):
    # one vectorised pass over the step times, np.log included, gives the bits
    # of the expressions once evaluated at every oracle call and every step
    predictor = make_predictor(k, d, n_steps=32)
    world, sched = predictor.world, predictor.schedule
    times = [float(t) for t in sched.step_times()]
    alphas, sigmas = [sched.alpha(t) for t in times], [sched.sigma(t) for t in times]
    phase = _Phase(world, alphas[:-1], [s ** 2 for s in sigmas[:-1]])
    coefficients = _ancestral_coefficients(alphas, sigmas)
    # (K, 1, 1, M) and (K, d, 1, M), as the oracle reads them; the tables hold one
    # column, which broadcasts over the M patches
    variances = world.variances.T[:, None, None]
    log_weights = np.log(world.weights.T)[:, None, None]
    means = world.means.transpose(1, 2, 0)[:, :, None]
    for step, (t, s) in enumerate(zip(times[:-1], times[1:])):
        a, s2 = sched.alpha(t), sched.sigma(t) ** 2
        var_t = a * a * variances + s2
        log_norm = log_weights - 0.5 * d * (np.log(var_t) + math.log(2.0 * math.pi))
        one_time = _Phase(world, [a], [s2])
        for table, single, want in ((phase.centre, one_time.centre, a * means),
                                    (phase.var_t, one_time.var_t, var_t),
                                    (phase.log_norm, one_time.log_norm, log_norm),
                                    (phase.coef, one_time.coef, a * variances / var_t)):
            got = [np.broadcast_to(c, want.shape).tobytes() for c in (table[step], single[0])]
            assert got[0] == got[1] == want.tobytes()
        a_t, s_t, a_s, s_s = sched.alpha(t), sched.sigma(t), sched.alpha(s), sched.sigma(s)
        ratio = a_t / a_s
        var_ts = max(s_t * s_t - ratio * ratio * s_s * s_s, 0.0)
        want = (ratio * (s_s * s_s) / (s_t * s_t), a_s * var_ts / (s_t * s_t),
                math.sqrt(var_ts * (s_s * s_s) / (s_t * s_t)))
        assert np.array(coefficients[step]).tobytes() == np.array(want).tobytes()


RESAMPLES = [(0.0, 3, 0), (0.15, 3, 2), (0.15, 1, 1), (0.0, 1, 0)]  # (t_g, n_refine, n_integrate)


def mask_rows(world: PatchWorld, shape: tuple, per_row: bool) -> np.ndarray:
    """(*shape, n_patches) bits: patches 1 and 4 in every row, or, per_row, a
    random mask per row with the first row empty and the second full."""
    if not per_row:
        return np.broadcast_to(mask_from_indices(world.grid, [1, 4]).bits,
                               (*shape, world.n_patches))
    bits = (np.random.default_rng(8).random((*shape, world.n_patches)) < 0.4).astype(np.uint8)
    bits[0], bits[1] = 0, 1
    return bits


@pytest.mark.parametrize("t_g, n_refine, n_integrate", RESAMPLES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4, 9])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_resample_equals_its_steps_one_by_one(k, d, shape, t_g, n_refine, n_integrate,
                                              per_row=False, nudged=False):
    # the renoise, n_refine one-step refinements, then n_integrate one-step sweeps
    predictor = make_predictor(k, d, nudged=nudged)
    world = predictor.world
    anchor = LatentState(x=np.random.default_rng(4).normal(size=(*shape, world.dim)), t=0.0)
    bits = mask_rows(world, shape, per_row)
    cfg = ResampleConfig(t0=0.6, t_g=t_g, n_refine=n_refine, n_integrate=n_integrate)
    got = _resample(predictor, anchor, bits, cfg, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    state = _renoise(predictor, anchor, cfg, rng)
    for _ in range(n_refine):
        state = _masked_refine(predictor, state.x.copy(), state.t, world.select(bits), anchor,
                               cfg, 1, rng)
    times = np.linspace(t_g, 0.0, n_integrate + 1)
    for t_cur, t_next in zip(times[:-1], times[1:]):
        state = _reverse_sweep(predictor, state, [float(t_cur - t_next)], rng)
    assert same(got, state) and got.t == 0.0


@pytest.mark.parametrize("t_g, n_refine, n_integrate", RESAMPLES)
@pytest.mark.parametrize("k", [1, 3, 9])
def test_resample_with_a_mask_per_row_equals_its_steps(k, t_g, n_refine, n_integrate):
    # the test above with one mask per row, one of them empty and one full
    test_resample_equals_its_steps_one_by_one(k, 2, (6,), t_g, n_refine, n_integrate,
                                              per_row=True)


@pytest.mark.parametrize("t_g, n_refine, n_integrate", RESAMPLES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("d", [1, 2, 4, 9])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_resample_with_a_column_a_patch_equals_its_steps(k, d, shape, t_g, n_refine,
                                                         n_integrate):
    # the refinement's selection gathers the nudged world's constants at its patches
    test_resample_equals_its_steps_one_by_one(k, d, shape, t_g, n_refine, n_integrate,
                                              nudged=True)


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("k", [1, 3])
def test_both_constant_forms_give_the_unchanged_patches_the_same_bits(k, d):
    # the nudged world differs from the shared-column one in the last patch alone
    shared, nudged = (make_predictor(k, d, nudged=n) for n in (False, True))
    world, m = shared.world, shared.world.n_patches

    def kept(x):  # the first m - 1 patches of (..., dim) or (..., m) values, as bytes
        x = np.asarray(x)
        x = x.reshape(*x.shape[:-1], m, -1) if x.shape[-1] == world.dim else x[..., None]
        return np.ascontiguousarray(x[..., :m - 1, :]).tobytes()

    outs = [sample_base(p, np.random.default_rng(5), shape=(7,)).x for p in (shared, nudged)]
    assert kept(outs[0]) == kept(outs[1])
    anchor = LatentState(x=outs[0], t=0.0)
    cfg = ResampleConfig(t0=0.6, t_g=0.15, n_refine=3, n_integrate=2)
    bits = mask_rows(world, (7,), per_row=True)
    outs = [_resample(p, anchor, bits, cfg, np.random.default_rng(6)).x for p in (shared, nudged)]
    assert kept(outs[0]) == kept(outs[1])
    x = np.random.default_rng(7).normal(size=(7, world.dim))
    for t in (1.0, 0.4, 0.0):
        a, s2 = shared.schedule.alpha(t), shared.schedule.sigma(t) ** 2
        terms = [_oracle_terms(*_at_time(p.world, x, a, s2)) for p in (shared, nudged)]
        for got, want in zip(*terms):  # (K, 1 or d, rows, M) and (1, rows, M) terms
            assert kept(got) == kept(want)
        means = [p.evaluate(x, t) for p in (shared, nudged)]
        assert kept(means[0]) == kept(means[1])


def test_a_column_a_patch_phase_holds_no_table_of_centres():
    # 200 steps on a 32 x 32 world, d = 8, K = 3, one variance nudged: tabulated,
    # the centres a mu_k would be 37.5 MB, three times the 12.56 MB of one row's
    # noise; the shared-column world's are 0.04 MB. What a phase holds beyond its
    # other tables, each step's views included, stays below 0.5 MB on both
    components = [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25), (0.2, 1.5, 0.04)]
    shared = PatchWorld.uniform((32, 32), 8, components)
    variances = shared.variances.copy()
    variances[-1, 0] += 0.01
    nudged = PatchWorld(grid=shared.grid, patch_dim=8, weights=shared.weights,
                        means=shared.means, variances=variances,
                        verifier_weights=shared.verifier_weights)
    sched = CosineSchedule(horizon=1.0, n_steps=200)
    times = sched.step_times()[:-1]
    alphas, noise_vars = [sched.alpha(t) for t in times], [sched.sigma(t) ** 2 for t in times]
    held = {}
    for name, world in (("shared", shared), ("nudged", nudged)):
        tracemalloc.start()
        try:
            phase = _Phase(world, alphas, noise_vars)
            held[name] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # less the (steps, K, 1, 1, C) tables of var_t, the log-normaliser and the coefficient
        held[name] -= sum(table[0].base.nbytes for table in (phase.var_t, phase.log_norm,
                                                              phase.coef))
    assert max(held.values()) < 0.5e6, held
    assert len(phase.var_t) == 200 and phase.var_t[0].shape == (3, 1, 1, 1024)


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
    state = _renoise(predictor, anchor, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    state = _masked_refine(predictor, state.x, state.t, world.select(bits), anchor, cfg, 4, rng)
    assert predictor.nfe == 5 * 4
    _reverse_sweep(predictor, state, [0.05] * 3, rng)
    assert predictor.nfe == 5 * (4 + 3)
    sample_base(predictor, rng, shape=(5,))
    assert predictor.nfe == 5 * (4 + 3 + 6)
    assert calls == [(5, world.dim)] * (4 + 3 + 6)  # the counted shape, whatever the patches


@pytest.mark.parametrize("phase, t", [("sweep", 0.0), ("sweep", 1e-300), ("refine", 1e-300)])
def test_step_from_the_end_of_the_schedule_rejected_up_front(phase, t):
    # a step from t = 0, or from within the time tolerance of it, would divide 0 by 0;
    # a refinement from t = 0 is outside its window (t_g, t0], so it starts just above
    predictor = make_predictor(3, 2)
    x = np.random.default_rng(0).normal(size=(2, predictor.world.dim))
    rng = np.random.default_rng(1)
    if phase == "sweep":
        def run():
            return _reverse_sweep(predictor, LatentState(x=x, t=t), [max(t, 1e-13)], rng)

        # a step from 0 after a step to 0, also rejected before the first evaluation
        with pytest.raises(ValueError, match="reverse step of size 1e-13 starts at time 0.0"):
            _reverse_sweep(predictor, LatentState(x=x, t=0.5), [0.5, 1e-13], rng)
    else:
        # ResampleConfig rejects such a pass itself; the kernel guards a window of any start
        with pytest.raises(FieldErrors, match="t0: leaves the last reverse step starting"):
            ResampleConfig(t0=t, t_g=0.0, n_refine=1, n_integrate=0)
        cfg = ResampleConfig(t0=0.5, t_g=0.0, n_refine=1, n_integrate=0)
        anchor = LatentState(x=np.zeros_like(x), t=0.0)
        bits = np.ones((2, predictor.world.n_patches), dtype=bool)

        def run():
            return _masked_refine(predictor, x.copy(), t, predictor.world.select(bits), anchor,
                                  cfg, 1, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"reverse step of size .* starts at time"):
            run()
    assert predictor.nfe == 0
