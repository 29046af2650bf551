import math

import numpy as np
import pytest
from scipy.stats import binomtest

from localtts.attention import mask_from_indices
from localtts import resample
from localtts.resample import ResampleConfig, _masked_refine, _resample, localized_resample
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _inject_rows,
    _reverse_sweep,
    sample_base,
    verifier_score,
)


def make_setup(grid=(4, 4), dim=2, var=0.09, n_steps=32, mean=0.0):
    world = PatchWorld.uniform(grid, dim, [(1.0, mean, var)])
    sched = CosineSchedule(horizon=1.0, n_steps=n_steps)
    return world, sched, NoisePredictor(world=world, schedule=sched)


def world_verifier(world):
    return lambda state: verifier_score(world, state)


class TestResampleConfig:
    def test_ordering_invariants(self):
        with pytest.raises(ValueError, match="t_g"):
            ResampleConfig(t0=0.4, t_g=0.5, n_refine=4, n_integrate=1)
        with pytest.raises(ValueError, match="t_g"):
            ResampleConfig(t0=0.4, t_g=0.4, n_refine=4, n_integrate=1)
        with pytest.raises(ValueError, match="positive"):
            ResampleConfig(t0=0.0, t_g=0.0, n_refine=4, n_integrate=0)

    def test_integration_step_rules(self):
        with pytest.raises(ValueError, match="n_integrate"):
            ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=1)
        with pytest.raises(ValueError, match="n_integrate"):
            ResampleConfig(t0=0.4, t_g=0.1, n_refine=4, n_integrate=0)

    def test_costs(self):
        cfg = ResampleConfig(t0=0.5, t_g=0.05, n_refine=10, n_integrate=2)
        assert cfg.refine_dt == pytest.approx(0.045)
        assert cfg.nfe_cost == 12

    def test_step_count_is_capped_like_the_schedule(self):
        cap = CosineSchedule.MAX_STEPS
        assert ResampleConfig(t0=0.4, t_g=0.1, n_refine=cap - 1, n_integrate=1).nfe_cost == cap
        with pytest.raises(ValueError) as err:
            ResampleConfig(t0=0.4, t_g=0.1, n_refine=cap, n_integrate=1)
        assert err.value.errors == [
            f"n_refine: plus n_integrate must be at most {cap}, got {cap + 1}"]


def renoised(monkeypatch) -> list:
    """The renoised states _resample hands its refinement, recorded as copies (the
    refinement overwrites its input)."""
    seen, refine = [], resample._masked_refine

    def recording(predictor, x, *args):
        seen.append(x.copy())
        return refine(predictor, x, *args)

    monkeypatch.setattr(resample, "_masked_refine", recording)
    return seen


def noise(seed: int, shape: tuple, steps: int = 1) -> np.ndarray:
    """A phase's (steps, *shape) noise, drawn from default_rng(seed)."""
    return np.random.default_rng(seed).standard_normal((steps, *shape))


class TestRenoise:
    # a pass's draw holds the background's noise z_bg, then the masked noise z_mask, and
    # the pass renoises with z_mask alone: _masked_refine reads only the masked coordinates
    # and rebuilds the background from its last step's noise, so z_bg only keeps the later
    # slices in place

    def test_empty_mask_is_plain_forward_noise(self, monkeypatch):
        world, sched, predictor = make_setup()
        rng = np.random.default_rng(0)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=0)
        twin = np.random.default_rng(5)
        expected_z = twin.standard_normal((cfg.draws, world.dim))[1]  # background slice first
        rng, seen = np.random.default_rng(5), renoised(monkeypatch)
        localized_resample(predictor, anchor, mask_from_indices(world.grid, []), cfg,
                           world_verifier(world), rng)
        np.testing.assert_allclose(
            seen[0], sched.alpha(0.4) * anchor.x + sched.sigma(0.4) * expected_z)
        assert rng.bit_generator.state == twin.bit_generator.state  # one draw, no more

    def test_full_mask_uses_the_decoupled_draw(self, monkeypatch):
        world, sched, predictor = make_setup()
        anchor = LatentState(x=np.zeros(world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=0)
        expected_z = noise(6, (world.dim,), cfg.draws)[1]  # the second slice is the masked one
        seen = renoised(monkeypatch)
        localized_resample(predictor, anchor, mask_from_indices(world.grid, range(16)), cfg,
                           world_verifier(world), np.random.default_rng(6))
        np.testing.assert_allclose(seen[0], sched.sigma(0.4) * expected_z)

    def test_noise_level_matches_in_both_regions(self, monkeypatch):
        world, sched, predictor = make_setup(grid=(2, 2))
        rng = np.random.default_rng(1)
        trials = 10_000
        anchor = LatentState(x=np.tile(rng.normal(size=world.dim), (trials, 1)), t=0.0)
        mask = mask_from_indices(world.grid, [0, 3])
        mcoord = world.coordinate_mask(mask.bits)
        cfg = ResampleConfig(t0=0.55, t_g=0.0, n_refine=4, n_integrate=0)
        seen = renoised(monkeypatch)
        localized_resample(predictor, anchor, mask, cfg, lambda state: 0.0, rng)
        centered = (seen[0] - sched.alpha(0.55) * anchor.x)[:, mcoord]  # what the refinement reads
        var = centered.var(axis=0, ddof=1)
        target = sched.sigma(0.55) ** 2
        se = target * math.sqrt(2.0 / (trials - 1))
        assert np.all(np.abs(var - target) < 3 * se)

    def test_grid_and_time_validation(self):
        world, sched, predictor = make_setup(grid=(2, 2))
        anchor = LatentState(x=np.zeros(world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=0)
        empty = mask_from_indices(world.grid, [])

        def run(state, cfg, mask=empty):
            return localized_resample(predictor, state, mask, cfg, world_verifier(world),
                                      np.random.default_rng(0))

        with pytest.raises(ValueError, match="grid"):
            run(anchor, cfg, mask_from_indices((1, 4), []))
        with pytest.raises(ValueError, match="outside"):
            run(anchor, ResampleConfig(t0=1.5, t_g=0.0, n_refine=4, n_integrate=0))
        with pytest.raises(ValueError, match="t=0"):
            run(LatentState(x=np.zeros(world.dim), t=0.3), cfg)


@pytest.mark.parametrize("rows", [(), (5,)])
@pytest.mark.parametrize("t_g, n_integrate", [(0.0, 0), (0.1, 2)])
def test_one_draw_of_a_pass_is_its_four_draws(rows, t_g, n_integrate):
    # a pass's one (cfg.draws, ..., dim) draw has the bits and the generator state of the
    # four draws it replaced: z_bg, z_mask, the refinement block and the integration block;
    # a draw one slice short or one long is rejected before the first oracle evaluation
    world, sched, predictor = make_setup()
    cfg = ResampleConfig(t0=0.4, t_g=t_g, n_refine=3, n_integrate=n_integrate)
    shape = (*rows, world.dim)
    one, four = np.random.default_rng(8), np.random.default_rng(8)
    drawn = one.standard_normal((cfg.draws, *shape))
    blocks = [four.standard_normal(shape)[None], four.standard_normal(shape)[None],
              four.standard_normal((cfg.n_refine, *shape)),
              four.standard_normal((cfg.n_integrate, *shape))]
    assert drawn.tobytes() == np.concatenate(blocks).tobytes()
    assert one.bit_generator.state == four.bit_generator.state
    anchor = LatentState(x=np.zeros(shape), t=0.0)
    bits = np.ones((*rows, world.n_patches), dtype=np.uint8)
    for wrong in (drawn[1:], np.concatenate([drawn, drawn[:1]])):
        with pytest.raises(ValueError, match=f"for a pass of {cfg.draws} .* noise slices"):
            _resample(predictor, anchor, bits, cfg, wrong)
    assert predictor.nfe == 0


class TestMaskedRefineStep:
    def test_all_zero_mask_resets_to_noised_anchor(self):
        world, sched, predictor = make_setup(grid=(2, 2))
        rng = np.random.default_rng(2)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=0)
        state_a = LatentState(x=rng.normal(size=world.dim), t=0.4)
        state_b = LatentState(x=state_a.x + 50.0, t=0.4)
        z = noise(9, (world.dim,))
        s = 0.4 - cfg.refine_dt
        patches = world.select(np.zeros(world.n_patches))
        out_a = _masked_refine(predictor, state_a.x.copy(), state_a.t, patches, anchor, cfg, z)
        out_b = _masked_refine(predictor, state_b.x.copy(), state_b.t, patches, anchor, cfg, z)
        expected = sched.alpha(s) * anchor.x + sched.sigma(s) * z[0]
        np.testing.assert_allclose(out_a.x, expected)
        np.testing.assert_array_equal(out_a.x, out_b.x)  # independent of x_t

    def test_all_one_mask_is_a_plain_stochastic_reverse_step(self):
        world, sched, predictor = make_setup(grid=(2, 2))
        rng = np.random.default_rng(3)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        state = LatentState(x=rng.normal(size=world.dim), t=0.4)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=4, n_integrate=0)
        z = noise(11, (world.dim,))
        out = _masked_refine(predictor, state.x.copy(), state.t,
                             world.select(np.ones(world.n_patches)), anchor, cfg, z)
        plain = _reverse_sweep(predictor, state, [cfg.refine_dt], z)
        np.testing.assert_array_equal(out.x, plain.x)

    def test_hand_computed_two_patch_update(self):
        # d=1, two patches, single-Gaussian target: both branches by hand
        world = PatchWorld.uniform((1, 2), 1, [(1.0, 0.5, 0.16)])
        sched = CosineSchedule(horizon=1.0, n_steps=10)
        predictor = NoisePredictor(world=world, schedule=sched)
        anchor = LatentState(x=np.array([0.2, -0.3]), t=0.0)
        state = LatentState(x=np.array([1.0, 0.8]), t=0.5)
        cfg = ResampleConfig(t0=0.5, t_g=0.1, n_refine=4, n_integrate=1)
        mask = mask_from_indices(world.grid, [1])
        z = noise(13, (2,))[0]
        out = _masked_refine(predictor, state.x.copy(), state.t, world.select(mask.bits), anchor,
                             cfg, z[None])
        t, s = 0.5, 0.5 - cfg.refine_dt
        a_t, s_t = sched.alpha(t), sched.sigma(t)
        a_s, s_s = sched.alpha(s), sched.sigma(s)
        var_t = a_t * a_t * 0.16 + s_t * s_t
        xhat0 = 0.5 + a_t * 0.16 * (state.x[1] - a_t * 0.5) / var_t
        ratio = a_t / a_s
        var_ts = s_t ** 2 - ratio ** 2 * s_s ** 2
        mean = (ratio * s_s ** 2 / s_t ** 2) * state.x[1] \
            + (a_s * var_ts / s_t ** 2) * xhat0
        std = math.sqrt(var_ts * s_s ** 2 / s_t ** 2)
        expected_masked = mean + std * z[1]
        expected_anchor = a_s * anchor.x[0] + s_s * z[0]
        np.testing.assert_allclose(out.x, [expected_anchor, expected_masked], rtol=1e-12)

    @pytest.mark.parametrize("t_g, step", [(0.1, 0), (0.1, 2), (0.0, 2)])
    def test_step_on_selected_patches_equals_the_full_update(self, t_g, step):
        # one mask per row, one of them empty and one full: masked coordinates
        # take the plain reverse step's bits, unmasked ones alpha(s) anchor + sigma(s) z
        world = PatchWorld.uniform((3, 4), 2, [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25),
                                               (0.2, 1.5, 0.04)])
        sched = CosineSchedule(horizon=1.0, n_steps=10)
        predictor = NoisePredictor(world=world, schedule=sched)
        rng = np.random.default_rng(21)
        cfg = ResampleConfig(t0=0.4, t_g=t_g, n_refine=3, n_integrate=int(t_g > 0))
        anchor = LatentState(x=rng.normal(size=(6, world.dim)), t=0.0)
        state = LatentState(x=rng.normal(size=(6, world.dim)), t=0.4 - step * cfg.refine_dt)
        bits = rng.random((6, world.n_patches)) < 0.3
        bits[0], bits[1] = False, True
        z = noise(5, state.x.shape)
        out = _masked_refine(predictor, state.x.copy(), state.t, world.select(bits), anchor, cfg,
                             z)
        assert predictor.nfe == 6
        plain = _reverse_sweep(predictor, state, [cfg.refine_dt], z)
        s = plain.t
        anchored = sched.alpha(s) * anchor.x + sched.sigma(s) * z[0]
        want = np.where(world.coordinate_mask(bits), plain.x, anchored)
        assert out.t == s and out.x.tobytes() == want.tobytes()

    def test_time_window_enforced(self):
        world, sched, predictor = make_setup()
        anchor = LatentState(x=np.zeros(world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.1, n_refine=4, n_integrate=1)
        state = LatentState(x=np.zeros(world.dim), t=0.05)
        with pytest.raises(ValueError, match="window"):
            _masked_refine(predictor, state.x.copy(), state.t,
                           world.select(np.zeros(world.n_patches)), anchor, cfg,
                           noise(0, (world.dim,)))


class TestLocalizedResample:
    def test_endpoint_identity_empty_mask(self):
        world, sched, predictor = make_setup()
        rng = np.random.default_rng(4)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=6, n_integrate=0)
        out, score = localized_resample(predictor, anchor, mask_from_indices(world.grid, []),
                                        cfg, world_verifier(world), rng)
        np.testing.assert_array_equal(out.x, anchor.x)
        assert score == pytest.approx(verifier_score(world, anchor))

    def test_unmasked_coordinates_bit_exact_at_zero_handoff(self):
        world, sched, predictor = make_setup()
        rng = np.random.default_rng(14)
        cfg = ResampleConfig(t0=0.4, t_g=0.0, n_refine=6, n_integrate=0)
        for _ in range(20):
            anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
            mask = mask_from_indices(world.grid,
                                     rng.choice(16, size=5, replace=False))
            out, _ = localized_resample(predictor, anchor, mask, cfg,
                                        world_verifier(world), rng)
            mcoord = world.coordinate_mask(mask.bits)
            np.testing.assert_array_equal(out.x[~mcoord], anchor.x[~mcoord])
            assert np.any(out.x[mcoord] != anchor.x[mcoord])

    def test_unmasked_output_never_depends_on_masked_coordinates(self):
        # patches are independent, so perturbing the anchor inside the mask
        # must leave unmasked outputs bit-identical under a fixed seed,
        # including the global integration sweep
        world, sched, predictor = make_setup()
        rng = np.random.default_rng(15)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        mask = mask_from_indices(world.grid, [1, 6, 12])
        mcoord = world.coordinate_mask(mask.bits)
        cfg = ResampleConfig(t0=0.4, t_g=0.04, n_refine=6, n_integrate=2)
        perturbed = anchor.x.copy()
        perturbed[mcoord] += 3.7
        out_a, _ = localized_resample(predictor, anchor, mask, cfg,
                                      world_verifier(world), np.random.default_rng(77))
        out_b, _ = localized_resample(predictor, LatentState(x=perturbed, t=0.0),
                                      mask, cfg, world_verifier(world),
                                      np.random.default_rng(77))
        np.testing.assert_array_equal(out_a.x[~mcoord], out_b.x[~mcoord])
        assert np.any(out_a.x[mcoord] != out_b.x[mcoord])

    def test_nfe_budget_is_exact(self):
        world, sched, predictor = make_setup()
        rng = np.random.default_rng(16)
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        for cfg in (ResampleConfig(t0=0.4, t_g=0.0, n_refine=5, n_integrate=0),
                    ResampleConfig(t0=0.4, t_g=0.08, n_refine=7, n_integrate=3)):
            predictor.nfe = 0
            localized_resample(predictor, anchor, mask_from_indices(world.grid, [2]),
                               cfg, world_verifier(world), rng)
            assert predictor.nfe == cfg.n_refine + cfg.n_integrate == cfg.nfe_cost

    def test_oracle_mask_improves_defective_anchors(self):
        world, sched, predictor = make_setup()
        verify = world_verifier(world)
        cfg = ResampleConfig(t0=0.4, t_g=0.04, n_refine=16, n_integrate=2)
        rng = np.random.default_rng(101)
        improvements = []
        for _ in range(400):
            anchor = sample_base(predictor, rng)
            x, [true_set] = _inject_rows(world, anchor.x[None], [3], 0.6, [rng])
            defective = LatentState(x=x[0], t=0.0)
            mask = mask_from_indices(world.grid, true_set)
            _, refined_score = localized_resample(predictor, defective, mask, cfg,
                                                  verify, rng)
            improvements.append(refined_score - verify(defective))
        improvements = np.asarray(improvements)
        positives = int((improvements > 0).sum())
        p_value = binomtest(positives, improvements.size, 0.5,
                            alternative="greater").pvalue
        assert improvements.mean() > 0
        assert p_value < 0.01

    def test_complement_mask_does_not_improve(self):
        # resampling only clean patches: no repair benefit, mean change <= 0
        # within Monte Carlo noise
        world, sched, predictor = make_setup()
        verify = world_verifier(world)
        cfg = ResampleConfig(t0=0.4, t_g=0.04, n_refine=16, n_integrate=2)
        rng = np.random.default_rng(102)
        deltas = []
        for _ in range(400):
            anchor = sample_base(predictor, rng)
            x, [true_set] = _inject_rows(world, anchor.x[None], [3], 0.6, [rng])
            defective = LatentState(x=x[0], t=0.0)
            clean = np.setdiff1d(np.arange(world.n_patches), true_set)
            mask = mask_from_indices(world.grid, clean)
            _, refined_score = localized_resample(predictor, defective, mask, cfg,
                                                  verify, rng)
            deltas.append(refined_score - verify(defective))
        deltas = np.asarray(deltas)
        se = deltas.std(ddof=1) / math.sqrt(deltas.size)
        assert deltas.mean() <= 3 * se

    def test_full_mask_from_horizon_matches_base_sampler(self):
        world = PatchWorld.uniform((2, 2), 2, [(1.0, [0.8, -0.3], 0.16)])
        sched = CosineSchedule(horizon=1.0, n_steps=32)
        predictor = NoisePredictor(world=world, schedule=sched)
        trials = 4000
        anchor = LatentState(x=np.tile(np.tile([0.8, -0.3], 4), (trials, 1)), t=0.0)
        cfg = ResampleConfig(t0=1.0, t_g=0.0, n_refine=32, n_integrate=0)
        full = mask_from_indices(world.grid, range(world.n_patches))
        out, _ = localized_resample(predictor, anchor, full, cfg, lambda s: 0.0,
                                    np.random.default_rng(9))
        base = sample_base(predictor, np.random.default_rng(10), shape=(trials,))
        mean_diff = out.x.mean(axis=0) - base.x.mean(axis=0)
        mean_se = np.sqrt(out.x.var(axis=0, ddof=1) / trials
                          + base.x.var(axis=0, ddof=1) / trials)
        assert np.all(np.abs(mean_diff) < 3 * mean_se)
        var_diff = out.x.var(axis=0, ddof=1) - base.x.var(axis=0, ddof=1)
        var_se = np.sqrt(2.0 / (trials - 1)) * math.sqrt(2.0) * out.x.var(axis=0).mean()
        assert np.all(np.abs(var_diff) < 3 * var_se)
