import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from localtts.attention import mask_gen
from localtts.errors import FieldErrors
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    forward_noise,
    gmm_score,
    grid_query_features,
    inject_defects,
    log_density,
    logsumexp,
    posterior_mean,
    reverse_sde_step,
    sample_base,
    synth_attention,
    verifier_score,
)


def single_gaussian_world(grid=(2, 2), dim=2, mean=0.0, var=0.09):
    return PatchWorld.uniform(grid, dim, [(1.0, mean, var)])


class TestCosineSchedule:
    def test_endpoints(self):
        sched = CosineSchedule(horizon=2.0, n_steps=10)
        assert sched.alpha(0.0) == 1.0
        assert sched.sigma(0.0) == 0.0
        assert abs(sched.alpha(2.0)) < 1e-15
        assert sched.sigma(2.0) == 1.0

    def test_variance_preserving_identity(self):
        sched = CosineSchedule(horizon=1.7, n_steps=10)
        ts = np.random.default_rng(0).uniform(0.0, 1.7, size=1000)
        for t in ts:
            assert abs(sched.alpha(t) ** 2 + sched.sigma(t) ** 2 - 1.0) <= 1e-12

    def test_monotonicity(self):
        sched = CosineSchedule(horizon=1.0, n_steps=10)
        ts = np.linspace(0.0, 1.0, 200)
        alphas = [sched.alpha(t) for t in ts]
        sigmas = [sched.sigma(t) for t in ts]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))
        assert all(a <= b for a, b in zip(sigmas, sigmas[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CosineSchedule(horizon=0.0, n_steps=5)
        with pytest.raises(ValueError):
            CosineSchedule(horizon=1.0, n_steps=0)
        with pytest.raises(ValueError, match="outside"):
            CosineSchedule(horizon=1.0, n_steps=5).check_time(1.5)


class TestPatchWorld:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PatchWorld.uniform((1, 2), 1, [(0.5, 0.0, 1.0), (0.4, 1.0, 1.0)])

    def test_variances_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PatchWorld.uniform((1, 1), 1, [(1.0, 0.0, 0.0)])

    def test_verifier_weights_validated(self):
        with pytest.raises(ValueError, match="verifier weights"):
            PatchWorld.uniform((1, 2), 1, [(1.0, 0.0, 1.0)],
                               verifier_weights=[0.9, 0.9])

    @pytest.mark.parametrize("field", ["weights", "means", "variances", "verifier_weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        world = PatchWorld.uniform((1, 2), 1, [(0.5, 0.0, 1.0), (0.5, 1.0, 1.0)])
        arrays = {name: getattr(world, name).copy() for name in
                  ("weights", "means", "variances", "verifier_weights")}
        arrays[field].flat[-1] = bad
        with pytest.raises(FieldErrors) as err:
            PatchWorld(grid=world.grid, patch_dim=1, **arrays)
        assert f"{field}: must be finite" in err.value.errors

    def test_dimension_bookkeeping(self):
        world = single_gaussian_world(grid=(2, 3), dim=4)
        assert world.n_patches == 6
        assert world.dim == 24
        x = np.arange(24.0)
        assert world.patch_view(x).shape == (6, 4)
        bits = np.array([1, 0, 0, 0, 0, 1])
        mask = world.coordinate_mask(bits)
        assert mask.sum() == 8
        assert mask[:4].all() and mask[-4:].all()


class TestForwardNoise:
    def test_time_zero_is_identity(self):
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        state = LatentState(x=np.array([1.0, -2.0]), t=0.0)
        out = forward_noise(sched, state, 0.0, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(out.x, state.x)

    def test_horizon_is_pure_noise(self):
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        state = LatentState(x=np.array([1.0, -2.0]), t=0.0)
        z = np.array([0.3, -0.4])
        out = forward_noise(sched, state, 1.0, z)
        np.testing.assert_allclose(out.x, z, atol=1e-15)

    def test_hand_variance_preserving_pair(self):
        # alpha = 0.8, sigma = 0.6 at t = (2/pi) acos(0.8)
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        t = 2.0 / math.pi * math.acos(0.8)
        out = forward_noise(sched, LatentState(x=np.array([1.0, 0.0]), t=0.0), t,
                            np.array([0.0, 1.0]))
        np.testing.assert_allclose(out.x, [0.8, 0.6], rtol=1e-12)

    def test_errors(self):
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        state = LatentState(x=np.zeros(2), t=0.0)
        with pytest.raises(ValueError, match="outside"):
            forward_noise(sched, state, 1.5, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            forward_noise(sched, state, 0.5, np.zeros(3))
        with pytest.raises(ValueError, match="t=0"):
            forward_noise(sched, LatentState(x=np.zeros(2), t=0.5), 0.7, np.zeros(2))


class TestGmmScore:
    def test_single_component_at_time_zero(self):
        world = PatchWorld.uniform((1, 1), 2, [(1.0, [0.4, -0.2], 0.25)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        x = np.array([1.0, 1.0])
        expected = -(x - np.array([0.4, -0.2])) / 0.25
        np.testing.assert_allclose(gmm_score(world, sched, x, 0.0), expected, rtol=1e-12)

    def test_single_component_any_time_matches_convolution_formula(self):
        world = PatchWorld.uniform((1, 1), 2, [(1.0, [0.4, -0.2], 0.25)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        t = 0.61
        a, s2 = sched.alpha(t), sched.sigma(t) ** 2
        x = np.array([0.7, -1.1])
        expected = -(x - a * np.array([0.4, -0.2])) / (a * a * 0.25 + s2)
        np.testing.assert_allclose(gmm_score(world, sched, x, t), expected, rtol=1e-12)

    def test_symmetric_midpoint_has_zero_score(self):
        world = PatchWorld.uniform((1, 1), 1,
                                   [(0.5, -1.0, 0.2), (0.5, 1.0, 0.2)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        for t in (0.0, 0.3, 0.9):
            assert abs(gmm_score(world, sched, np.array([0.0]), t)[0]) < 1e-12

    def test_matches_finite_differences_on_random_probes(self):
        # independent oracle: central differences of the analytic log-density
        world = PatchWorld.uniform(
            (2, 2), 2, [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25), (0.2, 1.5, 0.04)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        rng = np.random.default_rng(123)
        h = 1e-5
        for _ in range(100):
            x = rng.normal(scale=1.2, size=world.dim)
            t = rng.uniform(0.0, 1.0)
            score = gmm_score(world, sched, x, t)
            fd = np.empty_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (log_density(world, sched, xp, t)
                         - log_density(world, sched, xm, t)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(score - fd) / denom) < 1e-5

    def test_log_space_handles_far_tails(self):
        world = PatchWorld.uniform((1, 1), 1, [(0.5, -1.0, 0.01), (0.5, 1.0, 0.01)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        score = gmm_score(world, sched, np.array([60.0]), 0.0)
        assert np.isfinite(score).all()
        # far in the right tail the nearest component dominates
        np.testing.assert_allclose(score, -(60.0 - 1.0) / 0.01, rtol=1e-9)

    def test_posterior_mean_consistency_identity(self):
        # x = alpha * E[x0|x] - sigma^2 * score, since E[eps|x] = -sigma * score
        world = PatchWorld.uniform((1, 2), 2, [(0.6, 0.5, 0.3), (0.4, -1.0, 0.1)])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        rng = np.random.default_rng(5)
        for t in (0.2, 0.5, 0.95):
            x = rng.normal(size=world.dim)
            a, s2 = sched.alpha(t), sched.sigma(t) ** 2
            lhs = (a * posterior_mean(world, sched, x, t)
                   - s2 * gmm_score(world, sched, x, t))
            np.testing.assert_allclose(lhs, x, rtol=1e-9, atol=1e-9)


class TestLogsumexp:
    def test_equals_scipy_bit_for_bit(self):
        # reports stay byte-identical only if the oracle's log-normalizer
        # reproduces scipy's bits, including tied maxima and zero weights
        rng = np.random.default_rng(17)
        for _ in range(3000):
            k = int(rng.integers(1, 6))
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), k)
            if rng.random() < 0.3:
                a = rng.choice([-1.5, 0.0, 2.25], size=shape)
            else:
                a = rng.normal(scale=rng.choice([0.1, 10.0, 1e3]), size=shape)
            # -inf log-weights, keeping the first component finite
            a[..., 1:][rng.random((*shape[:-1], k - 1)) < 0.2] = -np.inf
            assert np.array_equal(logsumexp(a), scipy_logsumexp(a, axis=-1))


class TestNfeCounter:
    def test_single_and_batched_counting(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        predictor = NoisePredictor(world=world, schedule=sched)
        predictor.evaluate(np.zeros(world.dim), 0.5)
        assert predictor.nfe == 1
        predictor.evaluate(np.zeros((7, world.dim)), 0.5)
        assert predictor.nfe == 8

    def test_evaluate_is_the_posterior_mean(self):
        # single and batched states, K = 1 and K = 3, t from 0 to the horizon
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        k3 = PatchWorld.uniform((2, 3), 2, [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25),
                                            (0.2, 1.5, 0.04)])
        rng = np.random.default_rng(0)
        for world in (single_gaussian_world(), k3):
            predictor = NoisePredictor(world=world, schedule=sched)
            for shape, t in (((world.dim,), 0.4), ((5, world.dim), 0.0), ((3, world.dim), 1.0)):
                x = rng.normal(size=shape)
                got = predictor.evaluate(x, t)
                want = posterior_mean(world, sched, x, t)
                assert got.shape == shape and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="outside"):
            predictor.evaluate(x, 1.5)
        assert predictor.nfe == 1 + 5 + 3  # the rejected call counted nothing


class TestReverseSdeStep:
    def test_standard_normal_marginal_is_preserved(self):
        # standard-normal target: the time-t marginal is N(0, I) at every t
        world = PatchWorld.uniform((1, 1), 2, [(1.0, 0.0, 1.0)])
        sched = CosineSchedule(horizon=1.0, n_steps=50)
        predictor = NoisePredictor(world=world, schedule=sched)
        rng = np.random.default_rng(42)
        trials = 10_000
        state = sample_base(predictor, rng, shape=(trials,))
        assert np.all(np.abs(state.x.mean(axis=0)) < 3.0 / math.sqrt(trials))

    def test_single_gaussian_mean_recovery(self):
        mean = np.array([1.5, -0.7])
        world = PatchWorld.uniform((1, 1), 2, [(1.0, mean, 0.25)])
        sched = CosineSchedule(horizon=1.0, n_steps=50)
        predictor = NoisePredictor(world=world, schedule=sched)
        rng = np.random.default_rng(7)
        trials = 10_000
        state = sample_base(predictor, rng, shape=(trials,))
        se = state.x.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(state.x.mean(axis=0) - mean) < 3 * se)

    def test_final_step_adds_no_noise(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        predictor = NoisePredictor(world=world, schedule=sched)
        x = LatentState(x=np.random.default_rng(1).normal(size=world.dim), t=0.25)
        out_a = reverse_sde_step(predictor, x, 0.25, np.random.default_rng(2))
        out_b = reverse_sde_step(predictor, x, 0.25, np.random.default_rng(999))
        assert out_a.t == 0.0
        np.testing.assert_array_equal(out_a.x, out_b.x)

    def test_step_larger_than_time_rejected(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        predictor = NoisePredictor(world=world, schedule=sched)
        state = LatentState(x=np.zeros(world.dim), t=0.1)
        with pytest.raises(ValueError, match="exceeds"):
            reverse_sde_step(predictor, state, 0.2, np.random.default_rng(0))


class TestSampleBase:
    def test_nfe_cost_is_step_count(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=13)
        predictor = NoisePredictor(world=world, schedule=sched)
        sample_base(predictor, np.random.default_rng(0))
        assert predictor.nfe == 13
        sample_base(predictor, np.random.default_rng(0))
        assert predictor.nfe == 26

    def test_fixed_seed_reproducibility(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=16)
        a = sample_base(NoisePredictor(world=world, schedule=sched),
                        np.random.default_rng(99))
        b = sample_base(NoisePredictor(world=world, schedule=sched),
                        np.random.default_rng(99))
        np.testing.assert_array_equal(a.x, b.x)

    def test_single_gaussian_variance_recovery(self):
        # ancestral discretization bias decays like 1/n_steps; at 400 steps it
        # sits well inside the 3-standard-error band of a 10^4-sample estimate
        world = PatchWorld.uniform((1, 1), 2, [(1.0, 0.6, 0.25)])
        sched = CosineSchedule(horizon=1.0, n_steps=400)
        predictor = NoisePredictor(world=world, schedule=sched)
        state = sample_base(predictor, np.random.default_rng(11), shape=(10_000,))
        var = state.x.var(axis=0, ddof=1)
        se = 0.25 * math.sqrt(2.0 / (10_000 - 1))
        assert np.all(np.abs(var - 0.25) < 3 * se)


class TestVerifier:
    def test_maximal_at_single_gaussian_means(self):
        world = PatchWorld.uniform((2, 2), 3, [(1.0, 0.7, 0.04)])
        x = np.tile(np.full(3, 0.7), 4)
        score = verifier_score(world, LatentState(x=x, t=0.0))
        expected = -(3 / 2) * math.log(2 * math.pi * 0.04)
        np.testing.assert_allclose(score, expected, rtol=1e-12)

    def test_displacement_strictly_decreases_score(self):
        world = PatchWorld.uniform((2, 2), 2, [(1.0, 0.0, 0.09)])
        x = np.zeros(world.dim)
        base = verifier_score(world, LatentState(x=x, t=0.0))
        x2 = x.copy()
        x2[2] += 0.5
        assert verifier_score(world, LatentState(x=x2, t=0.0)) < base

    def test_uniform_weights_average_per_patch_log_density(self):
        world = PatchWorld.uniform((1, 2), 1, [(1.0, 0.0, 1.0)])
        x = np.array([0.0, 2.0])
        per_patch = [-0.5 * math.log(2 * math.pi),
                     -0.5 * math.log(2 * math.pi) - 2.0]
        np.testing.assert_allclose(verifier_score(world, LatentState(x=x, t=0.0)),
                                   np.mean(per_patch), rtol=1e-12)

    def test_requires_clean_state(self):
        world = single_gaussian_world()
        with pytest.raises(ValueError, match="t=0"):
            verifier_score(world, LatentState(x=np.zeros(world.dim), t=0.2))


class TestInjectDefects:
    def test_zero_magnitude_keeps_state(self):
        world = single_gaussian_world(grid=(2, 3))
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        out, chosen = inject_defects(world, state, 4, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.x, state.x)
        assert chosen.size == 4
        assert np.unique(chosen).size == 4

    def test_full_defect_set(self):
        world = single_gaussian_world(grid=(2, 2))
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        out, chosen = inject_defects(world, state, 4, 1.0, np.random.default_rng(1))
        np.testing.assert_array_equal(chosen, [0, 1, 2, 3])
        norms = np.linalg.norm(out.x.reshape(4, 2), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_displacement_decreases_verifier_at_mode(self):
        world = single_gaussian_world(grid=(2, 2))
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        base = verifier_score(world, state)
        out, _ = inject_defects(world, state, 2, 0.5, np.random.default_rng(2))
        assert verifier_score(world, out) < base

    def test_count_out_of_range(self):
        world = single_gaussian_world(grid=(2, 2))
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        for count in (0, 5):
            with pytest.raises(ValueError, match="defect count"):
                inject_defects(world, state, count, 1.0, np.random.default_rng(0))


class TestSynthAttention:
    def test_noiseless_recovery_up_to_64_patches(self):
        rng = np.random.default_rng(3)
        for grid in [(1, 2), (2, 2), (1, 8), (3, 5), (4, 4), (2, 32), (8, 8), (1, 64)]:
            world = single_gaussian_world(grid=grid)
            size = world.n_patches
            count = max(1, size // 4)
            true_set = np.sort(rng.choice(size, size=count, replace=False))
            state = LatentState(x=np.zeros(world.dim), t=0.0)
            bundle, queries = synth_attention(world, state, true_set, 0.3, 0.3,
                                              0.0, rng)
            mask = mask_gen(bundle, queries, 0.5, count / size)
            np.testing.assert_array_equal(mask.selected, true_set)

    def test_pure_noise_contrast_precision_matches_chance(self):
        # gains 0: the mask is an exchangeable random subset, so expected
        # precision equals the defect fraction (hypergeometric mean TP / m)
        world = single_gaussian_world(grid=(4, 4))
        size, count, ratio = 16, 4, 0.25
        rng = np.random.default_rng(8)
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        precisions = []
        for _ in range(800):
            true_set = np.sort(rng.choice(size, size=count, replace=False))
            bundle, queries = synth_attention(world, state, true_set, 0.0, 0.0,
                                              0.2, rng)
            mask = mask_gen(bundle, queries, 0.5, ratio)
            tp = len(set(mask.selected.tolist()) & set(true_set.tolist()))
            precisions.append(tp / mask.bits.sum())
        precisions = np.asarray(precisions)
        se = precisions.std(ddof=1) / math.sqrt(precisions.size)
        assert abs(precisions.mean() - count / size) < 3 * se

    def test_recall_never_increases_with_noise(self):
        world = single_gaussian_world(grid=(4, 4))
        size, count = 16, 3
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        means, ses = [], []
        for noise_sd in (0.0, 0.25, 0.5, 1.0, 2.0):
            rng = np.random.default_rng(101)
            recalls = []
            for _ in range(400):
                true_set = np.sort(rng.choice(size, size=count, replace=False))
                bundle, queries = synth_attention(world, state, true_set, 0.3, 0.3,
                                                  noise_sd, rng)
                mask = mask_gen(bundle, queries, 0.5, count / size)
                recalls.append(len(set(mask.selected.tolist())
                                   & set(true_set.tolist())) / count)
            recalls = np.asarray(recalls)
            means.append(recalls.mean())
            ses.append(recalls.std(ddof=1) / math.sqrt(recalls.size))
        for i in range(len(means) - 1):
            slack = 3 * math.hypot(ses[i], ses[i + 1])
            assert means[i + 1] <= means[i] + slack

    def test_query_features_have_constant_norm(self):
        queries = grid_query_features((4, 6))
        norms = np.linalg.norm(queries, axis=1)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)


class TestForwardDenoiseIdentity:
    def test_known_noise_inverts_to_machine_precision(self):
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        rng = np.random.default_rng(31)
        x0 = rng.normal(size=6)
        z = rng.standard_normal(6)
        for t in (0.1, 0.5, 0.93):
            noised = forward_noise(sched, LatentState(x=x0, t=0.0), t, z)
            recovered = (noised.x - sched.sigma(t) * z) / sched.alpha(t)
            np.testing.assert_allclose(recovered, x0, rtol=1e-12, atol=1e-12)
