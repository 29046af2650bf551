import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from localtts.attention import mask_gen
from localtts.errors import FieldErrors
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _inject_rows,
    _pairwise_sum,
    _reverse_sweep,
    forward_noise,
    gmm_score,
    grid_query_features,
    log_density,
    logsumexp,
    posterior_mean,
    sample_base,
    synth_attention,
    verifier_score,
)


def single_gaussian_world(grid=(2, 2), dim=2, mean=0.0, var=0.09):
    return PatchWorld.uniform(grid, dim, [(1.0, mean, var)])


def k3_world(grid=(2, 3), dim=2):
    return PatchWorld.uniform(grid, dim, [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25), (0.2, 1.5, 0.04)])


def reference_terms(world, a, s2, x):
    """The oracle's former broadcast formula: (..., M, K, d) terms, each sum
    over the last axis, and its log-sum over components as it was."""
    xp = world.patch_view(x)[..., None, :]          # (..., M, 1, d)
    centered = xp - a * world.means                 # (..., M, K, d)
    var_t = a * a * world.variances + s2            # (M, K)
    sq = (centered * centered).sum(axis=-1)         # (..., M, K)
    with np.errstate(divide="ignore"):
        log_weights = np.log(world.weights)
    log_comp = (
        log_weights
        - 0.5 * world.patch_dim * (np.log(var_t) + math.log(2.0 * math.pi))
        - 0.5 * sq / var_t
    )
    a_max = log_comp.max(axis=-1, keepdims=True)
    is_max = log_comp == a_max
    count = is_max.sum(axis=-1, keepdims=True, dtype=float)
    rest = np.exp(np.where(is_max, -np.inf, log_comp) - a_max).sum(axis=-1, keepdims=True)
    return var_t, centered, log_comp, (np.log1p(rest / count) + np.log(count) + a_max)[..., 0]


def reference_oracle(world, sched, x, t):
    """(posterior mean, score, log-density) by the former broadcast formula."""
    t = sched.check_time(t)
    a = sched.alpha(t)
    var_t, centered, log_comp, log_norm = reference_terms(world, a, sched.sigma(t) ** 2, x)
    resp = np.exp(log_comp - log_norm[..., None])[..., None]   # (..., M, K, 1)
    gain = (a * world.variances / var_t)[..., None]             # (M, K, 1)
    mean = (resp * (world.means + gain * centered)).sum(axis=-2).reshape(np.shape(x))
    score = (resp * (-centered / var_t[..., None])).sum(axis=-2).reshape(np.shape(x))
    return mean, score, log_norm.sum(axis=-1)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def random_worlds(draw):
    """Per-patch random mixtures, K up to 12 and d up to 16, some weights 0."""
    grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    k, d = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = grid[0] * grid[1]
    weights = rng.random((m, k))
    weights[:, 1:][rng.random((m, k - 1)) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    return PatchWorld(grid=grid, patch_dim=d, weights=weights,
                      means=rng.normal(scale=draw(st.sampled_from([0.5, 2.0])), size=(m, k, d)),
                      variances=rng.uniform(0.01, 1.5, size=(m, k)),
                      verifier_weights=rng.dirichlet(np.ones(m)))


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

    def test_step_count_is_capped(self):
        # the step grid and a sweep's noise are materialised, so a huge count is a
        # field error, not a failed allocation
        assert CosineSchedule(horizon=1.0, n_steps=CosineSchedule.MAX_STEPS).n_steps > 0
        with pytest.raises(FieldErrors, match="n_steps: must be at most 100000, got 1e\\+300"):
            CosineSchedule(horizon=1.0, n_steps=10**300)


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

    def test_arrays_are_read_only_copies(self):
        weights = np.array([[0.5, 0.5]])
        world = PatchWorld(grid=(1, 1), patch_dim=1, weights=weights, means=np.zeros((1, 2, 1)),
                           variances=np.ones((1, 2)), verifier_weights=np.ones(1))
        weights[0, 0] = 0.9  # the caller's array stays its own
        assert world.weights[0, 0] == 0.5
        for name in ("weights", "means", "variances", "verifier_weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(world, name)[...] = 0.0

    def test_pickled_world_gives_the_same_oracle_bits(self):
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        x = np.random.default_rng(3).normal(size=(4, 6 * 2))
        world = k3_world()
        twin = pickle.loads(pickle.dumps(world))
        assert not any(getattr(twin, f.name).flags.writeable
                       for f in dataclasses.fields(twin) if f.name not in ("grid", "patch_dim"))
        for t in (0.0, 0.45, 1.0):
            assert same_bits(posterior_mean(twin, sched, x, t), posterior_mean(world, sched, x, t))
        state = LatentState(x=x, t=0.0)
        assert same_bits(verifier_score(twin, state), verifier_score(world, state))

    def test_equality_compares_the_declared_fields_only(self):
        world = k3_world()
        assert [f.name for f in dataclasses.fields(world)] == [
            "grid", "patch_dim", "weights", "means", "variances", "verifier_weights"]
        twin = object.__new__(PatchWorld)
        twin.__dict__.update(world.__dict__, _means=None, _variances=None, _log_weights=None)
        assert twin == world

    def test_separately_built_worlds_compare_by_value(self):
        spec = [(1.0, 0.0, 0.1)]
        assert PatchWorld.uniform((2, 2), 2, spec) == PatchWorld.uniform((2, 2), 2, spec)
        world = k3_world()
        arrays = {name: getattr(world, name).copy() for name in
                  ("weights", "means", "variances", "verifier_weights")}
        assert PatchWorld(grid=world.grid, patch_dim=2, **arrays) == world
        means = arrays["means"].copy()
        means[1, 2, 0] += 0.5
        vweights = arrays["verifier_weights"].copy()
        vweights[:2] += (0.01, -0.01)
        for name, changed in (("means", means), ("verifier_weights", vweights)):
            assert PatchWorld(grid=world.grid, patch_dim=2, **{**arrays, name: changed}) != world

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


    def test_coordinate_mask_of_rows_equals_row_by_row(self):
        world = single_gaussian_world(grid=(2, 3), dim=4)
        bits = np.random.default_rng(5).integers(0, 2, size=(5, 6))
        masks = world.coordinate_mask(bits)
        assert masks.shape == (5, 24) and masks.dtype == bool
        for row, mask in zip(bits, masks):
            np.testing.assert_array_equal(mask, world.coordinate_mask(row))
        for wrong in (bits[:, :5], bits.T, np.int64(1)):
            with pytest.raises(ValueError, match="one bit per patch"):
                world.coordinate_mask(wrong)


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
        # reproduces scipy's bits, including tied maxima and zero weights; the
        # oracle reduces over axis 0 of component-major terms, which must give
        # the bits of the same terms laid out last (from 8 terms on, numpy sums
        # a last axis pairwise, so scipy over axis 0 would differ)
        rng = np.random.default_rng(17)
        for _ in range(3000):
            k = int(rng.integers(1, 13))
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), k)
            if rng.random() < 0.3:
                a = rng.choice([-1.5, 0.0, 2.25], size=shape)
            else:
                a = rng.normal(scale=rng.choice([0.1, 10.0, 1e3]), size=shape)
            # -inf log-weights, keeping the first component finite
            a[..., 1:][rng.random((*shape[:-1], k - 1)) < 0.2] = -np.inf
            want = scipy_logsumexp(a, axis=-1)
            assert same_bits(logsumexp(a), want)
            assert same_bits(logsumexp(np.moveaxis(a, -1, 0), axis=0), want)

    @pytest.mark.parametrize("case", ["untied K=1", "untied K=3", "one tie in 1001 lanes",
                                      "all lanes tied", "-inf beside ties"])
    def test_each_count_path_equals_scipy_bit_for_bit(self, case):
        # the count of maxima is taken only when some lane ties; both paths keep scipy's bits
        rng = np.random.default_rng(23)
        if case.startswith("untied"):
            a, ties = rng.normal(scale=3.0, size=(200, int(case[-1]))), 0
        elif case == "one tie in 1001 lanes":
            a, ties = rng.normal(size=(1001, 3)), 1
            a[517, 2] = a[517, 0] = a[517].max()
        elif case == "all lanes tied":
            a = rng.normal(size=(300, 4))
            a[:, 3] = a[:, 1] = a.max(axis=-1)
            ties = len(a)
        else:
            a = np.repeat(rng.normal(size=(100, 1)), 5, axis=-1)
            a[::2, 0] += 0.5  # even lanes untied, odd lanes tie three to five ways
            a[::3, 1] = a[1::4, 3] = -np.inf
            ties = 50
        assert np.count_nonzero((a == a.max(axis=-1, keepdims=True)).sum(axis=-1) > 1) == ties
        want = scipy_logsumexp(a, axis=-1)
        assert same_bits(logsumexp(a), want)
        assert same_bits(logsumexp(np.ascontiguousarray(a.T), axis=0), want)


def test_pairwise_sum_adds_a_leading_axis_in_numpy_last_axis_order():
    # numpy sums a contiguous last axis in sequence below 8 terms and pairwise
    # from 8 on (by halves above 128); a leading or middle axis must match
    rng = np.random.default_rng(5)
    for n in [*range(1, 40), 127, 128, 129, 136, 200, 257, 300]:
        a = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-6, 7, size=(3, n))
        want = a.sum(axis=-1)
        assert same_bits(_pairwise_sum(np.ascontiguousarray(a.T), 0)[0], want)
        assert same_bits(_pairwise_sum(a.T[None], 1)[0, 0], want)


class TestComponentMajorOracle:
    """The component-major oracle gives the former broadcast formula's bits."""

    SCHEDULE = CosineSchedule(horizon=1.3, n_steps=6)

    @settings(max_examples=150, deadline=None)
    @given(world=random_worlds(),
           shape=st.one_of(st.just(()), st.just((1,)), st.tuples(st.integers(2, 40)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4))),
           t=st.one_of(st.sampled_from([float(t) for t in SCHEDULE.step_times()]),
                       st.floats(0.0, 1.3)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.3, 1.0, 5.0]))
    @example(world=k3_world(grid=(8, 8), dim=4), shape=(25,), t=0.65, seed=0, scale=1.0)
    @example(world=single_gaussian_world(grid=(4, 4)), shape=(24,), t=1.3, seed=1, scale=1.0)
    def test_equals_broadcast_formula_bit_for_bit(self, world, shape, t, seed, scale):
        sched = self.SCHEDULE
        x = np.random.default_rng(seed).normal(scale=scale, size=(*shape, world.dim))
        mean, score, log_dens = reference_oracle(world, sched, x, t)
        assert same_bits(posterior_mean(world, sched, x, t), mean)
        assert same_bits(gmm_score(world, sched, x, t), score)
        assert same_bits(log_density(world, sched, x, t), log_dens)
        per_patch = reference_terms(world, 1.0, 0.0, x)[-1]
        verified = verifier_score(world, LatentState(x=x, t=0.0))
        assert same_bits(verified, np.sum(world.verifier_weights * per_patch, axis=-1))
        assert isinstance(verified, float) == (shape == ())


class TestSelectedPatchOracle:
    """The oracle on selected patches gives the full oracle's rows bit for bit."""

    SCHEDULE = CosineSchedule(horizon=1.0, n_steps=8)

    @pytest.mark.parametrize("k", [1, 3, 9])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_selection_equals_the_full_oracle_rows(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        m, rows, sched = 12, 5, self.SCHEDULE
        weights = rng.random((m, k)) + 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        means = rng.normal(size=(m, k, d))
        variances = rng.uniform(0.02, 1.0, size=(m, k))
        # patches 0 and 1 repeat one component: every component ties exactly
        weights[:2], means[:2], variances[:2] = 1.0 / k, means[:2, :1], variances[:2, :1]
        world = PatchWorld(grid=(3, 4), patch_dim=d, weights=weights, means=means,
                           variances=variances, verifier_weights=np.full(m, 1.0 / m))
        x = rng.normal(size=(rows, world.dim))
        bits = rng.random((rows, m)) < 0.4
        bits[0], bits[1] = False, True  # a row with no masked patch, a row with all of them
        predictor = NoisePredictor(world=world, schedule=sched)
        for t in (sched.horizon, 0.5, 0.0):
            full = world.patch_view(posterior_mean(world, sched, x, t))
            assert same_bits(predictor.evaluate(x, t, world.select(bits)), full[bits])
            none = predictor.evaluate(x, t, world.select(np.zeros_like(bits)))
            assert none.shape == (0, d)
        assert predictor.nfe == 3 * 2 * rows  # one evaluation per row, selection or not

    def test_single_state_selection(self):
        world, sched = k3_world(), self.SCHEDULE
        x = np.random.default_rng(4).normal(size=world.dim)
        bits = np.arange(world.n_patches) % 2 == 1
        full = world.patch_view(posterior_mean(world, sched, x, 0.3))
        assert same_bits(posterior_mean(world, sched, x, 0.3, world.select(bits)), full[bits])


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
        k3 = k3_world()
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
        out_a, out_b = (_reverse_sweep(predictor, x, [0.25], np.random.default_rng(seed)
                                       .standard_normal((1, world.dim))) for seed in (2, 999))
        assert out_a.t == 0.0
        np.testing.assert_array_equal(out_a.x, out_b.x)

    def test_step_larger_than_time_rejected(self):
        world = single_gaussian_world()
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        predictor = NoisePredictor(world=world, schedule=sched)
        state = LatentState(x=np.zeros(world.dim), t=0.1)
        with pytest.raises(ValueError, match="exceeds"):
            _reverse_sweep(predictor, state, [0.2], np.zeros((1, world.dim)))


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
    # the engine's kernel on one row
    def test_zero_magnitude_keeps_state(self):
        world = single_gaussian_world(grid=(2, 3))
        x = np.zeros((1, world.dim))
        out, [chosen] = _inject_rows(world, x, [4], 0.0, [np.random.default_rng(0)])
        np.testing.assert_array_equal(out, x)
        assert chosen.size == 4
        assert np.unique(chosen).size == 4

    def test_full_defect_set(self):
        world = single_gaussian_world(grid=(2, 2))
        out, [chosen] = _inject_rows(world, np.zeros((1, world.dim)), [4], 1.0,
                                     [np.random.default_rng(1)])
        np.testing.assert_array_equal(chosen, [0, 1, 2, 3])
        norms = np.linalg.norm(out.reshape(4, 2), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_displacement_decreases_verifier_at_mode(self):
        world = single_gaussian_world(grid=(2, 2))
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        base = verifier_score(world, state)
        out, _ = _inject_rows(world, state.x[None], [2], 0.5, [np.random.default_rng(2)])
        assert verifier_score(world, LatentState(x=out[0], t=0.0)) < base


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

    def test_query_features_are_cached_read_only(self):
        queries = grid_query_features((4, 6))
        assert grid_query_features((4, 6)) is queries
        assert not queries.flags.writeable
        assert same_bits(queries, grid_query_features.__wrapped__((4, 6)))

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


_WORLD = single_gaussian_world(grid=(2, 2))
_PREDICTOR = NoisePredictor(world=_WORLD, schedule=CosineSchedule(horizon=1.0, n_steps=4))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: LatentState(x=[0.0, np.inf], t=0.0), "non-finite", id="state-non-finite"),
    pytest.param(lambda: LatentState(x=[0.0], t=-0.5), "non-negative", id="state-negative-time"),
    pytest.param(lambda: _WORLD.patch_view(np.zeros(_WORLD.dim + 1)), "world needs 8",
                 id="patch-view-width"),
    *(pytest.param(lambda dt=dt: _reverse_sweep(
        _PREDICTOR, LatentState(x=np.zeros(_WORLD.dim), t=0.5), [dt], np.zeros((1, _WORLD.dim))),
        "step size must be positive", id=f"step-dt={dt}") for dt in (0.0, -0.25)),
])
def test_input_checks_reject_their_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
