"""The exact law of a base sample on a one-component world.

With one Gaussian component N(mu, v) per coordinate, the oracle's posterior
mean is affine in x_t: E[x_0 | x_t] = g x_t + mu (1 - g alpha_t), where
g = alpha_t v / (alpha_t^2 v + sigma_t^2). An ancestral step
x_s = c_x x_t + c_0 E[x_0 | x_t] + n z is then affine plus Gaussian noise, so
every coordinate of a base sample is Gaussian, with mean and variance

    m_s = k m_t + c_0 mu (1 - g alpha_t),    V_s = k^2 V_t + n^2,    k = c_x + c_0 g,

from m_T = 0 and V_T = 1. The coefficients are written here from the
ancestral posterior q(x_s | x_t, x_0), apart from the engine's.

With uniform verifier weights, which sum to 1, a base sample's expected score
is one patch's expected log-density under N(mu, v I):

    E[score] = -(d / 2) log(2 pi v) - d (V_0 + (m_0 - mu)^2) / (2 v).

With the mean mu = 0, a patch's squared norm over V_0 is chi^2_d, and
noncentral chi^2_d(delta^2 / V_0) once a defect of magnitude delta displaces
it in a direction drawn apart from it. So with m patches, k of them defective,
a base score is A - B V_0 X, A = -(d / 2) log(2 pi v), B = 1 / (2 v m), X of
law chi^2_{dm}(k delta^2 / V_0) with k ~ Binomial(m, count / m) when the
count is randomized. The best of N scores takes the least of N draws of X, and
for X >= 0

    E[best of N] = A - B V_0 E[min of N X],    E[min of N X] = int_0^inf (1 - F(x))^N dx.

A localized refinement of an anchor a, a base sample, composes affine maps
too. Its renoise gives x_t0 = alpha(t0) a + sigma(t0) z, its masked refinement
runs ancestral steps from t0 to t_g on the masked patches, the unmasked ones
wait at alpha(t_g) a + sigma(t_g) z, and the global sweep runs ancestral steps
from t_g to 0 on all patches. So every output coordinate is
x' = L a + c + N(0, Q), with one (L, c, Q) for the masked patches and another
for the unmasked ones. With mu = 0, c = 0 and a patch's expected score changes
by -(d / 2v) ((L^2 - 1) E|a|^2 / d + Q), where E|a|^2 = d V_0 on a clean patch
and d V_0 + delta^2 on a defective one. Oracle masks select exactly the
defective patches, so the expected refinement gain splits into a cell of
masked defective patches (true positives) and one of unmasked clean patches
(true negatives), each weighted by its patch count over m.

The row counts, the trial counts, the seeds and the |z| bound were fixed
before any result was read. A sample variance of n values has standard error
V_0 sqrt(2 / n).
"""
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from localtts import harness
from localtts.config import load_config
from localtts.resample import ResampleConfig
from localtts.search import SearchConfig, defect_injecting_sampler, dfs_search, oracle_mask_source
from localtts.testbed import (
    CosineSchedule,
    NoisePredictor,
    PatchWorld,
    sample_base,
    verifier_score,
)

Z_BOUND = 4.0


def step_law(times, mu: float, v: float, horizon: float, law: tuple, noise: bool = True):
    """(L, c, Q) of x_s = L a + c + N(0, Q) after ancestral steps along times,
    from the law (L, c, Q) of x at times[0]; noise=False drops the n^2 term."""
    lin, shift, var = law
    for t, s in zip(times[:-1], times[1:]):
        a_t, s_t = math.cos(0.5 * math.pi * t / horizon), math.sin(0.5 * math.pi * t / horizon)
        a_s, s_s = math.cos(0.5 * math.pi * s / horizon), math.sin(0.5 * math.pi * s / horizon)
        var_ts = s_t ** 2 - (a_t / a_s) ** 2 * s_s ** 2  # the variance of x_t given x_s
        c_x, c_0 = a_t / a_s * s_s ** 2 / s_t ** 2, a_s * var_ts / s_t ** 2
        g = a_t * v / (a_t ** 2 * v + s_t ** 2)
        k = c_x + c_0 * g
        lin, shift = k * lin, k * shift + c_0 * mu * (1 - g * a_t)
        var = k * k * var + (var_ts * s_s ** 2 / s_t ** 2 if noise else 0.0)
    return lin, shift, var


def base_law(mu: float, v: float, horizon: float, n_steps: int, noise: bool = True):
    """(m_0, V_0) of one coordinate of a base sample by the exact recursion,
    from x_T ~ N(0, 1); noise=False drops the n^2 term, a wrong law that the
    checks must reject."""
    times = np.linspace(horizon, 0.0, n_steps + 1).tolist()
    _, mean, var = step_law(times, mu, v, horizon, (0.0, 0.0, 1.0), noise)
    return mean, var


def expected_score(patch_dim: int, mu: float, v: float, horizon: float, n_steps: int,
                   noise: bool = True) -> float:
    """E[score] of a base sample by the closed form, from base_law's (m_0, V_0)."""
    mean, var = base_law(mu, v, horizon, n_steps, noise)
    return (-0.5 * patch_dim * math.log(2.0 * math.pi * v)
            - patch_dim * (var + (mean - mu) ** 2) / (2.0 * v))


def base_samples(grid, patch_dim: int, mu: float, v: float, horizon: float, n_steps: int,
                 rows: int, seed: int):
    """The world and rows base samples of it."""
    predictor = NoisePredictor(PatchWorld.uniform(grid, patch_dim, [(1.0, mu, v)]),
                               CosineSchedule(horizon, n_steps))
    return predictor.world, sample_base(predictor, np.random.default_rng(seed), shape=(rows,))


def base_draws(*world) -> np.ndarray:
    """Every coordinate of rows base samples: iid draws of the one-coordinate law."""
    return base_samples(*world)[1].x.ravel()


def z_scores(x: np.ndarray, mean: float, var: float) -> tuple[float, float]:
    """z of the sample mean and of the sample variance against the law N(mean, var)."""
    n = x.size
    return ((x.mean() - mean) / math.sqrt(var / n),
            (x.var(ddof=1) - var) / (var * math.sqrt(2 / (n - 1))))


# (grid, patch_dim, mu, v, horizon, n_steps, rows, seed): the scaling_default world,
# then a world with a nonzero mean for the mean's recursion
WORLDS = [((4, 4), 2, 0.0, 0.09, 1.0, 32, 1250, 26),
          ((2, 2), 2, 1.5, 0.25, 2.0, 8, 5000, 27)]


@pytest.mark.parametrize("world", WORLDS)
def test_base_samples_follow_the_exact_law(world):
    x = base_draws(*world)
    z_mean, z_var = z_scores(x, *base_law(*world[2:6]))
    assert abs(z_mean) < Z_BOUND and abs(z_var) < Z_BOUND, (z_mean, z_var)


@pytest.mark.parametrize("world", WORLDS)
def test_a_law_without_the_noise_term_is_rejected(world):
    x = base_draws(*world)
    z_mean, z_var = z_scores(x, *base_law(*world[2:6], noise=False))
    assert max(abs(z_mean), abs(z_var)) > Z_BOUND, (z_mean, z_var)


def test_base_variance_at_the_shipped_steps():
    """Posterior-mean ancestral sampling under-disperses: V_0 / v is 0.756 at 32 steps."""
    mean, var = base_law(0.0, 0.09, 1.0, 32)
    assert mean == 0.0 and var == pytest.approx(0.0680370, abs=5e-8)
    ratios = [base_law(0.0, 0.09, 1.0, n)[1] / 0.09 for n in (8, 32, 128, 1000)]
    assert ratios == pytest.approx([0.459, 0.756, 0.918, 0.988], abs=5e-4)


# the scaling_default world, 2,000 rows: E[score] = -0.185898
SCORE_WORLD = ((4, 4), 2, 0.0, 0.09, 1.0, 32, 2000, 28)


def score_z(noise: bool = True) -> float:
    """z of the mean verifier score of SCORE_WORLD's rows against the closed form."""
    world, state = base_samples(*SCORE_WORLD)
    scores = verifier_score(world, state)
    expected = expected_score(*SCORE_WORLD[1:6], noise=noise)
    return (scores.mean() - expected) / (scores.std(ddof=1) / math.sqrt(scores.size))


def test_expected_base_score_matches_the_closed_form():
    assert expected_score(*SCORE_WORLD[1:6]) == pytest.approx(-0.185898, abs=5e-7)
    z = score_z()
    assert abs(z) < Z_BOUND, z


def test_a_score_law_without_the_noise_term_is_rejected():
    z = score_z(noise=False)
    assert abs(z) > Z_BOUND, z


SCALING_DEFAULT = Path(__file__).resolve().parents[1] / "configs" / "scaling_default.json"


@functools.lru_cache(maxsize=1)
def shipped_bon_rows() -> tuple:
    """(n, mean score, stderr) of each best-of-N row of the shipped scaling
    report: its 200 trials at its master seed."""
    cfg, _ = load_config(SCALING_DEFAULT)
    results, _ = harness.run_scaling(cfg)
    return tuple((row["n"], row["mean_score"], row["stderr"])
                 for row in results["rows"] if row["method"] == "best_of_n")


def expected_best_of_n(settings, budgets, noise: bool = True, points: int = 20_001
                       ) -> list[float]:
    """E[best of N] of the scaling sweep's base draws, at each budget N, by the
    closed form (mu = 0, uniform verifier weights, randomized defect counts),
    the integral by the trapezoid rule on points x values."""
    world, sched = settings.world, settings.schedule
    [[mu]], [[v]] = world.means[:1, :, :1], world.variances[:1]
    assert mu == 0.0 and settings.randomize_defects
    m, d, shift = world.n_patches, world.patch_dim, settings.defect_magnitude ** 2
    var = base_law(mu, v, sched.horizon, sched.n_steps, noise)[1]
    k = np.arange(m + 1)
    p_k = stats.binom.pmf(k, m, settings.defect_count / m)
    a, b = -0.5 * d * math.log(2.0 * math.pi * v), 1.0 / (2.0 * v * m)
    if var < 1e-9:  # V_0 X is k delta^2 within 1e-4: the V_0 -> 0 limit, where scipy's
        # ncx2 fails (noncentrality 1e15 and more); E[min of N K] = sum_k P(K >= k)^N
        at_least = p_k[::-1].cumsum()[::-1]
        return [a - b * shift * np.sum(at_least[1:] ** n) for n in budgets]
    # the law of X given k on a grid to 20 times the largest mean, far past its tail
    x = np.linspace(0.0, 20.0 * (d * m + m * shift / var), points)
    cdf = p_k @ stats.ncx2.cdf(x, d * m, k[:, None] * shift / var)
    return [a - b * var * np.trapezoid((1.0 - cdf) ** n, x) for n in budgets]


def bon_z(noise: bool = True) -> list[float]:
    """z of each shipped best-of-N row's mean against the closed form."""
    rows = shipped_bon_rows()
    settings = load_config(SCALING_DEFAULT)[0].settings
    expected = expected_best_of_n(settings, [n for n, _, _ in rows], noise)
    return [(mean - want) / stderr for (_, mean, stderr), want in zip(rows, expected)]


def test_best_of_n_rows_match_the_closed_form():
    # the 11 budgets share their trials, so they are not 11 independent checks
    z = bon_z()
    assert len(z) == 11 and max(map(abs, z)) < Z_BOUND, z


def test_a_best_of_n_law_without_the_noise_term_is_rejected():
    z = bon_z(noise=False)
    assert max(map(abs, z)) > Z_BOUND, z


# the scaling_default world with oracle masks and 3 defects a draw (defects.randomize=false),
# refined once per draw: 4,000 draws at each timing, seeds 30 and 31
REFINE_WORLD = dict(grid=(4, 4), patch_dim=2, v=0.09, horizon=1.0, n_steps=32, defects=3,
                    magnitude=0.6, rows=4000)
SHIPPED_TIMING, NO_SWEEP = (0.4, 0.04, 16, 2), (0.4, 0.0, 16, 0)


def expected_cells(t0: float, t_g: float, n_refine: int, n_integrate: int) -> tuple:
    """The expected refinement gain of REFINE_WORLD's masked defective (TP) and
    unmasked clean (TN) patches, by the composed law (mu = 0)."""
    w = REFINE_WORLD
    v, h, d, m = w["v"], w["horizon"], w["patch_dim"], math.prod(w["grid"])
    var = base_law(0.0, v, h, w["n_steps"])[1]
    sweep = np.linspace(t_g, 0.0, n_integrate + 1).tolist()

    def noised(t):  # the anchor noised to t: L = alpha(t), Q = sigma(t)^2
        return math.cos(0.5 * math.pi * t / h), 0.0, math.sin(0.5 * math.pi * t / h) ** 2

    refined = step_law(np.linspace(t0, t_g, n_refine + 1).tolist(), 0.0, v, h, noised(t0))
    masked, unmasked = (step_law(sweep, 0.0, v, h, law) for law in (refined, noised(t_g)))

    def gain(law, norm2):  # one patch's expected score change, weight 1 / m
        lin, _, q = law
        return -((lin * lin - 1.0) * norm2 + d * q) / (2.0 * v * m)

    k = w["defects"]
    return (k * gain(masked, d * var + w["magnitude"] ** 2),
            (m - k) * gain(unmasked, d * var))


def engine_cells(timing: tuple, seed: int) -> tuple:
    """Per draw, the refinement's score gain on the masked patches (TP) and on
    the unmasked ones (TN), from the states dfs_search evaluates; they add up
    to the verifier's gain."""
    w = REFINE_WORLD
    world = PatchWorld.uniform(w["grid"], w["patch_dim"], [(1.0, 0.0, w["v"])])
    predictor = NoisePredictor(world, CosineSchedule(w["horizon"], w["n_steps"]))
    collected = []
    dfs_search(predictor, oracle_mask_source(world), SearchConfig(w["rows"], 1),
               ResampleConfig(*timing), np.random.default_rng(seed),
               defect_injecting_sampler(w["defects"], w["magnitude"]), collect=collected)
    base, refined = collected[0::2], collected[1::2]

    def norms(cands):  # each patch's squared norm, (rows, m)
        x = np.stack([cand.state.x for cand in cands])
        return (x.reshape(len(cands), world.n_patches, -1) ** 2).sum(axis=-1)

    gain = (norms(base) - norms(refined)) / (2.0 * w["v"] * world.n_patches)
    masked = np.stack([cand.mask.bits for cand in refined]).astype(bool)
    np.testing.assert_allclose(gain.sum(axis=1), [r.score - b.score for b, r in
                                                  zip(base, refined)], rtol=0, atol=1e-12)
    return (gain * masked).sum(axis=1), (gain * ~masked).sum(axis=1)


def mean_z(values: np.ndarray, want: float) -> float:
    """z of the sample mean of values against want."""
    return (values.mean() - want) / (values.std(ddof=1) / math.sqrt(values.size))


def test_refinement_gain_per_cell_matches_the_composed_law():
    expected = expected_cells(*SHIPPED_TIMING)
    assert expected == pytest.approx((0.357797, 0.011328), abs=5e-7)
    z = list(map(mean_z, engine_cells(SHIPPED_TIMING, 30), expected))
    assert max(map(abs, z)) < Z_BOUND, z


def test_without_a_sweep_unmasked_patches_gain_exactly_nothing():
    # at t_g = 0 the unmasked patches are the anchor's, bit for bit
    tp, tn = expected_cells(*NO_SWEEP)
    assert tn == 0.0
    masked, unmasked = engine_cells(NO_SWEEP, 31)
    assert not unmasked.any()
    z = mean_z(masked, tp)
    assert abs(z) < Z_BOUND, z
