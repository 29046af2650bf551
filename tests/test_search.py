import copy
import math

import numpy as np
import pytest

from localtts.resample import ResampleConfig
from localtts.search import (
    SearchConfig,
    SweepRow,
    SweepSettings,
    attention_mask_source,
    best_of_n,
    crossover_summary,
    defect_injecting_sampler,
    dfs_search,
    oracle_mask_source,
    plain_sampler,
    split_budget,
    summarize_sweep,
    sweep_trial,
)
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    sample_base,
)

RESAMPLE = ResampleConfig(t0=0.4, t_g=0.04, n_refine=8, n_integrate=2)


def make_predictor(n_steps=16, grid=(4, 4)):
    world = PatchWorld.uniform(grid, 2, [(1.0, 0.0, 0.09)])
    sched = CosineSchedule(horizon=1.0, n_steps=n_steps)
    return NoisePredictor(world=world, schedule=sched)


class TestConfigs:
    def test_search_config_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            SearchConfig(seeds=0, refinements=2)
        with pytest.raises(ValueError, match="refinements"):
            SearchConfig(seeds=1, refinements=-1)
        SearchConfig(seeds=3, refinements=2)

    def test_split_budget(self):
        assert split_budget(1, 2) == (1, 0)
        assert split_budget(3, 2) == (1, 2)
        assert split_budget(6, 2) == (2, 2)
        assert split_budget(9, 2) == (3, 2)
        with pytest.raises(ValueError, match="multiple"):
            split_budget(4, 2)
        with pytest.raises(ValueError, match="positive"):
            split_budget(0, 2)


class TestBestOfN:
    def test_single_draw_is_plain_sampling(self):
        predictor = make_predictor()
        collected = []
        cand = best_of_n(predictor, 1, np.random.default_rng(0), collect=collected)
        assert len(collected) == 1
        assert cand.lineage == (0, None)
        assert predictor.nfe == predictor.schedule.n_steps

    def test_best_is_prefix_max_of_the_stream(self):
        predictor = make_predictor()
        collected = []
        cand = best_of_n(predictor, 6, np.random.default_rng(1), collect=collected)
        scores = [c.score for c in collected]
        assert cand.score == max(scores)
        # same seed stream: best-of-3 equals the max of the first 3 draws
        predictor2 = make_predictor()
        cand3 = best_of_n(predictor2, 3, np.random.default_rng(1))
        assert cand3.score == max(scores[:3])

    def test_expected_best_is_nondecreasing_in_n(self):
        predictor = make_predictor(n_steps=8, grid=(2, 2))
        rng = np.random.default_rng(2)
        means = []
        for n in (1, 3, 6):
            scores = [best_of_n(predictor, n, rng).score for _ in range(80)]
            means.append(np.mean(scores))
        ses = 0.15  # generous Monte Carlo slack for 80 trials
        assert means[1] >= means[0] - ses
        assert means[2] >= means[1] - ses

    def test_nfe_budget(self):
        predictor = make_predictor(n_steps=8)
        best_of_n(predictor, 5, np.random.default_rng(3))
        assert predictor.nfe == 5 * 8


class TestDfsSearch:
    def test_zero_refinements_reduces_to_best_of_s(self):
        cfg = SearchConfig(seeds=4, refinements=0)
        a = dfs_search(make_predictor(), lambda s, c, r: None, cfg, RESAMPLE,
                       np.random.default_rng(5))
        b = best_of_n(make_predictor(), 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a.state.x, b.state.x)
        assert a.score == b.score

    def test_two_candidate_max(self):
        predictor = make_predictor()
        cfg = SearchConfig(seeds=1, refinements=1)
        collected = []
        best = dfs_search(predictor, oracle_mask_source(predictor.world), cfg, RESAMPLE,
                          np.random.default_rng(6),
                          base_sampler=defect_injecting_sampler(3, 0.6),
                          collect=collected)
        assert len(collected) == 2
        assert best.score == max(c.score for c in collected)

    def test_argmax_over_every_candidate_and_tie_break(self):
        predictor = make_predictor()
        cfg = SearchConfig(seeds=3, refinements=2)
        collected = []
        best = dfs_search(predictor, oracle_mask_source(predictor.world), cfg, RESAMPLE,
                          np.random.default_rng(7),
                          base_sampler=defect_injecting_sampler(2, 0.5),
                          collect=collected)
        assert len(collected) == 9
        assert best.score == max(c.score for c in collected)
        # constant verifier: every candidate ties, the first evaluated wins
        predictor2 = make_predictor()
        tied = dfs_search(predictor2, oracle_mask_source(predictor2.world), cfg, RESAMPLE,
                          np.random.default_rng(7),
                          base_sampler=defect_injecting_sampler(2, 0.5),
                          verifier=lambda state: 1.0)
        assert tied.lineage == (0, None)

    def test_refinements_only_add_candidates(self):
        # with a shared seed stream the base candidates coincide, so the
        # refined search can only match or beat every base score
        cfg0 = SearchConfig(seeds=3, refinements=0)
        cfg2 = SearchConfig(seeds=3, refinements=2)
        for seed in range(5):
            bases = []
            dfs_search(make_predictor(), oracle_mask_source(make_predictor().world),
                       cfg0, RESAMPLE, np.random.default_rng(seed),
                       base_sampler=defect_injecting_sampler(2, 0.6), collect=bases)
            best = dfs_search(make_predictor(),
                              oracle_mask_source(make_predictor().world),
                              cfg2, RESAMPLE, np.random.default_rng(seed),
                              base_sampler=defect_injecting_sampler(2, 0.6))
            assert best.score >= max(c.score for c in bases) - 1e-12

    def test_resample_may_be_none_only_without_refinements(self):
        predictor = make_predictor()
        cfg = SearchConfig(seeds=1, refinements=1)
        with pytest.raises(ValueError, match="refinements need a resample config"):
            dfs_search(predictor, oracle_mask_source(predictor.world), cfg, None,
                       np.random.default_rng(10), base_sampler=defect_injecting_sampler(2, 0.5))
        assert predictor.nfe == 0  # raised before any oracle work
        dfs_search(predictor, None, SearchConfig(seeds=2, refinements=0), None,
                   np.random.default_rng(10))
        assert predictor.nfe == 2 * predictor.schedule.n_steps

    def test_nfe_closed_form(self):
        predictor = make_predictor(n_steps=16)
        cfg = SearchConfig(seeds=3, refinements=2)
        dfs_search(predictor, oracle_mask_source(predictor.world), cfg, RESAMPLE,
                   np.random.default_rng(8),
                   base_sampler=defect_injecting_sampler(2, 0.5))
        expected = 3 * 16 + 3 * 2 * (RESAMPLE.n_refine + RESAMPLE.n_integrate)
        assert predictor.nfe == expected

    def test_candidate_costs_recorded(self):
        predictor = make_predictor(n_steps=16)
        cfg = SearchConfig(seeds=1, refinements=1)
        collected = []
        dfs_search(predictor, oracle_mask_source(predictor.world), cfg, RESAMPLE,
                   np.random.default_rng(9),
                   base_sampler=defect_injecting_sampler(2, 0.5), collect=collected)
        assert collected[0].nfe_cost == 16
        assert collected[1].nfe_cost == RESAMPLE.nfe_cost

    def test_oracle_masked_search_beats_equal_budget_best_of_n(self):
        # directional acceptance: at a matched NFE budget the localized search
        # should score at least as well on defect-injected worlds
        predictor_proto = make_predictor(n_steps=16)
        cfg = SearchConfig(seeds=2, refinements=2)
        resample = ResampleConfig(t0=0.4, t_g=0.0, n_refine=8, n_integrate=0)
        local_nfe = 2 * 16 + 2 * 2 * 8
        bon_n = local_nfe // 16  # 4 full samples
        sampler = defect_injecting_sampler(3, 0.6)
        local_scores, bon_scores = [], []
        for seed in range(60):
            p1 = make_predictor(n_steps=16)
            local_scores.append(
                dfs_search(p1, oracle_mask_source(p1.world), cfg, resample,
                           np.random.default_rng(1000 + seed),
                           base_sampler=sampler).score)
            assert p1.nfe == local_nfe
            p2 = make_predictor(n_steps=16)
            bon_scores.append(
                best_of_n(p2, bon_n, np.random.default_rng(2000 + seed),
                          base_sampler=sampler).score)
            assert p2.nfe == bon_n * 16
        local_scores = np.asarray(local_scores)
        bon_scores = np.asarray(bon_scores)
        se = math.hypot(local_scores.std(ddof=1) / math.sqrt(60),
                        bon_scores.std(ddof=1) / math.sqrt(60))
        assert local_scores.mean() >= bon_scores.mean() - 3 * se


class TestMaskSources:
    def test_oracle_source_needs_ground_truth(self):
        world = make_predictor().world
        source = oracle_mask_source(world)
        with pytest.raises(ValueError, match="ground-truth"):
            source(None, None, np.random.default_rng(0))
        mask = source(None, np.array([1, 5]), np.random.default_rng(0))
        np.testing.assert_array_equal(mask.selected, [1, 5])
        # a batch: one (rows, S) array of bits, a row per defect set
        bits = source.rows([np.array([1, 5]), np.array([0])],
                           list(np.random.default_rng(0).spawn(2)))
        assert bits.shape == (2, 16) and bits.dtype == np.uint8
        np.testing.assert_array_equal(np.flatnonzero(bits[0]), [1, 5])
        np.testing.assert_array_equal(np.flatnonzero(bits[1]), [0])
        with pytest.raises(ValueError, match="ground-truth"):
            source.rows([np.array([1]), None], list(np.random.default_rng(0).spawn(2)))

    def test_attention_source_recovers_planted_set_noiselessly(self):
        predictor = make_predictor()
        sampler = defect_injecting_sampler(4, 0.8)
        rng = np.random.default_rng(10)
        x, [true_set] = sampler(predictor.world, sample_base(predictor, rng).x[None], [rng])
        state = LatentState(x=x[0], t=0.0)
        source = attention_mask_source(predictor.world, gain_pos=0.3, gain_neg=0.3,
                                       noise_sd=0.0, weight=0.5, ratio=4 / 16)
        rows_rng = copy.deepcopy(rng)
        mask = source(state, true_set, rng)
        np.testing.assert_array_equal(mask.selected, true_set)
        [bits] = source.rows([true_set], [rows_rng])
        np.testing.assert_array_equal(bits, mask.bits)
        assert rows_rng.bit_generator.state == rng.bit_generator.state

    def test_randomized_sampler_varies_defect_count(self):
        predictor = make_predictor()
        sampler = defect_injecting_sampler(3, 0.5, randomize=True)
        rng = np.random.default_rng(11)
        counts = {sampler(predictor.world, sample_base(predictor, rng).x[None], [rng])[1][0].size
                  for _ in range(40)}
        assert len(counts) > 1
        fixed = defect_injecting_sampler(3, 0.5, randomize=False)
        assert all(fixed(predictor.world, sample_base(predictor, rng).x[None], [rng])[1][0].size
                   == 3 for _ in range(5))


def small_settings(**kwargs):
    world = PatchWorld.uniform((4, 4), 2, [(1.0, 0.0, 0.09)])
    sched = CosineSchedule(horizon=1.0, n_steps=8)
    defaults = dict(
        world=world, schedule=sched,
        resample=ResampleConfig(t0=0.4, t_g=0.04, n_refine=4, n_integrate=1),
        refinements=2, n_grid=(1, 3), bon_grid=(1, 2, 4),
        defect_count=3, defect_magnitude=0.6, gain_pos=0.3, gain_neg=0.3,
        noise_sd=0.2, mask_weight=0.5, mask_ratio=0.25,
    )
    defaults.update(kwargs)
    return SweepSettings(**defaults)


class TestSweepSettingsValidation:
    def test_every_broken_rule_reported_by_field(self):
        with pytest.raises(ValueError) as err:
            small_settings(defect_count=99, mask_ratio=1.5, noise_sd=-1.0, n_grid=(1, 4),
                           resample=ResampleConfig(t0=1.5, t_g=0.1, n_refine=4,
                                                   n_integrate=1))
        fields = sorted(error.split(":")[0] for error in err.value.errors)
        assert fields == ["defect_count", "mask_ratio", "n_grid", "noise_sd", "resample.t0"]

    def test_settings_from_equal_parts_are_equal(self):
        # small_settings builds a new world each call
        assert small_settings() == small_settings()
        assert small_settings() != small_settings(world=PatchWorld.uniform(
            (4, 4), 2, [(1.0, 0.0, 0.09)], verifier_weights=np.r_[0.1, np.full(15, 0.06)]))


class TestScalingSweep:
    def test_trial_structure_and_nfe(self):
        settings = small_settings()
        result = sweep_trial(settings, np.random.SeedSequence(0))
        assert set(result["local"]) == {1, 3}
        assert set(result["bon"]) == {1, 2, 4}
        assert result["local_nfe"][3] == settings.local_nfe(3) == 8 + 2 * 5
        assert settings.local_nfe(1) == 8
        assert result["bon_nfe"] == 4 * 8

    @pytest.mark.parametrize("key", ["local_nfe", "bon_nfe"])
    def test_summary_rejects_measured_nfe_off_analytic(self, key):
        settings = small_settings()
        results = [sweep_trial(settings, np.random.SeedSequence(entropy=5, spawn_key=(i,)))
                   for i in range(2)]
        summarize_sweep(settings, results)
        if key == "local_nfe":
            results[1]["local_nfe"][3] += 1
            match = r"localized n=3: measured NFE \[18, 19\] differs from analytic 18"
        else:
            results[1]["bon_nfe"] -= 1
            match = r"best_of_n: measured NFE \[31, 32\] differs from analytic 32"
        with pytest.raises(RuntimeError, match=match):
            summarize_sweep(settings, results)

    def test_summary_rejects_a_dropped_integration_step(self, monkeypatch):
        # every base draw runs one step short: each phase's counter delta
        # still equals rows x steps run, but no share matches the analytic NFE
        grid = CosineSchedule.step_times
        monkeypatch.setattr(CosineSchedule, "step_times", lambda self: grid(self)[1:])
        settings = small_settings()
        results = [sweep_trial(settings, np.random.SeedSequence(entropy=6, spawn_key=(i,)))
                   for i in range(2)]
        assert results[0]["bon_nfe"] == 4 * 7
        with pytest.raises(RuntimeError, match=r"best_of_n: measured NFE \[28\] differs"):
            summarize_sweep(settings, results)

    def test_engine_rejects_oracle_counter_off_rows_times_steps(self, monkeypatch):
        count = NoisePredictor._count

        def count_one_extra(self, x):
            count(self, x)
            self.nfe += 1

        monkeypatch.setattr(NoisePredictor, "_count", count_one_extra)
        with pytest.raises(RuntimeError, match="base phase: the oracle counted"):
            sweep_trial(small_settings(), np.random.SeedSequence(7))

    def test_bon_prefix_is_monotone_within_each_trial(self):
        settings = small_settings()
        for seed in range(5):
            result = sweep_trial(settings, np.random.SeedSequence(seed))
            assert result["bon"][1] <= result["bon"][2] <= result["bon"][4]

    def test_degenerate_budget_rows_statistically_identical(self):
        settings = small_settings()
        results = [sweep_trial(settings, np.random.SeedSequence(entropy=3, spawn_key=(i,)))
                   for i in range(150)]
        local1 = np.array([r["local"][1] for r in results])
        bon1 = np.array([r["bon"][1] for r in results])
        se = math.hypot(local1.std(ddof=1) / math.sqrt(local1.size),
                        bon1.std(ddof=1) / math.sqrt(bon1.size))
        assert abs(local1.mean() - bon1.mean()) < 3 * se

    def test_summary_rows_fixed_order(self):
        settings = small_settings()
        results = [sweep_trial(settings, np.random.SeedSequence(entropy=4, spawn_key=(i,)))
                   for i in range(4)]
        rows = summarize_sweep(settings, results)
        assert [(r.method, r.n) for r in rows] == [
            ("localized", 1), ("localized", 3),
            ("best_of_n", 1), ("best_of_n", 2), ("best_of_n", 4)]

    def test_crossover_summary(self):
        rows = [
            SweepRow("localized", 3, 18, 0.5, 0.01),
            SweepRow("best_of_n", 1, 8, -1.0, 0.01),
            SweepRow("best_of_n", 2, 16, 0.2, 0.01),
            SweepRow("best_of_n", 4, 32, 0.7, 0.01),
        ]
        summary = crossover_summary(rows, 3)
        assert summary["parity_n"] == 4
        assert summary["efficiency_ratio"] == pytest.approx(32 / 18)
        rows_no_parity = rows[:3]
        assert crossover_summary(rows_no_parity, 3)["parity_n"] is None


class TestPlainSampler:
    def test_returns_state_without_context(self):
        predictor = make_predictor(n_steps=8)
        rng = np.random.default_rng(0)
        batch = sample_base(predictor, rng, shape=(2,)).x
        x, context = plain_sampler(predictor.world, batch, [rng, rng])
        assert context == [None, None]
        assert x is batch
