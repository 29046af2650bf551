import concurrent.futures
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from localtts import seeding, theory
from localtts.theory import (
    InfeasibleParameterError,
    MaskStats,
    PatchEconomy,
    ValueDistribution,
    bon_curve,
    budget_gains,
    classify_regime,
    clean_selection_probability,
    dominance_check,
    expected_selection_stats,
    per_trial_gains,
    precision_floor,
    required_recall,
    simulate_bon_repair_frequency,
    simulate_patch_economy,
    sparse_dominance_approx,
)

# hand-worked reference economy: gains (0.5, 3.9), margin 3.4,
# recall threshold 0.05 / 0.4875
WORKED = PatchEconomy(
    m_patches=100, defects=10, repair_gain=1.0, harm_loss=0.5,
    repair_prob_global=0.5, repair_prob_local=0.5,
    harm_prob_global=0.1, harm_prob_local=0.1,
)
WORKED_STATS = MaskStats(recall=0.8, precision=0.8)


def chunk_ranges(monkeypatch, count: int, workers: int) -> tuple[list, list]:
    """The [start, stop) index ranges of seeding.run_chunks' chunks, in order, and the sizes
    of the pools it starts, each run in this process."""
    sizes = []

    class RecordingPool:  # runs in-process and records the pool size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    def indices(payload, seeds):  # one row per chunk: its seeds' indices
        return [[seed.spawn_key[-1] for seed in seeds]]

    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        chunks = seeding.run_chunks(indices, None, count, np.random.SeedSequence(0), workers)
    assert [i for chunk in chunks for i in chunk] == list(range(count))  # index order
    return [(chunk[0], chunk[-1] + 1) for chunk in chunks], sizes


class TestMaskStats:
    def test_zero_precision_is_excluded(self):
        with pytest.raises(ValueError, match="degenerate"):
            MaskStats(recall=0.5, precision=0.0)

    def test_recall_range(self):
        with pytest.raises(ValueError, match="recall"):
            MaskStats(recall=1.2, precision=0.5)


class TestPatchEconomy:
    def test_defect_count_bounds(self):
        with pytest.raises(ValueError, match="defects"):
            PatchEconomy(m_patches=10, defects=11, repair_gain=1, harm_loss=1,
                         repair_prob_global=0.5, repair_prob_local=0.5,
                         harm_prob_global=0.1, harm_prob_local=0.1)

    def test_probability_ranges(self):
        with pytest.raises(ValueError, match="repair_prob_global"):
            PatchEconomy(m_patches=10, defects=1, repair_gain=1, harm_loss=1,
                         repair_prob_global=1.5, repair_prob_local=0.5,
                         harm_prob_global=0.1, harm_prob_local=0.1)

    def test_costs_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PatchEconomy(m_patches=10, defects=1, repair_gain=1, harm_loss=1,
                         repair_prob_global=0.5, repair_prob_local=0.5,
                         harm_prob_global=0.1, harm_prob_local=0.1,
                         cost_global=0.0)


class TestSelectionStats:
    def test_perfect_mask(self):
        assert expected_selection_stats(MaskStats(recall=1.0, precision=1.0), 5) == \
            (5.0, 5.0, 0.0)

    def test_hand_evaluation(self):
        tp, sel, fp = expected_selection_stats(MaskStats(recall=0.8, precision=0.5), 10)
        assert (tp, sel, fp) == (pytest.approx(8.0), pytest.approx(16.0),
                                 pytest.approx(8.0))

    def test_zero_recall(self):
        assert expected_selection_stats(MaskStats(recall=0.0, precision=0.7), 3) == \
            (0.0, 0.0, 0.0)


class TestGains:
    def test_hand_per_trial_gains(self):
        gain_global, gain_local = per_trial_gains(WORKED, WORKED_STATS)
        assert gain_global == pytest.approx(0.5)
        assert gain_local == pytest.approx(3.9)

    def test_zero_harm_reduces_to_pure_repair(self):
        econ = PatchEconomy(m_patches=100, defects=10, repair_gain=1.0, harm_loss=0.5,
                            repair_prob_global=0.5, repair_prob_local=0.5,
                            harm_prob_global=0.0, harm_prob_local=0.0)
        gain_global, gain_local = per_trial_gains(econ, WORKED_STATS)
        assert gain_global == pytest.approx(10 * 0.5 * 1.0)
        assert gain_local == pytest.approx(0.8 * 10 * 0.5 * 1.0)

    def test_budget_scaling(self):
        assert budget_gains(WORKED, WORKED_STATS) == pytest.approx((0.5, 3.9))
        tenfold = PatchEconomy(**{**WORKED.__dict__, "budget": 10.0})
        assert budget_gains(tenfold, WORKED_STATS) == pytest.approx((5.0, 39.0))
        doubled = PatchEconomy(**{**WORKED.__dict__, "budget": 2.0})
        assert budget_gains(doubled, WORKED_STATS) == pytest.approx((1.0, 7.8))


class TestDominance:
    def test_worked_margin(self):
        holds, margin = dominance_check(WORKED, WORKED_STATS)
        assert holds
        assert margin == pytest.approx(3.4)

    def test_dense_symmetric_case_fails(self):
        econ = PatchEconomy(m_patches=50, defects=50, repair_gain=1.0, harm_loss=0.5,
                            repair_prob_global=0.4, repair_prob_local=0.4,
                            harm_prob_global=0.1, harm_prob_local=0.1)
        holds, margin = dominance_check(econ, MaskStats(recall=1.0, precision=1.0))
        assert not holds
        assert margin == pytest.approx(0.0)

    def test_vanishing_local_cost_blows_up_margin(self):
        econ = PatchEconomy(**{**WORKED.__dict__, "cost_local": 1e-9})
        _, margin = dominance_check(econ, WORKED_STATS)
        assert margin > 1e9


class TestRecallThreshold:
    def test_hand_value(self):
        req = required_recall(WORKED, 0.8)
        assert req.raw == pytest.approx(0.05 / 0.4875)
        assert req.clamped == pytest.approx(0.10256410256, rel=1e-9)

    def test_negative_numerator_means_any_recall(self):
        econ = PatchEconomy(**{**WORKED.__dict__, "harm_prob_global": 0.5})
        req = required_recall(econ, 0.8)
        assert req.raw < 0
        assert req.clamped == 0.0

    def test_denominator_guard(self):
        with pytest.raises(InfeasibleParameterError, match="net benefit"):
            required_recall(WORKED, 0.05)  # precision below the floor

    def test_threshold_is_the_exact_dominance_root(self):
        rho_star = required_recall(WORKED, 0.8).raw
        eps = 1e-6
        above, _ = dominance_check(WORKED,
                                   MaskStats(recall=rho_star * (1 + eps), precision=0.8))
        below, _ = dominance_check(WORKED,
                                   MaskStats(recall=rho_star * (1 - eps), precision=0.8))
        assert above and not below

    def test_root_flip_across_random_economies(self):
        rng = np.random.default_rng(2024)
        tested = 0
        while tested < 25:
            econ = PatchEconomy(
                m_patches=int(rng.integers(20, 400)),
                defects=int(rng.integers(1, 10)),
                repair_gain=float(rng.uniform(0.5, 2.0)),
                harm_loss=float(rng.uniform(0.05, 1.0)),
                repair_prob_global=float(rng.uniform(0.1, 1.0)),
                repair_prob_local=float(rng.uniform(0.1, 1.0)),
                harm_prob_global=float(rng.uniform(0.0, 0.05)),
                harm_prob_local=float(rng.uniform(0.0, 0.2)),
                cost_global=float(rng.uniform(0.5, 2.0)),
                cost_local=float(rng.uniform(0.5, 2.0)),
            )
            precision = float(rng.uniform(0.3, 1.0))
            try:
                rho_star = required_recall(econ, precision).raw
            except InfeasibleParameterError:
                continue
            if not 1e-3 < rho_star < 1.0 - 1e-3:
                continue
            eps = 1e-6
            above, _ = dominance_check(
                econ, MaskStats(recall=rho_star * (1 + eps), precision=precision))
            below, _ = dominance_check(
                econ, MaskStats(recall=rho_star * (1 - eps), precision=precision))
            assert above and not below
            tested += 1


class TestPrecisionFloor:
    def test_hand_value(self):
        assert precision_floor(0.5, 1.0, 0.1, 0.5) == pytest.approx(1.0 / 11.0)

    def test_harmless_edits_need_no_precision(self):
        assert precision_floor(0.5, 1.0, 0.0, 0.5) == 0.0

    def test_balance_point(self):
        assert precision_floor(0.4, 0.5, 0.4, 0.5) == pytest.approx(0.5)

    def test_fully_degenerate_is_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            precision_floor(0.0, 0.0, 0.0, 1.0)


class TestBonCurve:
    def test_repair_probability_compounding(self):
        curve = bon_curve(0.5, WORKED, 3)
        assert curve.points[0].repair_prob == pytest.approx(0.5)
        assert curve.points[1].repair_prob == pytest.approx(0.75)
        assert curve.points[2].repair_prob == pytest.approx(0.875)

    def test_increments_strictly_decreasing(self):
        curve = bon_curve(0.3, WORKED, 50)
        probs = [p.repair_prob for p in curve.points]
        increments = np.diff(probs)
        assert np.all(increments > 0)
        assert np.all(np.diff(increments) < 0)
        # closed-form increment: (1 - theta)^n * theta
        for n, inc in enumerate(increments, start=1):
            assert inc == pytest.approx((1 - 0.3) ** n * 0.3, rel=1e-9)

    def test_normalized_gain_eventually_non_increasing(self):
        for theta in (0.05, 0.3, 0.7, 0.95):
            curve = bon_curve(theta, WORKED, 200)
            gains = [p.normalized_gain for p in curve.points]
            peak = int(np.argmax(gains))
            tail = np.diff(gains[peak:])
            assert np.all(tail <= 1e-12)

    def test_first_decline_flag(self):
        curve = bon_curve(0.5, WORKED, 10)
        gains = [p.normalized_gain for p in curve.points]
        first = next(n for n in range(1, len(gains)) if gains[n] < gains[n - 1]) + 1
        assert curve.first_decline == first

    def test_input_validation(self):
        with pytest.raises(ValueError, match=r"repair_prob_one: must lie in \(0, 1\)"):
            bon_curve(0.0, WORKED, 5)
        with pytest.raises(ValueError, match="n_max"):
            bon_curve(0.5, WORKED, 0)


class TestRegimeFlags:
    def test_dense_defects(self):
        econ = PatchEconomy(**{**WORKED.__dict__, "defects": WORKED.m_patches})
        flags = classify_regime(econ, WORKED_STATS)
        assert flags.dense_defects

    def test_low_precision(self):
        floor = precision_floor(0.5, 1.0, 0.1, 0.5)
        flags = classify_regime(WORKED, MaskStats(recall=0.8, precision=floor / 2))
        assert flags.low_precision
        assert not classify_regime(WORKED, WORKED_STATS).low_precision

    def test_weak_local_repair_boundary_excluded(self):
        econ = PatchEconomy(**{**WORKED.__dict__,
                               "repair_prob_local": WORKED.repair_prob_global})
        flags = classify_regime(econ, MaskStats(recall=1.0, precision=0.8))
        assert not flags.weak_local_repair
        weaker = PatchEconomy(**{**WORKED.__dict__, "repair_prob_local": 0.2})
        assert classify_regime(weaker, MaskStats(recall=1.0, precision=0.8)).weak_local_repair


class TestSimulator:
    def test_worked_economy_matches_closed_forms(self):
        sim = simulate_patch_economy(WORKED, WORKED_STATS, 100_000, seed=42)
        assert abs(sim.gain_local_mean - 3.9) < 3 * sim.gain_local_se
        assert abs(sim.gain_global_mean - 0.5) < 3 * sim.gain_global_se
        assert abs(sim.tp_mean - 8.0) < 3 * sim.tp_se
        assert abs(sim.selected_mean - 10.0) < 3 * sim.selected_se
        assert abs(sim.fp_mean - 2.0) < 3 * sim.fp_se

    def test_perfect_mask_never_selects_clean_patches(self):
        stats = MaskStats(recall=1.0, precision=1.0)
        assert clean_selection_probability(WORKED, stats) == 0.0
        sim = simulate_patch_economy(WORKED, stats, 20_000, seed=1)
        assert sim.fp_mean == 0.0 and sim.fp_se == 0.0
        assert sim.tp_mean == WORKED.defects

    def test_recall_estimate(self):
        sim = simulate_patch_economy(WORKED, WORKED_STATS, 50_000, seed=2)
        se_recall = sim.tp_se / WORKED.defects
        assert abs(sim.tp_mean / WORKED.defects - 0.8) < 3 * se_recall

    def test_infeasible_combination_rejected(self):
        econ = PatchEconomy(m_patches=60, defects=50, repair_gain=1, harm_loss=1,
                            repair_prob_global=0.5, repair_prob_local=0.5,
                            harm_prob_global=0.1, harm_prob_local=0.1)
        stats = MaskStats(recall=1.0, precision=0.1)
        with pytest.raises(InfeasibleParameterError, match="> 1"):
            simulate_patch_economy(econ, stats, 10, seed=0)

    def test_no_clean_patches_requires_perfect_precision(self):
        econ = PatchEconomy(m_patches=10, defects=10, repair_gain=1, harm_loss=1,
                            repair_prob_global=0.5, repair_prob_local=0.5,
                            harm_prob_global=0.1, harm_prob_local=0.1)
        assert clean_selection_probability(econ, MaskStats(recall=1.0, precision=1.0)) == 0.0
        with pytest.raises(InfeasibleParameterError, match="no clean patches"):
            clean_selection_probability(econ, MaskStats(recall=1.0, precision=0.5))

    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    def test_heterogeneous_values_preserve_expectations(self, kind):
        sim = simulate_patch_economy(
            WORKED, WORKED_STATS, 60_000, seed=7,
            repair_dist=ValueDistribution(kind=kind), harm_dist=ValueDistribution(kind=kind))
        assert abs(sim.gain_local_mean - 3.9) < 3 * sim.gain_local_se
        assert abs(sim.gain_global_mean - 0.5) < 3 * sim.gain_global_se

    @pytest.mark.parametrize("kind", ["constant", "uniform"])
    def test_no_clean_patches_simulates_no_false_positives(self, kind):
        # every patch is defective, so the clean-patch draws are empty
        econ = PatchEconomy(m_patches=10, defects=10, repair_gain=1.5, harm_loss=0.5,
                            repair_prob_global=0.5, repair_prob_local=0.7,
                            harm_prob_global=0.1, harm_prob_local=0.1)
        stats = MaskStats(recall=0.8, precision=1.0)
        sim = simulate_patch_economy(econ, stats, 20_000, seed=3,
                                     repair_dist=ValueDistribution(kind=kind),
                                     harm_dist=ValueDistribution(kind=kind))
        assert sim.fp_mean == sim.fp_se == 0.0
        gain_global, gain_local = per_trial_gains(econ, stats)  # 7.5 and 8.4
        for estimate, se, closed in ((sim.tp_mean, sim.tp_se, 8.0),
                                     (sim.gain_local_mean, sim.gain_local_se, gain_local),
                                     (sim.gain_global_mean, sim.gain_global_se, gain_global)):
            assert se > 0 and abs(estimate - closed) < 3 * se

    def test_worker_count_does_not_change_results(self):
        a = simulate_patch_economy(WORKED, WORKED_STATS, 20_000, seed=5, workers=1)
        b = simulate_patch_economy(WORKED, WORKED_STATS, 20_000, seed=5, workers=3)
        assert a == b

    @pytest.mark.parametrize("kinds, trials", [
        (("constant", "constant"), 2 * theory._CHUNK),
        (("exponential", "uniform"), 3 * theory._CHUNK + 5)])  # the last chunk partial
    @pytest.mark.parametrize("seed", [11, np.random.SeedSequence(11, spawn_key=(1, 0))])
    def test_chunk_i_draws_from_child_i_of_the_seed(self, kinds, trials, seed):
        # the reference loop: chunk i draws from SeedSequence(entropy, spawn_key=(*key, i))
        # and the chunks' moments merge in chunk order
        dists = [ValueDistribution(kind) for kind in kinds]
        base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        p_clean = clean_selection_probability(WORKED, WORKED_STATS)
        workspace = theory._workspace(WORKED, theory._CHUNK)
        streams = None
        for i in range(-(-trials // theory._CHUNK)):
            rng = np.random.default_rng(np.random.SeedSequence(
                base.entropy, spawn_key=(*base.spawn_key, i)))
            tp, fp, local, global_ = theory._simulate_chunk(
                WORKED, WORKED_STATS, p_clean, min(theory._CHUNK, trials - i * theory._CHUNK),
                rng, *dists, workspace)
            parts = [theory._moments(v) for v in (tp, tp + fp, fp, local, global_)]
            streams = parts if streams is None else list(map(theory._merge, streams, parts))
        tp, selected, fp, local, global_ = (theory._mean_se(*m) for m in streams)
        want = theory.EconomySimResult(trials, *global_, *local, *tp, *selected, *fp)
        for workers in (1, 3):
            assert simulate_patch_economy(WORKED, WORKED_STATS, trials, seed, *dists,
                                          workers=workers) == want
        assert base.n_children_spawned == 0  # the caller's seed is left unspawned

    def test_pool_only_for_several_tasks_and_workers(self, monkeypatch):
        assert chunk_ranges(monkeypatch, 3, 8) == ([(0, 1), (1, 2), (2, 3)], [3])
        assert chunk_ranges(monkeypatch, 1, 8) == ([(0, 1)], [])
        assert chunk_ranges(monkeypatch, 2, 1) == ([(0, 2)], [])

    @pytest.mark.parametrize("workers", range(1, 9))
    def test_task_ranges_are_equal_shares(self, monkeypatch, workers):
        for count in range(1, 61):
            ranges, _ = chunk_ranges(monkeypatch, count, workers)
            assert len(ranges) == (1 if workers == 1 else min(count, 4 * workers))
            assert ranges[0][0] == 0 and ranges[-1][1] == count
            assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
            sizes = [stop - start for start, stop in ranges]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_chunk_merge_keeps_variance_of_offset_stream(self):
        values = 1e9 + np.random.default_rng(0).standard_normal(5 * 4096)
        chunks = np.array_split(values, 5)
        exact_var = float(np.var(values - 1e9, ddof=1))  # the shift is exact here
        n, mean, m2 = functools.reduce(theory._merge, map(theory._moments, chunks))
        assert n == values.size and mean == pytest.approx(1e9 + np.mean(values - 1e9), abs=1e-6)
        assert m2 / (n - 1) == pytest.approx(exact_var, rel=1e-6)
        assert theory._mean_se(n, mean, m2)[1] == pytest.approx(
            math.sqrt(exact_var / n), rel=1e-6)
        # a sum and a sum of squares per chunk lose the unit spread entirely
        total = total_sq = 0.0
        for chunk in chunks:
            total += float(chunk.sum())
            total_sq += float(np.square(chunk).sum())
        naive_var = max(total_sq / n - (total / n) ** 2, 0.0) * n / (n - 1)
        assert abs(naive_var - exact_var) > 0.5 * exact_var

    @pytest.mark.parametrize("repair_kind, harm_kind", [
        pair for pair in itertools.product(["constant", "uniform", "exponential"], repeat=2)
        if pair != ("constant", "constant")])
    def test_chunk_keeps_the_bits_of_fresh_arrays(self, repair_kind, harm_kind):
        def reference(econ, stats, p_clean, n, rng):  # fresh arrays, numpy's samplers
            s, clean = econ.defects, econ.m_patches - econ.defects
            samplers = {"constant": lambda shape, mean: np.full(shape, mean),
                        "uniform": lambda shape, mean: rng.uniform(0.0, 2.0 * mean, size=shape),
                        "exponential": lambda shape, mean: rng.exponential(mean, size=shape)}
            sel_def = rng.random((n, s)) < stats.recall
            sel_clean = rng.random((n, clean)) < p_clean
            gains = samplers[repair_kind]((n, s), econ.repair_gain)
            losses = samplers[harm_kind]((n, clean), econ.harm_loss)
            rep_local = sel_def & (rng.random((n, s)) < econ.repair_prob_local)
            harm_local = sel_clean & (rng.random((n, clean)) < econ.harm_prob_local)
            local = (gains * rep_local).sum(axis=1) - (losses * harm_local).sum(axis=1)
            rep_g = rng.random((n, s)) < econ.repair_prob_global
            harm_g = rng.random((n, clean)) < econ.harm_prob_global
            global_ = (gains * rep_g).sum(axis=1) - (losses * harm_g).sum(axis=1)
            return sel_def.sum(axis=1), sel_clean.sum(axis=1), local, global_

        dists = ValueDistribution(repair_kind), ValueDistribution(harm_kind)
        for m_patches, defects, precision in ((100, 10, 0.8), (7, 1, 0.5), (10, 10, 1.0)):
            econ = PatchEconomy(**{**WORKED.__dict__, "m_patches": m_patches, "defects": defects,
                                   "repair_gain": 1.7, "harm_loss": 0.3})
            stats = MaskStats(recall=0.8, precision=precision)
            p_clean = clean_selection_probability(econ, stats)
            # the workspace _simulate_chunks allocates; partial chunks after a full one reuse it,
            # ending inside, at and one row past a slab
            workspace = theory._workspace(econ, theory._CHUNK)
            slab = theory._SLAB
            for n in (theory._CHUNK, 1, slab - 1, slab, slab + 1, 1000):
                got = theory._simulate_chunk(econ, stats, p_clean, n, np.random.default_rng(n),
                                             *dists, workspace)
                want = reference(econ, stats, p_clean, n, np.random.default_rng(n))
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("repair_kind, harm_kind", [
        ("exponential", "uniform"), ("constant", "exponential"), ("uniform", "constant")])
    def test_slab_size_does_not_change_the_bits(self, monkeypatch, repair_kind, harm_kind):
        dists = ValueDistribution(repair_kind), ValueDistribution(harm_kind)
        p_clean = clean_selection_probability(WORKED, WORKED_STATS)

        def chunk(n):
            workspace = theory._workspace(WORKED, theory._CHUNK)
            got = theory._simulate_chunk(WORKED, WORKED_STATS, p_clean, n,
                                         np.random.default_rng(12), *dists, workspace)
            return [a.tobytes() for a in got]

        want = {n: chunk(n) for n in (theory._CHUNK, 1000)}
        for slab in (1, 7, theory._CHUNK):
            monkeypatch.setattr(theory, "_SLAB", slab)
            assert {n: chunk(n) for n in want} == want, slab

    def test_chunk_peak_memory_stays_below_the_four_array_layout(self):
        # values and selections at chunk size and one slab of draws: 4.15 MB at 100 patches,
        # where four chunk-sized arrays took 7.4 MB
        dists = {"repair_dist": ValueDistribution("exponential"),
                 "harm_dist": ValueDistribution("uniform")}
        tracemalloc.start()
        try:
            simulate_patch_economy(WORKED, WORKED_STATS, theory._CHUNK, seed=6, **dists)
            assert tracemalloc.get_traced_memory()[1] < 6e6
        finally:
            tracemalloc.stop()

    def test_task_count_does_not_change_results(self, monkeypatch):
        # 11 chunks, the last one partial: at workers 1, 2 and 3 a task holds 11,
        # 1 or 2 (the last task 2) and 1 of them
        assert chunk_ranges(monkeypatch, 11, 2)[0] == [(0, 1), (1, 2), (2, 4), (4, 5), (5, 6),
                                                       (6, 8), (8, 9), (9, 11)]
        assert chunk_ranges(monkeypatch, 11, 3)[0] == [(i, i + 1) for i in range(11)]
        dists = {"repair_dist": ValueDistribution("uniform"),
                 "harm_dist": ValueDistribution("exponential")}
        trials = 10 * theory._CHUNK + 5
        a, b, c = (simulate_patch_economy(WORKED, WORKED_STATS, trials, seed=4, workers=workers,
                                          **dists) for workers in (1, 2, 3))
        assert a == b == c

    def test_chunks_of_a_task_share_one_workspace(self, monkeypatch):
        dists = {"repair_dist": ValueDistribution("exponential"),
                 "harm_dist": ValueDistribution("uniform")}

        def peak(trials):
            tracemalloc.start()
            try:
                simulate_patch_economy(WORKED, WORKED_STATS, trials, seed=6, **dists)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40 * theory._CHUNK) < 1.5 * peak(theory._CHUNK)
        buffers = []

        def recording(*args):
            buffers.append(args[-1][0][0])  # the defective patches' values array
            return simulate(*args)

        simulate = theory._simulate_chunk
        monkeypatch.setattr(theory, "_simulate_chunk", recording)
        simulate_patch_economy(WORKED, WORKED_STATS, 40 * theory._CHUNK, seed=6, **dists)
        assert len(buffers) == 40 and all(buffer is buffers[0] for buffer in buffers)

    def test_constant_values_allocate_no_workspace(self):
        # the binomial path draws per trial, not per patch: 2,000 patches cost no
        # 4,096 x 2,000 buffers
        econ = PatchEconomy(**{**WORKED.__dict__, "m_patches": 2000})
        tracemalloc.start()
        try:
            simulate_patch_economy(econ, WORKED_STATS, theory._CHUNK, seed=8)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()

    def test_dominance_sign_agreement_when_margin_is_clear(self):
        holds, margin = dominance_check(WORKED, WORKED_STATS)
        sim = simulate_patch_economy(WORKED, WORKED_STATS, 50_000, seed=9)
        emp_margin = (sim.gain_local_mean / WORKED.cost_local
                      - sim.gain_global_mean / WORKED.cost_global)
        emp_se = math.hypot(sim.gain_local_se / WORKED.cost_local,
                            sim.gain_global_se / WORKED.cost_global)
        assert abs(margin) > 5 * emp_se
        assert (emp_margin > 0) == holds


class TestSparseApproximation:
    def test_agreement_rate_in_sparse_benign_regime(self):
        # the simplified condition drops the local-harm term and rounds
        # (M/s - 1) up to M/s; in its stated regime (defect fraction <= 2%,
        # local harm <= global harm / 10, equal costs) it should agree with
        # the exact dominance check on at least 95% of random economies
        rng = np.random.default_rng(77)
        agree = 0
        total = 400
        for _ in range(total):
            m = int(rng.integers(200, 2000))
            s = max(1, int(m * rng.uniform(0.002, 0.02)))
            h_g = float(rng.uniform(0.0, 0.2))
            econ = PatchEconomy(
                m_patches=m, defects=s,
                repair_gain=float(rng.uniform(0.5, 2.0)),
                harm_loss=float(rng.uniform(0.1, 1.0)),
                repair_prob_global=float(rng.uniform(0.0, 1.0)),
                repair_prob_local=float(rng.uniform(0.0, 1.0)),
                harm_prob_global=h_g,
                harm_prob_local=h_g * float(rng.uniform(0.0, 0.1)),
            )
            stats = MaskStats(recall=float(rng.uniform(0.05, 1.0)),
                              precision=float(rng.uniform(0.3, 1.0)))
            exact, _ = dominance_check(econ, stats)
            if sparse_dominance_approx(econ, stats) == exact:
                agree += 1
        assert agree / total >= 0.95


class TestBonRepairFrequency:
    def test_matches_saturating_closed_form(self):
        for n in (1, 2, 5, 10):
            freq, se = simulate_bon_repair_frequency(0.3, n, 100_000, seed=n)
            expected = 1.0 - 0.7 ** n
            assert abs(freq - expected) < 3 * max(se, 1e-6)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: simulate_patch_economy(WORKED, WORKED_STATS, 0, 0),
                 "trials must be at least 1", id="economy-trials"),
    pytest.param(lambda: simulate_patch_economy(WORKED, WORKED_STATS, 10, 0, workers=0),
                 "workers must be at least 1", id="economy-workers"),
    *(pytest.param(lambda p=p: simulate_bon_repair_frequency(p, 3, 10, 0),
                   r"must lie in \(0, 1\)", id=f"bon-p={p}") for p in (0.0, 1.0)),
    *(pytest.param(lambda n=n, trials=trials: simulate_bon_repair_frequency(0.5, n, trials, 0),
                   "n and trials must be at least 1", id=f"bon-n={n}-trials={trials}")
      for n, trials in ((0, 10), (3, 0))),
])
def test_input_checks_reject_their_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
