"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s``) and fails
the corresponding test on violation. Tolerances are pinned here: Monte
Carlo estimates must sit within 3 standard errors of their closed forms,
exactness claims are bit-level or relative-1e-6 level, and the two runtime
budgets (selection statistics < 30 s, score oracle < 60 s) are enforced
with wall-clock checks.
"""
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import ttest_1samp

from localtts.attention import QualityMap, mask_cardinality, mask_from_indices, mask_gen, threshold_mask
from localtts.config import validate_config
from localtts.harness import run_experiment
from localtts.resample import ResampleConfig, localized_resample
from localtts.search import SweepSettings, crossover_summary, summarize_sweep, sweep_trials
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    gmm_score,
    log_density,
    sample_base,
    synth_attention,
    verifier_score,
)
from localtts.theory import (
    InfeasibleParameterError,
    MaskStats,
    PatchEconomy,
    bon_curve,
    dominance_check,
    per_trial_gains,
    precision_floor,
    required_recall,
    simulate_bon_repair_frequency,
    simulate_patch_economy,
)

WORKED = PatchEconomy(
    m_patches=100, defects=10, repair_gain=1.0, harm_loss=0.5,
    repair_prob_global=0.5, repair_prob_local=0.5,
    harm_prob_global=0.1, harm_prob_local=0.1,
)
WORKED_STATS = MaskStats(recall=0.8, precision=0.8)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_selection_statistics_oracle():
    """Expected TP / selection size / FP match the closed forms on a
    3x3x3 grid of (recall, precision, defect count) at 1e5 trials."""
    start = time.monotonic()
    failures = []
    max_z = 0.0
    for recall, precision, defects in itertools.product(
            (0.5, 0.8, 1.0), (0.5, 0.8, 1.0), (5, 10, 50)):
        econ = PatchEconomy(
            m_patches=200, defects=defects, repair_gain=1.0, harm_loss=0.5,
            repair_prob_global=0.5, repair_prob_local=0.5,
            harm_prob_global=0.1, harm_prob_local=0.1)
        stats = MaskStats(recall=recall, precision=precision)
        sim = simulate_patch_economy(econ, stats, 100_000,
                                     seed=hash((recall, precision, defects)) % 2**32)
        e_tp = recall * defects
        e_sel = e_tp / precision
        e_fp = e_sel - e_tp
        for label, est, se, expect in (
                ("tp", sim.tp_mean, sim.tp_se, e_tp),
                ("selected", sim.selected_mean, sim.selected_se, e_sel),
                ("fp", sim.fp_mean, sim.fp_se, e_fp)):
            if se == 0.0:
                ok = est == expect
            else:
                ok = abs(est - expect) < 3 * se
                max_z = max(max_z, abs(est - expect) / se)
            if not ok:
                failures.append(f"{label}@(rho={recall},pi={precision},s={defects})")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(1, "selection-statistics oracle agreement", not failures,
           f"27 grid points, max |z| = {max_z:.2f}, {elapsed:.1f}s")


def test_criterion_02_per_trial_gain_tightness():
    """Simulated per-trial gains equal the closed forms (independent
    patches make the additive bound tight) for the worked economy and 20
    random feasible economies."""
    failures = []
    max_z = 0.0

    def check(econ, stats, trials, seed, label):
        nonlocal max_z
        gain_global, gain_local = per_trial_gains(econ, stats)
        sim = simulate_patch_economy(econ, stats, trials, seed=seed)
        for name, est, se, expect in (
                ("global", sim.gain_global_mean, sim.gain_global_se, gain_global),
                ("local", sim.gain_local_mean, sim.gain_local_se, gain_local)):
            if se == 0.0:
                ok = abs(est - expect) < 1e-12
            else:
                z = abs(est - expect) / se
                max_z = max(max_z, z)
                ok = z < 3
            if not ok:
                failures.append(f"{label}:{name}")

    assert per_trial_gains(WORKED, WORKED_STATS) == pytest.approx((0.5, 3.9))
    check(WORKED, WORKED_STATS, 100_000, 42, "worked")
    rng = np.random.default_rng(20_240_601)
    generated = 0
    while generated < 20:
        m = int(rng.integers(20, 300))
        s = int(rng.integers(1, max(2, m // 3)))
        econ = PatchEconomy(
            m_patches=m, defects=s,
            repair_gain=float(rng.uniform(0.2, 2.0)),
            harm_loss=float(rng.uniform(0.05, 1.0)),
            repair_prob_global=float(rng.uniform(0.0, 1.0)),
            repair_prob_local=float(rng.uniform(0.0, 1.0)),
            harm_prob_global=float(rng.uniform(0.0, 0.5)),
            harm_prob_local=float(rng.uniform(0.0, 0.5)))
        stats = MaskStats(recall=float(rng.uniform(0.0, 1.0)),
                          precision=float(rng.uniform(0.05, 1.0)))
        try:
            check(econ, stats, 20_000, 1000 + generated, f"random{generated}")
        except InfeasibleParameterError:
            continue
        generated += 1
    report(2, "per-trial gain tightness (worked + 20 random economies)",
           not failures, f"max |z| = {max_z:.2f}")


def test_criterion_03_threshold_exactness():
    """The dominance margin flips sign exactly at the recall threshold, and
    the precision floor reproduces its hand value."""
    failures = []
    floor = precision_floor(0.5, 1.0, 0.1, 0.5)
    if abs(floor - 1.0 / 11.0) > 1e-12:
        failures.append(f"precision floor {floor} != 1/11")

    def flips(econ, precision):
        rho_star = required_recall(econ, precision).raw
        if not 0.0 < rho_star < 1.0:
            return None
        eps = 1e-6
        above, _ = dominance_check(econ, MaskStats(recall=rho_star * (1 + eps),
                                                   precision=precision))
        below, _ = dominance_check(econ, MaskStats(recall=rho_star * (1 - eps),
                                                   precision=precision))
        return above and not below

    if flips(WORKED, 0.8) is not True:
        failures.append("worked economy flip")
    rng = np.random.default_rng(9)
    tested = 0
    while tested < 30:
        econ = PatchEconomy(
            m_patches=int(rng.integers(20, 500)),
            defects=int(rng.integers(1, 12)),
            repair_gain=float(rng.uniform(0.3, 2.0)),
            harm_loss=float(rng.uniform(0.05, 1.0)),
            repair_prob_global=float(rng.uniform(0.1, 1.0)),
            repair_prob_local=float(rng.uniform(0.1, 1.0)),
            harm_prob_global=float(rng.uniform(0.0, 0.05)),
            harm_prob_local=float(rng.uniform(0.0, 0.3)),
            cost_global=float(rng.uniform(0.5, 2.0)),
            cost_local=float(rng.uniform(0.5, 2.0)))
        precision = float(rng.uniform(0.2, 1.0))
        try:
            outcome = flips(econ, precision)
        except InfeasibleParameterError:
            continue  # denominator non-positive: threshold undefined by contract
        if outcome is None:
            continue
        if not outcome:
            failures.append(f"random economy {tested} flip")
        tested += 1
    report(3, "recall-threshold root and precision floor", not failures,
           "worked + 30 random positive-denominator economies")


def test_criterion_04_best_of_n_saturation():
    """Repair probability compounds concavely; compute-normalized gain is
    non-increasing past its peak; Monte Carlo repair frequency matches the
    closed form at 1e5 trials."""
    failures = []
    for theta in (0.05, 0.2, 0.5, 0.8, 0.95):
        curve = bon_curve(theta, WORKED, 200)
        probs = np.array([p.repair_prob for p in curve.points])
        if np.any(np.diff(probs) < 0):
            failures.append(f"monotonicity at theta={theta}")
        # strict concave growth is checked up to the point where the repair
        # probability saturates to 1.0 at float resolution
        live = probs < 1.0 - 1e-12
        head = probs[live]
        if head.size >= 3:
            increments = np.diff(head)
            if not (np.all(increments > 0) and np.all(np.diff(increments) < 0)):
                failures.append(f"concavity at theta={theta}")
        gains = np.array([p.normalized_gain for p in curve.points])
        peak = int(np.argmax(gains))
        if not np.all(np.diff(gains[peak:]) <= 1e-12):
            failures.append(f"gain tail increases at theta={theta}")
    max_z = 0.0
    for n in (1, 2, 5, 10, 25):
        freq, se = simulate_bon_repair_frequency(0.3, n, 100_000, seed=500 + n)
        expected = 1.0 - 0.7 ** n
        if se == 0.0:
            if freq != expected:
                failures.append(f"mc n={n}")
        else:
            z = abs(freq - expected) / se
            max_z = max(max_z, z)
            if z >= 3:
                failures.append(f"mc n={n}")
    report(4, "best-of-N saturation", not failures, f"mc max |z| = {max_z:.2f}")


def test_criterion_05_failure_regimes():
    """Dense defects erase the margin; precision below the floor makes the
    per-patch net benefit negative; both signs confirmed by the simulator."""
    failures = []
    dense = PatchEconomy(
        m_patches=50, defects=50, repair_gain=1.0, harm_loss=0.5,
        repair_prob_global=0.4, repair_prob_local=0.4,
        harm_prob_global=0.1, harm_prob_local=0.1)
    dense_stats = MaskStats(recall=1.0, precision=1.0)
    holds, margin = dominance_check(dense, dense_stats)
    if holds or margin > 0:
        failures.append("dense margin not <= 0")
    sim = simulate_patch_economy(dense, dense_stats, 100_000, seed=77)
    margin_se = math.hypot(sim.gain_local_se, sim.gain_global_se)
    emp_margin = sim.gain_local_mean - sim.gain_global_mean
    if not emp_margin <= margin + 3 * margin_se:
        failures.append("dense simulator sign")

    low_precision = MaskStats(recall=0.5, precision=0.08)  # floor is 1/11
    floor = precision_floor(WORKED.repair_prob_local, WORKED.repair_gain,
                            WORKED.harm_prob_local, WORKED.harm_loss)
    if not low_precision.precision < floor:
        failures.append("test economy not below the floor")
    _, gain_local = per_trial_gains(WORKED, low_precision)
    if not gain_local < 0:
        failures.append("closed-form net benefit not negative")
    sim_low = simulate_patch_economy(WORKED, low_precision, 100_000, seed=78)
    if not (abs(sim_low.gain_local_mean - gain_local) < 3 * sim_low.gain_local_se
            and sim_low.gain_local_mean < 0):
        failures.append("low-precision simulator sign")
    report(5, "failure regimes (dense defects, low precision)", not failures,
           f"dense margin {margin:+.3f}, low-precision gain {gain_local:+.3f}")


def test_criterion_06_score_oracle_correctness():
    """Score matches central finite differences of the log-density to
    relative 1e-5 at 100 random probes; a full reverse pass recovers the
    target mean within 3 standard errors at 1e4 trajectories."""
    start = time.monotonic()
    failures = []
    world = PatchWorld.uniform(
        (2, 2), 2, [(0.3, -0.8, 0.09), (0.5, 0.4, 0.25), (0.2, 1.5, 0.04)])
    sched = CosineSchedule(horizon=1.0, n_steps=50)
    rng = np.random.default_rng(606)
    h = 1e-5
    worst_rel = 0.0
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
        rel = np.max(np.abs(score - fd) / np.maximum(np.abs(fd), 1e-3))
        worst_rel = max(worst_rel, float(rel))
    if worst_rel >= 1e-5:
        failures.append(f"finite differences: worst relative error {worst_rel:.2e}")

    mean = np.array([1.5, -0.7])
    gauss = PatchWorld.uniform((1, 1), 2, [(1.0, mean, 0.25)])
    predictor = NoisePredictor(world=gauss, schedule=sched)
    trials = 10_000
    state = sample_base(predictor, np.random.default_rng(607), shape=(trials,))
    se = state.x.std(axis=0, ddof=1) / math.sqrt(trials)
    if not np.all(np.abs(state.x.mean(axis=0) - mean) < 3 * se):
        failures.append("reverse pass mean recovery")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(6, "score-oracle correctness", not failures,
           f"worst FD relative error {worst_rel:.1e}, {elapsed:.1f}s")


def test_criterion_07_locality():
    """With the hand-off at zero and no integration sweep, unmasked
    coordinates of the refined state equal the anchor bit-exactly on 100
    random (world, mask) instances."""
    rng = np.random.default_rng(707)
    failures = 0
    for case in range(100):
        hs, ws = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        world = PatchWorld.uniform(
            (hs, ws), dim,
            [(1.0, float(rng.normal()), float(rng.uniform(0.05, 0.5)))])
        sched = CosineSchedule(horizon=1.0, n_steps=8)
        predictor = NoisePredictor(world=world, schedule=sched)
        size = world.n_patches
        count = int(rng.integers(0, size + 1))
        mask = mask_from_indices(world.grid,
                                 rng.choice(size, size=count, replace=False))
        anchor = LatentState(x=rng.normal(size=world.dim), t=0.0)
        cfg = ResampleConfig(t0=float(rng.uniform(0.2, 1.0)), t_g=0.0,
                             n_refine=int(rng.integers(1, 12)), n_integrate=0)
        out, _ = localized_resample(predictor, anchor, mask, cfg,
                                    lambda s: verifier_score(world, s), rng)
        mcoord = world.coordinate_mask(mask.bits)
        if not np.array_equal(out.x[~mcoord], anchor.x[~mcoord]):
            failures += 1
    report(7, "bit-exact locality at zero hand-off", failures == 0,
           f"{100 - failures}/100 instances exact")


def test_criterion_08_mask_pipeline():
    """Threshold cardinality is exactly ceil(r*S) on 1e4 random maps
    including all-ties; the pipeline recovers noiseless planted defects
    exactly for every grid with at most 64 patches."""
    failures = []
    rng = np.random.default_rng(808)
    for case in range(10_000):
        hs, ws = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        size = hs * ws
        style = case % 3
        if style == 0:
            values = rng.normal(size=size)
        elif style == 1:
            values = rng.integers(0, 3, size=size).astype(float)
        else:
            values = np.full(size, float(rng.normal()))  # all ties
        ratio = float(rng.uniform(1e-9, 1.0))
        while not 0.0 < ratio < 1.0:
            ratio = float(rng.uniform(1e-9, 1.0))
        mask = threshold_mask(QualityMap(values=values, grid=(hs, ws)), ratio)
        if int(mask.bits.sum()) != mask_cardinality(ratio, size):
            failures.append(f"cardinality case {case}")
            break

    grids = [(h, w) for h in range(1, 9) for w in range(1, 9)]
    grids += [(1, k) for k in (12, 24, 48, 64)] + [(k, 1) for k in (12, 64)]
    for grid in grids:
        size = grid[0] * grid[1]
        if size < 2 or size > 64:
            continue
        world = PatchWorld.uniform(grid, 2, [(1.0, 0.0, 0.09)])
        state = LatentState(x=np.zeros(world.dim), t=0.0)
        for _ in range(3):
            count = int(rng.integers(1, size))
            true_set = np.sort(rng.choice(size, size=count, replace=False))
            bundle, queries = synth_attention(world, state, true_set, 0.3, 0.3,
                                              0.0, rng)
            mask = mask_gen(bundle, queries, 0.5, count / size)
            if not np.array_equal(mask.selected, true_set):
                failures.append(f"recovery on grid {grid}")
                break
    report(8, "mask pipeline exactness", not failures,
           "1e4 threshold maps, all grids with S <= 64")


def _acceptance_sweep_settings():
    world = PatchWorld.uniform((4, 4), 2, [(1.0, 0.0, 0.09)])
    sched = CosineSchedule(horizon=1.0, n_steps=32)
    return SweepSettings(
        world=world, schedule=sched,
        resample=ResampleConfig(t0=0.4, t_g=0.04, n_refine=16, n_integrate=2),
        refinements=2, n_grid=(1, 3, 6, 9),
        bon_grid=(1, 3, 6, 9, 12, 15, 18, 24, 30, 36, 45),
        defect_count=3, defect_magnitude=0.6, gain_pos=0.3, gain_neg=0.3,
        noise_sd=0.2, mask_weight=0.5, mask_ratio=0.25, randomize_defects=True)


def test_criterion_09_directional_scaling():
    """At nine candidates (three seeds, two refinements each) the localized
    search beats best-of-9 (one-sided paired test, p < 0.05) and the global
    baseline reaches parity only at some larger budget, over 200 master
    seeds. The NFE ratio is reported, not asserted against any target."""
    settings = _acceptance_sweep_settings()
    trials = 200
    results = sweep_trials(settings, [np.random.SeedSequence(entropy=20260810, spawn_key=(0, i))
                                      for i in range(trials)])
    rows = summarize_sweep(settings, results)
    failures = []
    paired = np.array([r["local"][9] - r["bon"][9] for r in results])
    p_value = float(ttest_1samp(paired, 0.0, alternative="greater").pvalue)
    if not (paired.mean() > 0 and p_value < 0.05):
        failures.append(f"paired test p={p_value:.3g}")
    summary = crossover_summary(rows, 9)
    parity = summary["parity_n"]
    if parity is None or parity <= 9:
        failures.append(f"parity_n={parity}")
    for method in ("localized", "best_of_n"):
        series = [r for r in rows if r.method == method]
        for a, b in zip(series, series[1:]):
            slack = 3 * math.hypot(a.stderr, b.stderr)
            if b.mean_score < a.mean_score - slack:
                failures.append(f"{method} curve not monotone at n={b.n}")
    detail = (f"p={p_value:.2e}, parity at N'={parity}, "
              f"NFE ratio {summary.get('efficiency_ratio', float('nan')):.2f}x")
    report(9, "directional scaling reproduction", not failures, detail)


def test_criterion_10_worker_determinism(tmp_path):
    """Re-running an experiment with the same config and seed produces
    byte-identical report bodies at 1, 4, and 8 workers."""
    scaling_raw = {
        "kind": "scaling", "master_seed": 313, "trials": 16,
        "world": {"grid": [4, 4], "patch_dim": 2,
                  "components": [{"weight": 1.0, "mean": 0.0, "variance": 0.09}]},
        "schedule": {"horizon": 1.0, "n_steps": 8},
        "resample": {"t0": 0.4, "t_g": 0.04, "n_refine": 4, "n_integrate": 1},
        "search": {"seeds": 3, "refinements": 2, "n_grid": [1, 3],
                   "bon_grid": [1, 3, 6], "reference_n": 3},
        "defects": {"count": 3, "magnitude": 0.6, "randomize": True},
        "attention": {"gain_pos": 0.3, "gain_neg": 0.3, "noise_sd": 0.2,
                      "weight": 0.5, "ratio": 0.25, "oracle_masks": False},
    }
    testbed_raw = {
        "kind": "testbed", "master_seed": 414, "trials": 24,
        "world": {"grid": [4, 4], "patch_dim": 2,
                  "components": [{"weight": 1.0, "mean": 0.0, "variance": 0.09}]},
        "schedule": {"horizon": 1.0, "n_steps": 16},
        "resample": {"t0": 0.4, "t_g": 0.04, "n_refine": 8, "n_integrate": 2},
        "defects": {"count": 3, "magnitude": 0.6, "randomize": True},
        "attention": {"gain_pos": 0.3, "gain_neg": 0.3, "noise_sd": 0.2,
                      "weight": 0.5, "ratio": 0.25, "oracle_masks": False},
    }
    theory_raw = {
        "kind": "theory", "master_seed": 515,
        "economy": {"m_patches": 100, "defects": 10, "repair_gain": 1.0,
                    "harm_loss": 0.5, "repair_prob_global": 0.5,
                    "repair_prob_local": 0.5, "harm_prob_global": 0.1,
                    "harm_prob_local": 0.1, "cost_global": 1.0,
                    "cost_local": 1.0, "budget": 1.0},
        "mask_stats": {"recall": 0.8, "precision": 0.8},
        "theory": {"mc_trials": 20000, "bon_repair_prob_one": 0.5, "bon_n_max": 10},
    }
    failures = []
    for label, raw in (("scaling", scaling_raw), ("testbed", testbed_raw),
                       ("theory", theory_raw)):
        bodies = []
        for workers in (1, 4, 8):
            cfg = validate_config({**raw, "workers": workers})
            out = tmp_path / f"{label}_w{workers}"
            run_experiment(cfg, out)
            body = b"".join(path.read_bytes()
                            for path in sorted(out.iterdir(),
                                               key=lambda p: p.name))
            bodies.append(body)
        if not bodies[0] == bodies[1] == bodies[2]:
            failures.append(label)
    report(10, "byte-identical reports at 1/4/8 workers", not failures,
           "scaling, testbed, theory")
