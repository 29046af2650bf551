"""Best-of-N, the scaling sweep's best-of-N stream and the testbed trial all
run through ``dfs_search``. The loops they had of their own are kept here as
reference implementations, and the property tests require the shared loop
to reproduce them bit for bit: states, scores, ties, mask recall and
precision, NFE and random-stream consumption.
"""
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from localtts import harness
from localtts.resample import ResampleConfig, localized_resample
from localtts.search import (
    Candidate,
    SearchConfig,
    SweepSettings,
    TrialSettings,
    best_of_n,
    defect_injecting_sampler,
    dfs_search,
    plain_sampler,
    split_budget,
    sweep_trial,
)
from localtts.testbed import CosineSchedule, NoisePredictor, PatchWorld, verifier_score


def reference_best_of_n(predictor, n, rng, base_sampler=None, verifier=None):
    """Argmax over n base samples, as its own loop; returns (best, all)."""
    sampler = base_sampler or plain_sampler
    verify = verifier or functools.partial(verifier_score, predictor.world)
    candidates = []
    for idx in range(n):
        state, _ = sampler(predictor, rng)
        candidates.append(Candidate(state=state, score=float(verify(state)),
                                    lineage=(idx, None),
                                    nfe_cost=predictor.schedule.n_steps))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.score > best.score:
            best = cand
    return best, candidates


def reference_testbed_trial(settings: TrialSettings, seed_seq) -> tuple:
    """Sample, mask, score, refine, score: the trial as its own sequence."""
    rng = np.random.default_rng(seed_seq)
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    anchor, true_set = settings.sampler()(predictor, rng)
    mask = settings.mask_source()(anchor, true_set, rng)
    anchor_score = float(verifier_score(settings.world, anchor))
    refined, refined_score = localized_resample(
        predictor, anchor, mask,
        settings.resample, lambda s: verifier_score(settings.world, s), rng)
    selected = set(mask.selected.tolist())
    truth = set(int(j) for j in true_set)
    tp = len(selected & truth)
    recall = tp / len(truth) if truth else 1.0
    precision = tp / len(selected) if selected else 0.0
    return (anchor_score, float(refined_score), float(refined_score) - anchor_score,
            recall, precision, predictor.nfe)


def reference_sweep_trial(settings: SweepSettings, seed_seq) -> dict:
    """The sweep trial with its best-of-N stream drawn by its own loop."""
    rng = np.random.default_rng(seed_seq)
    sampler = settings.sampler()
    mask_source = settings.mask_source()
    local_scores, local_nfes = {}, {}
    for n in settings.n_grid:
        seeds, refinements = split_budget(n, settings.refinements)
        predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
        cfg = SearchConfig(seeds=seeds, refinements=refinements, resample=settings.resample)
        local_scores[n] = dfs_search(predictor, mask_source, cfg, rng,
                                     base_sampler=sampler).score
        local_nfes[n] = predictor.nfe
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    verify = functools.partial(verifier_score, settings.world)
    draws = []
    for _ in range(max(settings.bon_grid)):
        state, _ = sampler(predictor, rng)
        draws.append(float(verify(state)))
    prefix_best = np.maximum.accumulate(draws)
    return {"local": local_scores, "local_nfe": local_nfes,
            "bon": {n: float(prefix_best[n - 1]) for n in settings.bon_grid},
            "bon_nfe": predictor.nfe}


@st.composite
def worlds(draw):
    grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(1, 2))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    components = [(w / sum(raw), draw(st.floats(-1.5, 1.5)), draw(st.floats(0.02, 0.5)))
                  for w in raw]
    return PatchWorld.uniform(grid, draw(st.integers(1, 2)), components)


@st.composite
def trial_kwargs(draw):
    world = draw(worlds())
    t0 = draw(st.floats(0.1, 1.0))
    t_g = draw(st.sampled_from([0.0, 0.1, 0.5])) * t0
    resample = ResampleConfig(t0=t0, t_g=t_g, n_refine=draw(st.integers(1, 3)),
                              n_integrate=draw(st.integers(1, 2)) if t_g > 0 else 0)
    unit = st.floats(0.0, 1.0)
    return dict(
        world=world, schedule=CosineSchedule(horizon=1.0, n_steps=draw(st.integers(1, 5))),
        resample=resample, defect_count=draw(st.integers(1, world.n_patches)),
        defect_magnitude=draw(unit), gain_pos=draw(unit), gain_neg=draw(unit),
        noise_sd=draw(st.floats(0.0, 0.5)), mask_weight=draw(unit),
        mask_ratio=draw(st.floats(0.05, 0.95)), oracle_masks=draw(st.booleans()),
        randomize_defects=draw(st.booleans()))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(world=worlds(), n_steps=st.integers(1, 5), n=st.integers(1, 5), seed=seeds,
       defects=st.booleans(), coarse=st.booleans())
def test_best_of_n_equals_reference_loop(world, n_steps, n, seed, defects, coarse):
    schedule = CosineSchedule(horizon=1.0, n_steps=n_steps)
    sampler = defect_injecting_sampler(1, 0.5, randomize=True) if defects else None
    # a coarse verifier makes ties common, so the first-wins rule is exercised
    verifier = ((lambda state: round(verifier_score(world, state))) if coarse else None)
    ref_pred, new_pred = (NoisePredictor(world=world, schedule=schedule) for _ in range(2))
    ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_best, ref_all = reference_best_of_n(ref_pred, n, ref_rng, sampler, verifier)
    collected = []
    best = best_of_n(new_pred, n, new_rng, sampler, verifier, collect=collected)
    assert best.lineage == ref_best.lineage and best.score == ref_best.score
    assert same_bits(best.state.x, ref_best.state.x)
    assert [(c.score, c.lineage, c.nfe_cost) for c in collected] == \
        [(c.score, c.lineage, c.nfe_cost) for c in ref_all]
    assert all(same_bits(c.state.x, r.state.x) for c, r in zip(collected, ref_all))
    assert new_pred.nfe == ref_pred.nfe == n * n_steps
    assert new_rng.random() == ref_rng.random()


@settings(max_examples=100, deadline=None)
@given(kwargs=trial_kwargs(), seed=seeds)
def test_testbed_trial_equals_reference_sequence(kwargs, seed):
    trial_settings = TrialSettings(**kwargs)
    seed_seq = np.random.SeedSequence(seed)
    row = harness.testbed_trial(trial_settings, seed_seq)
    ref_row = reference_testbed_trial(trial_settings, seed_seq)
    assert row == ref_row
    assert [type(cell) for cell in row] == [type(cell) for cell in ref_row]


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), refinements=st.integers(0, 2),
       bon_max=st.integers(1, 4), seed=seeds)
def test_sweep_trial_equals_reference_loop(kwargs, refinements, bon_max, seed):
    share = refinements + 1
    sweep = SweepSettings(**kwargs, refinements=refinements,
                          n_grid=tuple(sorted({1, share, 2 * share})),
                          bon_grid=tuple(sorted({1, bon_max})))
    seed_seq = np.random.SeedSequence(seed)
    assert sweep_trial(sweep, seed_seq) == reference_sweep_trial(sweep, seed_seq)
