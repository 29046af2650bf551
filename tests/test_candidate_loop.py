"""dfs_search (best-of-N too), the scaling sweep trial and the testbed trial all
run on the lockstep engine, which batches every base draw and every
refinement of a trial. The references here run the same searches one
candidate at a time through the public single-state functions, on the
same lineage generators: seed i of a search draws from the i-th generator
spawned from the search's generator, refinement j of that seed from the
j-th generator spawned from the seed's. The property tests require the
engine to reproduce them bit for bit: states, scores, lineages, ties,
defects, masks, mask recall and precision, and NFE. A worker chunk runs all
its trials as one engine call; it must equal its trials run one at a time,
and splitting it into blocks of any size must change no bit. The batched
defect injection must equal injection one state at a time, the batched
mask sources their masks one state at a time, and a phase that draws
other than the noise it declared must raise.
"""
import functools
import itertools
import operator
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localtts import harness, search, seeding
from localtts.attention import (
    AttentionBundle,
    AttentionField,
    QualityMap,
    build_propagation,
    mask_from_indices,
    mask_gen,
    threshold_mask,
)
from localtts.resample import ResampleConfig, localized_resample
from localtts.search import (
    Candidate,
    SearchConfig,
    SweepSettings,
    TrialSettings,
    attention_mask_source,
    defect_injecting_sampler,
    dfs_search,
    oracle_mask_source,
    split_budget,
    sweep_trial,
    sweep_trials,
)
from localtts.testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    grid_query_features,
    sample_base,
    synth_attention,
    verifier_score,
)


def reference_inject(world, state, count, magnitude, rng):
    """Defect injection on one state: the patches, then their directions."""
    m = world.n_patches
    chosen = np.sort(rng.choice(m, size=count, replace=False))
    directions = rng.standard_normal((count, world.patch_dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    directions /= norms
    x = state.x.copy()
    x.reshape(m, world.patch_dim)[chosen] += magnitude * directions
    return LatentState(x=x, t=0.0), chosen


def row_sampler(count, magnitude, randomize):
    """The defect-injecting base sampler on one state: the count, then the
    injection, from the state's own generator."""

    def sampler(world, state, rng):
        m = world.n_patches
        k = int(rng.binomial(m, count / m)) if randomize else count
        if k == 0:
            return state, np.array([], dtype=int)
        return reference_inject(world, state, k, magnitude, rng)

    return sampler


def settings_row_sampler(trial_settings):
    return row_sampler(trial_settings.defect_count, trial_settings.defect_magnitude,
                       trial_settings.randomize_defects)


def settings_row_masks(trial_settings):
    """The settings' mask source on one state through the public per-row
    functions, independent of the engine's batched mask pipeline."""
    s = trial_settings

    def source(state, true_set, rng):
        if s.oracle_masks:
            return mask_from_indices(s.world.grid, true_set)
        bundle, queries = synth_attention(s.world, state, true_set, s.gain_pos, s.gain_neg,
                                          s.noise_sd, rng)
        return mask_gen(bundle, queries, s.mask_weight, s.mask_ratio)

    return source


def reference_search(predictor, mask_source, cfg, resample, rng, base_sampler=None,
                     verifier=None):
    """The depth-2 search one candidate at a time, base_sampler a row sampler
    (see row_sampler); returns (best, all)."""
    inject = base_sampler or (lambda world, state, rng: (state, None))
    verify = verifier or functools.partial(verifier_score, predictor.world)
    candidates = []
    for idx in range(cfg.seeds):
        seed_rng = rng.spawn(1)[0]
        state, defects = inject(predictor.world, sample_base(predictor, seed_rng), seed_rng)
        candidates.append(Candidate(state=state, score=float(verify(state)),
                                    lineage=(idx, None), nfe_cost=predictor.schedule.n_steps,
                                    defects=defects))
        if cfg.refinements == 0:
            continue
        mask = mask_source(state, defects, seed_rng)
        for ref_idx in range(cfg.refinements):
            refined, score = localized_resample(predictor, state, mask, resample, verify,
                                                seed_rng.spawn(1)[0])
            candidates.append(Candidate(state=refined, score=float(score),
                                        lineage=(idx, ref_idx), nfe_cost=resample.nfe_cost,
                                        defects=defects, mask=mask))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.score > best.score:
            best = cand
    return best, candidates


def recall_precision(mask, truth) -> tuple:
    selected = set(mask.selected.tolist())
    truth = set(int(j) for j in truth)
    tp = len(selected & truth)
    return (tp / len(truth) if truth else 1.0, tp / len(selected) if selected else 0.0)


def reference_testbed_trial(settings: TrialSettings, seed: int, score=verifier_score) -> tuple:
    """Sample, inject, mask, score, refine, score: the trial as its own sequence."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    seed_rng = rng.spawn(1)[0]
    anchor, true_set = settings_row_sampler(settings)(
        settings.world, sample_base(predictor, seed_rng), seed_rng)
    mask = settings_row_masks(settings)(anchor, true_set, seed_rng)
    anchor_score = float(score(settings.world, anchor))
    refined, refined_score = localized_resample(
        predictor, anchor, mask, settings.resample,
        lambda s: score(settings.world, s), seed_rng.spawn(1)[0])
    return (anchor_score, float(refined_score), float(refined_score) - anchor_score,
            *recall_precision(mask, true_set), predictor.nfe)


def reference_sweep_trial(settings: SweepSettings, seed: int, score=verifier_score) -> dict:
    """The sweep trial as one search after another, each with its own predictor."""
    trial = np.random.default_rng(np.random.SeedSequence(seed))
    sampler, mask_source = settings_row_sampler(settings), settings_row_masks(settings)
    verify = functools.partial(score, settings.world)
    result = {"local": {}, "local_nfe": {}, "masks": {}}
    for n in settings.n_grid:
        seeds, refinements = split_budget(n, settings.refinements)
        predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
        cfg = SearchConfig(seeds=seeds, refinements=refinements)
        best, candidates = reference_search(predictor, mask_source, cfg, settings.resample,
                                            trial.spawn(1)[0], sampler, verify)
        result["local"][n] = best.score
        result["local_nfe"][n] = predictor.nfe
        result["masks"][n] = [recall_precision(c.mask, c.defects)
                              for c in candidates if c.lineage[1] == 0]
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    cfg = SearchConfig(seeds=max(settings.bon_grid), refinements=0)
    _, draws = reference_search(predictor, None, cfg, None, trial.spawn(1)[0], sampler, verify)
    prefix_best = np.maximum.accumulate([draw.score for draw in draws])
    result["bon"] = {n: float(prefix_best[n - 1]) for n in settings.bon_grid}
    result["bon_nfe"] = predictor.nfe
    return result


@st.composite
def worlds(draw):
    grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(1, 2))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    components = [(w / sum(raw), draw(st.floats(-1.5, 1.5)), draw(st.floats(0.02, 0.5)))
                  for w in raw]
    return PatchWorld.uniform(grid, draw(st.integers(1, 2)), components)


@st.composite
def resamples(draw):
    t0 = draw(st.floats(0.1, 1.0))
    t_g = draw(st.sampled_from([0.0, 0.1, 0.5])) * t0
    return ResampleConfig(t0=t0, t_g=t_g, n_refine=draw(st.integers(1, 3)),
                          n_integrate=draw(st.integers(1, 2)) if t_g > 0 else 0)


@st.composite
def trial_kwargs(draw):
    world = draw(worlds())
    unit = st.floats(0.0, 1.0)
    return dict(
        world=world, schedule=CosineSchedule(horizon=1.0, n_steps=draw(st.integers(1, 5))),
        resample=draw(resamples()), defect_count=draw(st.integers(1, world.n_patches)),
        defect_magnitude=draw(unit), gain_pos=draw(unit), gain_neg=draw(unit),
        noise_sd=draw(st.floats(0.0, 0.5)), mask_weight=draw(unit),
        mask_ratio=draw(st.floats(0.05, 0.95)), oracle_masks=draw(st.booleans()),
        randomize_defects=draw(st.booleans()))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_candidates(got: list, want: list) -> bool:
    def key(c):
        return (c.score, c.lineage, c.nfe_cost, c.state.t,
                None if c.defects is None else c.defects.tolist(),
                None if c.mask is None else c.mask.bits.tolist())
    return ([key(c) for c in got] == [key(c) for c in want]
            and all(same_bits(c.state.x, r.state.x) for c, r in zip(got, want)))


def rounded_score(world, state):
    """verifier_score rounded to whole numbers: ties, -0.0 against 0.0 among them,
    become common, so the first-wins rule is exercised."""
    return np.round(verifier_score(world, state))


def coarse(world):
    return functools.partial(rounded_score, world)


seeds = st.integers(0, 2**32 - 1)


def sweep_settings(kwargs, refinements, bon_max):
    share = refinements + 1
    return SweepSettings(**kwargs, refinements=refinements,
                         n_grid=tuple(sorted({1, share, 2 * share})),
                         bon_grid=tuple(sorted({1, bon_max})))


@settings(max_examples=100, deadline=None)
@given(kwargs=trial_kwargs(), n_seeds=st.integers(1, 4), refinements=st.integers(0, 3),
       seed=seeds, is_coarse=st.booleans())
def test_dfs_search_equals_reference_loop(kwargs, n_seeds, refinements, seed, is_coarse):
    trial_settings = TrialSettings(**kwargs)
    world = trial_settings.world
    cfg = SearchConfig(seeds=n_seeds, refinements=refinements)
    verifier, score = (coarse(world), rounded_score) if is_coarse else (None, verifier_score)
    ref_pred, new_pred = (NoisePredictor(world=world, schedule=trial_settings.schedule)
                          for _ in range(2))
    ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_best, ref_all = reference_search(ref_pred, settings_row_masks(trial_settings), cfg,
                                         trial_settings.resample, ref_rng,
                                         settings_row_sampler(trial_settings), verifier)
    collected = []
    with mock.patch.object(search, "verifier_score", score):
        best = dfs_search(new_pred, trial_settings.mask_source(), cfg, trial_settings.resample,
                          new_rng, base_sampler=trial_settings.sampler(), collect=collected)
    assert best.lineage == ref_best.lineage and best.score == ref_best.score
    assert same_bits(best.state.x, ref_best.state.x)
    assert same_candidates(collected, ref_all)
    assert new_pred.nfe == ref_pred.nfe == cfg.seeds * (
        trial_settings.schedule.n_steps + cfg.refinements * trial_settings.resample.nfe_cost)
    # both consumed the same spawn slots of the caller's generator
    assert same_bits(new_rng.spawn(1)[0].random(3), ref_rng.spawn(1)[0].random(3))


@settings(max_examples=100, deadline=None)
@given(world=worlds(), n_steps=st.integers(1, 5), n=st.integers(1, 5), seed=seeds,
       defects=st.booleans(), is_coarse=st.booleans())
def test_best_of_n_equals_reference_loop(world, n_steps, n, seed, defects, is_coarse):
    schedule = CosineSchedule(horizon=1.0, n_steps=n_steps)
    sampler = defect_injecting_sampler(1, 0.5, randomize=True) if defects else None
    verifier, score = (coarse(world), rounded_score) if is_coarse else (None, verifier_score)
    ref_pred, new_pred = (NoisePredictor(world=world, schedule=schedule) for _ in range(2))
    ref_best, ref_all = reference_search(
        ref_pred, None, SearchConfig(seeds=n, refinements=0), None, np.random.default_rng(seed),
        row_sampler(1, 0.5, True) if defects else None, verifier)
    collected = []
    with mock.patch.object(search, "verifier_score", score):
        best = dfs_search(new_pred, None, SearchConfig(seeds=n, refinements=0), None,
                          np.random.default_rng(seed), sampler, collect=collected)
    assert best.lineage == ref_best.lineage and best.score == ref_best.score
    assert same_candidates(collected, ref_all)
    assert new_pred.nfe == ref_pred.nfe == n * n_steps


@settings(max_examples=100, deadline=None)
@given(kwargs=trial_kwargs(), seed=seeds)
def test_testbed_trial_equals_reference_sequence(kwargs, seed):
    trial_settings = TrialSettings(**kwargs)
    seed_seq = np.random.SeedSequence(seed)
    row = harness.testbed_trials(trial_settings, [seed_seq])[0]
    ref_row = reference_testbed_trial(trial_settings, seed)
    assert row == ref_row
    assert [type(cell) for cell in row] == [type(cell) for cell in ref_row]
    # a trial reads its seed sequence without consuming it
    assert harness.testbed_trials(trial_settings, [seed_seq])[0] == row


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), refinements=st.integers(0, 2),
       bon_max=st.integers(1, 4), seed=seeds)
def test_sweep_trial_equals_reference_loop(kwargs, refinements, bon_max, seed):
    sweep = sweep_settings(kwargs, refinements, bon_max)
    assert sweep_trial(sweep, np.random.SeedSequence(seed)) == reference_sweep_trial(sweep, seed)


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), chunk=st.lists(seeds, min_size=1, max_size=5),
       refinements=st.integers(0, 2), bon_max=st.integers(1, 4))
def test_chunk_equals_its_trials_one_at_a_time(kwargs, chunk, refinements, bon_max):
    trial_settings = TrialSettings(**kwargs)
    sweep = sweep_settings(kwargs, refinements, bon_max)
    seed_seqs = [np.random.SeedSequence(seed, spawn_key=(idx,)) for idx, seed in enumerate(chunk)]
    rows = harness.testbed_trials(trial_settings, seed_seqs)
    results = sweep_trials(sweep, seed_seqs)
    # a chunk reads its seed sequences without consuming them
    assert all(seed_seq.n_children_spawned == 0 for seed_seq in seed_seqs)
    one_at_a_time = [harness.testbed_trials(trial_settings, [q])[0] for q in seed_seqs]
    assert rows == one_at_a_time
    assert [[type(cell) for cell in row] for row in rows] == \
        [[type(cell) for cell in row] for row in one_at_a_time]
    one_at_a_time = [sweep_trial(sweep, q) for q in seed_seqs]
    # repr tells float from np.float64 and 0.0 from -0.0, and round-trips every bit
    assert results == one_at_a_time and repr(results) == repr(one_at_a_time)


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), refinements=st.integers(0, 2), bon_max=st.integers(1, 4),
       seed=seeds)
def test_trials_under_a_rounded_verifier_equal_the_references(kwargs, refinements, bon_max,
                                                              seed):
    # the engine's runners reduce a block's arrays: a localized budget keeps the first
    # of equal scores in evaluation order, best-of-N the np.maximum.accumulate prefix
    # maxima; repr tells -0.0 from 0.0, which a rounded score often is
    trial_settings = TrialSettings(**kwargs)
    sweep = sweep_settings(kwargs, refinements, bon_max)
    seed_seq = np.random.SeedSequence(seed)
    with mock.patch.object(search, "verifier_score", rounded_score):
        row = harness.testbed_trials(trial_settings, [seed_seq])[0]
        result = sweep_trials(sweep, [seed_seq])[0]
    assert repr(row) == repr(reference_testbed_trial(trial_settings, seed, rounded_score))
    want = reference_sweep_trial(sweep, seed, rounded_score)
    assert repr(sorted(result.items())) == repr(sorted(want.items()))


def engine_candidates(run):
    """Run run() with the engine's record of each block recorded; returns
    (result, each search's candidates in order), the records expanded into
    (search index, candidate) pairs as dfs_search expands them."""
    engine, pairs = search._lockstep, []

    def recording(predictor, *args, **kwargs):
        for record in engine(predictor, *args, **kwargs):
            pairs.extend(search._candidates(record, predictor.world.grid))
            yield record

    with mock.patch.object(search, "_lockstep", recording):
        result = run()
    return result, [[cand for _, cand in seeds]
                    for _, seeds in itertools.groupby(pairs, key=operator.itemgetter(0))]


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), chunk=st.lists(seeds, min_size=1, max_size=5),
       refinements=st.integers(0, 2), bon_max=st.integers(1, 4), block_rows=st.integers(1, 8))
def test_blocks_equal_one_block(kwargs, chunk, refinements, bon_max, block_rows):
    trial_settings = TrialSettings(**kwargs)
    sweep = sweep_settings(kwargs, refinements, bon_max)
    seed_seqs = [np.random.SeedSequence(seed, spawn_key=(idx,)) for idx, seed in enumerate(chunk)]
    runs = (lambda: harness.testbed_trials(trial_settings, seed_seqs),
            lambda: sweep_trials(sweep, seed_seqs))
    # a trial has at most 8 base rows (1 + 1 + 2 seeds, 4 best-of-N draws) of
    # at most 6 noise draws, and 6 refinement rows of at most 7: at the shipped
    # size a chunk of these worlds is one block
    assert len(chunk) * 8 * 7 * trial_settings.world.dim <= search._BLOCK_NOISE
    whole = [engine_candidates(run) for run in runs]
    base_noise = (trial_settings.schedule.n_steps + 1) * trial_settings.world.dim
    with mock.patch.object(search, "_BLOCK_NOISE", block_rows * base_noise):
        blocked = [engine_candidates(run) for run in runs]
    # the mask pipeline of a whole block in slices of one row
    with mock.patch.object(search, "_mask_step", lambda size: 1):
        sliced = [engine_candidates(run) for run in runs]
    for (result, candidates), (want_result, want_candidates) in zip(blocked + sliced, whole * 2):
        assert repr(result) == repr(want_result)
        assert len(candidates) == len(want_candidates)
        assert all(same_candidates(got, want) for got, want in zip(candidates, want_candidates))


@settings(max_examples=100, deadline=None)
@given(world=worlds(), count=st.integers(1, 9), rows=st.integers(1, 6),
       magnitude=st.floats(0.0, 1.0), randomize=st.booleans(), seed=seeds)
# randomized counts 1, 1, 0, 0, 1, 0: rows with no defect among them
@example(world=PatchWorld.uniform((3, 3), 2, [(1.0, 0.0, 0.09)]), count=1, rows=6,
         magnitude=0.5, randomize=True, seed=1)
def test_batched_injection_equals_inject_defects_row_by_row(world, count, rows, magnitude,
                                                            randomize, seed):
    count = min(count, world.n_patches)
    x = np.random.default_rng(seed).standard_normal((rows, world.dim))
    before = x.copy()
    batch_rngs, ref_rngs = (np.random.default_rng(seed).spawn(rows) for _ in range(2))
    got_x, got_defects = defect_injecting_sampler(count, magnitude, randomize)(
        world, x, batch_rngs)
    assert same_bits(x, before)
    for i, ref_rng in enumerate(ref_rngs):
        state = LatentState(x=x[i], t=0.0)
        ref_state, ref_defects = row_sampler(count, magnitude, randomize)(world, state, ref_rng)
        assert got_defects[i].tolist() == ref_defects.tolist()
        assert got_defects[i].dtype == ref_defects.dtype
        assert same_bits(got_x[i], ref_state.x)
        assert batch_rngs[i].bit_generator.state == ref_rng.bit_generator.state


@st.composite
def defect_sets(draw, size: int, rows: int):
    """rows sorted sets of distinct patch indices, empty sets among them."""
    return [np.array(sorted(draw(st.sets(st.integers(0, size - 1), max_size=size))), dtype=int)
            for _ in range(rows)]


def reference_attention_mask(world, truth, gain_pos, gain_neg, noise_sd, weight, ratio, rng):
    """An attention mask one state at a time: the synthetic fields and queries
    in four draws, then the mask formula."""
    m = world.n_patches
    indicator = np.zeros(m)
    indicator[truth] = 1.0
    orig = 1.0 + noise_sd * rng.standard_normal(m)
    pos = 1.0 - gain_pos * indicator + noise_sd * rng.standard_normal(m)
    neg = 1.0 + gain_neg * indicator + noise_sd * rng.standard_normal(m)
    bundle = AttentionBundle(*(AttentionField(values=np.maximum(field, 0.0), grid=world.grid)
                               for field in (orig, pos, neg)))
    queries = grid_query_features(world.grid)
    if noise_sd > 0:
        queries = queries + noise_sd * rng.standard_normal(queries.shape)
    rows = build_propagation(queries)
    quality = rows @ (bundle.neg.values - bundle.pos.values) + weight * np.maximum(
        rows @ bundle.orig.values, 0)
    return threshold_mask(QualityMap(values=quality, grid=world.grid), ratio)


@settings(max_examples=100, deadline=None)
@given(grid=st.tuples(st.integers(1, 16), st.integers(1, 16)), rows=st.integers(1, 40),
       noised=st.booleans(), data=st.data(), seed=seeds)
def test_attention_rows_equal_mask_gen_row_by_row(grid, rows, noised, data, seed):
    world = PatchWorld.uniform(grid, 1, [(1.0, 0.0, 1.0)])
    unit = st.floats(0.0, 1.0)
    gain_pos, gain_neg, weight = data.draw(unit), data.draw(unit), data.draw(st.floats(0.0, 100.0))
    noise_sd = data.draw(st.floats(0.01, 0.5)) if noised else 0.0
    ratio = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    truths = data.draw(defect_sets(world.n_patches, rows))
    states = [LatentState(x=np.zeros(world.dim), t=0.0)] * rows
    batch_rngs, row_rngs, ref_rngs = (np.random.default_rng(seed).spawn(rows) for _ in range(3))
    source = attention_mask_source(world, gain_pos=gain_pos, gain_neg=gain_neg,
                                   noise_sd=noise_sd, weight=weight, ratio=ratio)
    bits = source.rows(truths, batch_rngs)
    assert bits.shape == (rows, world.n_patches) and bits.dtype == np.uint8
    for i, (state, truth, rng, ref_rng) in enumerate(zip(states, truths, row_rngs, ref_rngs)):
        bundle, queries = synth_attention(world, state, truth, gain_pos, gain_neg, noise_sd, rng)
        assert same_bits(bits[i], mask_gen(bundle, queries, weight, ratio).bits)
        want = reference_attention_mask(world, truth, gain_pos, gain_neg, noise_sd, weight,
                                        ratio, ref_rng)
        assert same_bits(bits[i], want.bits)
        assert (batch_rngs[i].bit_generator.state == rng.bit_generator.state
                == ref_rng.bit_generator.state)


@settings(max_examples=100, deadline=None)
@given(grid=st.tuples(st.integers(1, 16), st.integers(1, 16)), rows=st.integers(1, 40),
       data=st.data())
def test_oracle_rows_equal_mask_from_indices_row_by_row(grid, rows, data):
    world = PatchWorld.uniform(grid, 1, [(1.0, 0.0, 1.0)])
    truths = data.draw(defect_sets(world.n_patches, rows))
    bits = oracle_mask_source(world).rows(truths, [None] * rows)
    assert bits.shape == (rows, world.n_patches) and bits.dtype == np.uint8
    for row, truth in zip(bits, truths):
        assert same_bits(row, mask_from_indices(world.grid, truth).bits)


@settings(max_examples=60, deadline=None)
@given(kwargs=trial_kwargs(), n_seeds=st.integers(1, 4), refinements=st.integers(1, 3),
       seed=seeds)
def test_per_row_mask_source_equals_built_in(kwargs, n_seeds, refinements, seed):
    # a source without rows runs one call per seed: the path perfbench's tracer takes
    trial_settings = TrialSettings(**kwargs)
    built_in = trial_settings.mask_source()
    per_row = lambda state, true_set, rng: built_in(state, true_set, rng)  # noqa: E731
    cfg = SearchConfig(seeds=n_seeds, refinements=refinements)
    collected = []
    for source in (built_in, per_row):
        collected.append([])
        dfs_search(NoisePredictor(world=trial_settings.world, schedule=trial_settings.schedule),
                   source, cfg, trial_settings.resample, np.random.default_rng(seed),
                   base_sampler=trial_settings.sampler(), collect=collected[-1])
    assert same_candidates(collected[1], collected[0])


def one_extra_draw(noise):
    drawn = []

    def draw(shape):
        if not drawn:
            drawn.append(noise.standard_normal(shape))
        return noise.standard_normal(shape)

    return SimpleNamespace(standard_normal=draw)


def first_draw_skipped(noise):
    calls = []

    def draw(shape):
        calls.append(shape)
        return np.zeros(shape) if len(calls) == 1 else noise.standard_normal(shape)

    return SimpleNamespace(standard_normal=draw)


@settings(max_examples=40, deadline=None)
@given(kwargs=trial_kwargs(), base=st.booleans(),
       alter=st.sampled_from([one_extra_draw, first_draw_skipped]), seed=seeds)
def test_phase_off_its_declared_noise_raises(kwargs, base, alter, seed):
    trial_settings = TrialSettings(**kwargs)
    if base:
        sample = search.sample_base
        target, altered = "sample_base", lambda pred, noise, shape: sample(
            pred, alter(noise), shape)
    else:  # the refinement's noise is an array: one slice long, or one short
        resample = search._resample
        resized = {one_extra_draw: lambda noise: np.concatenate([noise, noise[:1]]),
                   first_draw_skipped: lambda noise: noise[1:]}[alter]
        target, altered = "_resample", lambda pred, anchor, bits, cfg, noise: resample(
            pred, anchor, bits, cfg, resized(noise))
    with mock.patch.object(search, target, altered), \
            pytest.raises(RuntimeError if base else ValueError, match="noise slices"):
        harness.testbed_trials(trial_settings, [np.random.SeedSequence(seed)])


@pytest.fixture
def engine_blocks(monkeypatch):
    """The blocks the engine runs, recorded."""
    block, calls = search._lockstep_block, []
    monkeypatch.setattr(search, "_lockstep_block", lambda *args: calls.append(args) or block(*args))
    return calls


def small_trial_kwargs():
    return dict(world=PatchWorld.uniform((2, 2), 2, [(1.0, 0.0, 0.09)]),
                schedule=CosineSchedule(horizon=1.0, n_steps=4),
                resample=ResampleConfig(t0=0.4, t_g=0.04, n_refine=2, n_integrate=1),
                defect_count=1, defect_magnitude=0.6, gain_pos=0.3, gain_neg=0.3,
                noise_sd=0.2, mask_weight=0.5, mask_ratio=0.25)


def test_engine_calls_sample_base_once_per_block(engine_blocks, monkeypatch):
    # the base phase integrates a whole block through search.sample_base,
    # the name perfbench's tracer wraps
    sample, calls = search.sample_base, []
    monkeypatch.setattr(search, "sample_base",
                        lambda pred, rng, shape: calls.append(shape) or sample(pred, rng, shape))
    kwargs = small_trial_kwargs()
    base_noise = len(kwargs["schedule"].step_times()) * kwargs["world"].dim
    seqs = [np.random.SeedSequence(entropy=5, spawn_key=(i,)) for i in range(7)]
    with mock.patch.object(search, "_BLOCK_NOISE", 3 * base_noise):
        rows = harness.testbed_trials(TrialSettings(**kwargs), seqs)
    assert len(rows) == 7 and len(engine_blocks) == 3
    assert [(len(block),) for _, block, *_ in engine_blocks] == calls == [(3,), (3,), (1,)]


def test_empty_testbed_chunk_returns_no_rows(engine_blocks):
    assert harness.testbed_trials(TrialSettings(**small_trial_kwargs()), []) == []
    assert engine_blocks == []


def test_empty_sweep_chunk_returns_no_results(engine_blocks):
    assert sweep_trials(sweep_settings(small_trial_kwargs(), 1, 3), []) == []
    assert engine_blocks == []


def test_search_memory_does_not_grow_with_its_budget():
    # each seed is reduced as the engine yields it, so a search holds about one
    # block however many seeds it runs: 64-row blocks, budgets of 500 and 5,000
    kwargs = small_trial_kwargs()
    trial_settings = TrialSettings(**kwargs)
    predictor = NoisePredictor(world=trial_settings.world, schedule=trial_settings.schedule)
    runs = {
        "sweep_trials": lambda n: sweep_trials(sweep_settings(kwargs, 1, n),
                                               [np.random.SeedSequence(3)]),
        "best_of_n": lambda n: dfs_search(predictor, None, SearchConfig(seeds=n, refinements=0),
                                          None, seeding.trial_rng(np.random.SeedSequence(3)),
                                          trial_settings.sampler()),
    }

    def peak(run, n):
        tracemalloc.start()
        try:
            run(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base_noise = len(kwargs["schedule"].step_times()) * kwargs["world"].dim
    with mock.patch.object(search, "_BLOCK_NOISE", 64 * base_noise):
        for name, run in runs.items():
            run(500)  # one-off allocations out of the way
            small, large = peak(run, 500), peak(run, 5000)
            assert large <= 1.5 * small, (name, small, large)


def mask_source_search(source, refinements: int) -> list:
    """The candidates of a 5-seed dfs_search on the small world with source's
    masks, in blocks of 2, 2 and 1 seeds."""
    kwargs = small_trial_kwargs()
    trial_settings = TrialSettings(**kwargs)
    base_noise = len(kwargs["schedule"].step_times()) * kwargs["world"].dim
    refine_noise = kwargs["resample"].draws * kwargs["world"].dim
    collected = []
    with mock.patch.object(search, "_BLOCK_NOISE",
                           2 * max(base_noise, refinements * refine_noise)):
        dfs_search(NoisePredictor(world=trial_settings.world, schedule=trial_settings.schedule),
                   source, SearchConfig(seeds=5, refinements=refinements),
                   trial_settings.resample, np.random.default_rng(6),
                   base_sampler=trial_settings.sampler(), collect=collected)
    return collected


@pytest.mark.parametrize("refinements", [0, 2])
def test_source_without_rows_gets_each_refining_seeds_base_draw(engine_blocks, refinements):
    built_in, states = TrialSettings(**small_trial_kwargs()).mask_source(), []

    def per_row(state, true_set, rng):
        states.append(state)
        return built_in(state, true_set, rng)

    collected = mask_source_search(per_row, refinements)
    assert len(engine_blocks) == 3
    bases = [cand.state for cand in collected if cand.lineage[1] is None]
    assert len(states) == (len(bases) if refinements else 0)
    for state, base in zip(states, bases):
        assert type(state) is LatentState and state.t == 0.0 and np.isfinite(state.x).all()
        assert same_bits(state.x, base.x)


@pytest.mark.parametrize("oracle_masks", [False, True])
def test_built_in_rows_runs_once_per_block_on_defect_sets_and_generators(engine_blocks,
                                                                         oracle_masks):
    source = TrialSettings(**small_trial_kwargs(), oracle_masks=oracle_masks).mask_source()
    rows, calls = source.rows, []
    source.rows = lambda *args: calls.append(args) or rows(*args)
    collected = mask_source_search(source, 2)
    # (defect_sets, rngs) of the block's refining seeds, one call per block
    assert len(engine_blocks) == 3
    assert [tuple(map(len, args)) for args in calls] == [(2, 2), (2, 2), (1, 1)]
    assert all(isinstance(rng, np.random.Generator) for _, rngs in calls for rng in rngs)
    defect_sets = [truth for truths, _ in calls for truth in truths]
    bases = [cand for cand in collected if cand.lineage[1] is None]
    assert len(defect_sets) == len(bases)
    assert all(same_bits(truth, base.defects) for truth, base in zip(defect_sets, bases))
