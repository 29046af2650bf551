"""search._Lineage, the seed sequence of the engine's generators, against
numpy's own SeedSequence.

trial_rng seeds every trial from a _Lineage, whose spawns hash all children
in one array pass. The tests build the same generator trees from trial_rng
and from numpy, and require the same PCG64 state at every node and the same
draw at every leaf: for any entropy (0, multi-word integers, sequences),
spawn keys with words of 2**32 and above, pool sizes 4 and 8, depth up to
3, and repeated spawns of one node, through Generator.spawn and through the
engine's many-parent search._spawn. Only the installed numpy is checked.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtts import harness, search
from localtts.resample import ResampleConfig
from localtts.search import SweepSettings, TrialSettings, trial_rng
from localtts.testbed import CosineSchedule, PatchWorld

entropies = st.one_of(st.just(0), st.integers(0, 2**130),
                      st.lists(st.integers(0, 2**70), max_size=6))
spawn_keys = st.lists(st.integers(0, 2**70), max_size=4).map(tuple)
# per level: the spawns of every node (repeated spawns of one node), and
# whether the level goes through search._spawn or Generator.spawn
levels = st.lists(st.tuples(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3),
                                     min_size=1, max_size=2), st.booleans()),
                  min_size=1, max_size=3)


def numpy_rng(seq: np.random.SeedSequence) -> np.random.Generator:
    """The trial generator before the twin: numpy's SeedSequence, copied."""
    return np.random.default_rng(np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size))


def assert_same(ours: list, theirs: list) -> None:
    assert [rng.bit_generator.state for rng in ours] == [
        rng.bit_generator.state for rng in theirs]


@settings(max_examples=150, deadline=None)
@given(entropy=entropies, spawn_key=spawn_keys, pool_size=st.sampled_from([4, 8]),
       plan=levels)
def test_trees_equal_numpy(entropy, spawn_key, pool_size, plan):
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
    ours, theirs = [trial_rng(seq)], [numpy_rng(seq)]
    assert_same(ours, theirs)
    for spawns, batched in plan:
        next_ours, next_theirs = [], []
        for counts in spawns:  # one spawn of every node per entry: repeated spawns
            counts = [counts[i % len(counts)] for i in range(len(ours))]
            next_ours += (search._spawn(ours, counts) if batched else
                          [child for rng, k in zip(ours, counts) for child in rng.spawn(k)])
            next_theirs += [child for rng, k in zip(theirs, counts) for child in rng.spawn(k)]
        assert_same(next_ours, next_theirs)
        if not next_ours:
            break
        ours, theirs = next_ours, next_theirs
    assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]
    assert seq.n_children_spawned == 0


def test_child_index_from_two_to_the_32_goes_to_numpy():
    seq = np.random.SeedSequence(7, spawn_key=(1,))
    rng = trial_rng(seq)
    rng.bit_generator.seed_seq.n_children_spawned = 2**32 - 2
    children = rng.spawn(4)  # indices 2**32 - 2 to 2**32 + 1, the last two two words long
    expected = [np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, i)))
                for i in range(2**32 - 2, 2**32 + 2)]
    assert_same(children, expected)
    assert rng.bit_generator.seed_seq.n_children_spawned == 2**32 + 2
    assert_same(search._spawn(children, [2] * 4), [child for rng in expected
                                                   for child in rng.spawn(2)])


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64,
                                           np.random.Philox])
def test_other_generate_state_requests_go_to_numpy(bit_generator):
    seq = np.random.SeedSequence(2**70 + 5, spawn_key=(3, 2**33))
    [child] = trial_rng(seq).bit_generator.seed_seq.spawn(1)
    [twin] = np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key).spawn(1)
    assert np.array_equal(bit_generator(child).random_raw(8), bit_generator(twin).random_raw(8))
    for n_words, dtype in ((3, np.uint32), (5, np.uint64), (4, np.uint32)):
        assert np.array_equal(child.generate_state(n_words, dtype),
                              twin.generate_state(n_words, dtype))


def small_kwargs() -> dict:
    return dict(world=PatchWorld.uniform((2, 2), 2, [(1.0, 0.0, 0.09)]),
                schedule=CosineSchedule(horizon=1.0, n_steps=4),
                resample=ResampleConfig(t0=0.4, t_g=0.04, n_refine=2, n_integrate=1),
                defect_count=1, defect_magnitude=0.6, gain_pos=0.3, gain_neg=0.3,
                noise_sd=0.2, mask_weight=0.5, mask_ratio=0.25)


def test_engine_results_equal_numpy_seeded(monkeypatch):
    seqs = [np.random.SeedSequence(11, spawn_key=(0, i)) for i in range(5)]
    trial = TrialSettings(**small_kwargs())
    sweep = SweepSettings(**small_kwargs(), refinements=2, n_grid=(1, 3, 6), bon_grid=(1, 4))
    runs = (lambda: harness.testbed_trials(trial, seqs), lambda: search.sweep_trials(sweep, seqs))
    ours = [run() for run in runs]
    monkeypatch.setattr(search, "trial_rng", numpy_rng)
    monkeypatch.setattr(harness, "trial_rng", numpy_rng)
    assert [run() for run in runs] == ours


def _seed_words(payload, seqs) -> list:
    """What a trial can read of its seed: its key, the PCG64 seed words, the first draws
    through trial_rng and numpy's default_rng, the states of two generators trial_rng
    spawns (which leave the seed's own counter alone) and the seed words of two children."""
    return [(tuple(seq.spawn_key), seq.generate_state(4, np.uint64).tolist(),
             trial_rng(seq).random(3).tolist(), np.random.default_rng(seq).random(3).tolist(),
             [rng.bit_generator.state["state"] for rng in trial_rng(seq).spawn(2)],
             [child.generate_state(4, np.uint64).tolist() for child in seq.spawn(2)])
            for seq in seqs]


@pytest.mark.parametrize("workers, starts", [(1, [0]), (2, [0, 1, 2, 4, 5, 6, 8, 9]),
                                             (3, list(range(11)))])
def test_chunk_seeds_equal_trial_seeds(workers, starts):
    # run_chunks makes a chunk's seeds in one spawn, from the chunk's first trial on
    assert [start for start, _ in harness.task_ranges(11, workers)] == starts
    for master_seed in (0, 7, 2**64 - 1):
        want = _seed_words(None, [harness.trial_seed(master_seed, i) for i in range(11)])
        assert harness.run_chunks(_seed_words, None, 11, master_seed, workers) == want
