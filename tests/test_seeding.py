"""seeding._Lineage, the seed sequence of the engine's generators, against
numpy's own SeedSequence.

trial_rng seeds every trial from a _Lineage, whose spawns hash all children
in one array pass. The tests build the same generator trees from trial_rng
and from numpy, and require the same PCG64 state at every node and the same
draw at every leaf: for any entropy (0, multi-word integers, sequences),
spawn keys with words of 2**32 and above, pool sizes 4 and 8, depth up to
3, and repeated spawns of one node, through Generator.spawn and through the
engine's many-parent seeding._spawn. Only the installed numpy is checked.

seeding.fill_rows, the engine's per-row noise fill, may draw half of a fill's
rows on a helper thread. The tests require the bits and generator states of one
call a row on every path, the one-thread path wherever bits could depend on the
threads or another fill holds the helper, an error raised only after both halves
stopped, no reference left to the rows a fill wrote, and a forked pool worker
that never waits on the thread it did not inherit.

seeding.run_chunks keeps one worker pool per process and size. The tests require
every output byte of runs at 2, 3 and 2 workers in one interpreter to equal the
one-worker run's, a pool that a task's error leaves usable and a dead worker
replaces, and an interpreter that exits cleanly with no worker left.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localtts
from localtts import harness, search, seeding
from localtts.config import load_config
from localtts.harness import run_experiment
from localtts.resample import ResampleConfig
from localtts.search import SweepSettings, TrialSettings
from localtts.seeding import trial_rng
from localtts.testbed import CosineSchedule, PatchWorld

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

entropies = st.one_of(st.just(0), st.integers(0, 2**130),
                      st.lists(st.integers(0, 2**70), max_size=6))
spawn_keys = st.lists(st.integers(0, 2**70), max_size=4).map(tuple)
# per level: the spawns of every node (repeated spawns of one node), and
# whether the level goes through seeding._spawn or Generator.spawn
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
            next_ours += (seeding._spawn(ours, counts) if batched else
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
    assert_same(seeding._spawn(children, [2] * 4), [child for rng in expected
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


def _chunk_starts(payload, seqs) -> list:
    """Per seed, whether it is the first of its chunk."""
    return [seq is seqs[0] for seq in seqs]


@pytest.mark.parametrize("workers, starts", [(1, [0]), (2, [0, 1, 2, 4, 5, 6, 8, 9]),
                                             (3, list(range(11)))])
def test_chunk_seeds_equal_trial_seeds(workers, starts):
    # run_chunks makes a chunk's seeds in one spawn, from the chunk's first trial on
    firsts = seeding.run_chunks(_chunk_starts, None, 11, np.random.SeedSequence(0), workers)
    assert [i for i, first in enumerate(firsts) if first] == starts
    for master_seed in (0, 7, 2**64 - 1):
        want = _seed_words(None, [harness.trial_seed(master_seed, i) for i in range(11)])
        trial_stream = np.random.SeedSequence(master_seed, spawn_key=(0,))
        assert seeding.run_chunks(_seed_words, None, 11, trial_stream, workers) == want
        assert trial_stream.n_children_spawned == 0


@pytest.fixture
def fills(monkeypatch) -> list:
    """(thread, rows) of each seeding._fill call, the helper thread's included."""
    calls, fill = [], seeding._fill

    def record(rngs, out):
        calls.append((threading.get_ident(), len(rngs)))
        fill(rngs, out)

    monkeypatch.setattr(seeding, "_fill", record)
    return calls


def helper_thread() -> threading.Thread:
    [thread] = [thread for thread in threading.enumerate() if thread.name == "fill_rows"]
    return thread


def row_by_row(rngs, shape: tuple) -> np.ndarray:
    out = np.empty(shape)
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return out


@pytest.mark.parametrize("rows, width, split", [
    (2, seeding._SPLIT_FILL // 2, True),  # at the floor
    (5, seeding._SPLIT_FILL // 4, True),  # odd: the caller fills 3 rows
    (6, seeding._SPLIT_FILL // 4, True),
    (1, seeding._SPLIT_FILL * 2, False),  # one row
    (5, 64, False),  # below the floor
    (6, 64, False)])
def test_fill_rows_equals_a_call_a_row(rows, width, split, fills):
    ours = [np.random.default_rng([rows, width, i]) for i in range(rows)]
    theirs = [np.random.default_rng([rows, width, i]) for i in range(rows)]
    out = np.empty((rows, width))
    seeding.fill_rows(ours, out)
    assert out.tobytes() == row_by_row(theirs, out.shape).tobytes()
    assert_same(ours, theirs)
    me, half = threading.get_ident(), (rows + 1) // 2
    assert sorted(fills, key=lambda call: call[0] != me) == (
        [(me, half), (helper_thread().ident, rows - half)] if split else [(me, rows)])


def test_a_split_fill_leaves_no_reference_to_its_rows():
    # a view of the helper's rows would keep the whole block's noise alive until the next fill
    out = np.empty((4, seeding._SPLIT_FILL))
    seeding.fill_rows([np.random.default_rng(i) for i in range(4)], out)
    alive = weakref.ref(out)
    del out
    assert alive() is None


def test_a_repeated_generator_fills_on_one_thread(fills):
    # generator a draws rows 0 and 2, in row order, whatever the threads' timing
    a, b, c = (np.random.default_rng(seed) for seed in (1, 2, 3))
    twins = {rng: np.random.default_rng(seed) for rng, seed in ((a, 1), (b, 2), (c, 3))}
    out = np.empty((4, seeding._SPLIT_FILL))
    seeding.fill_rows([a, b, a, c], out)
    assert out.tobytes() == row_by_row([twins[rng] for rng in (a, b, a, c)], out.shape).tobytes()
    assert_same([a, b, c], list(twins.values()))
    assert fills == [(threading.get_ident(), 4)]


class Row:
    """A generator stand-in whose standard_normal(out=) sleeps, then fills with its
    index or raises; started and done record a call's start and end."""

    def __init__(self, index: int, delay: float = 0.0, fail: bool = False):
        self.index, self.delay, self.fail, self.done = index, delay, fail, False
        self.started = threading.Event()

    def standard_normal(self, out: np.ndarray) -> None:
        self.started.set()
        time.sleep(self.delay)
        if self.fail:
            raise ArithmeticError(f"row {self.index}")
        out[...] = self.index
        self.done = True


@pytest.mark.parametrize("failing", [0, 3])  # of 4 rows, the caller fills 0 and 1
def test_a_failing_fill_raises_after_the_other_half(failing, monkeypatch, fills):
    monkeypatch.setattr(seeding, "_SPLIT_FILL", 1)
    seeding.fill_rows([np.random.default_rng(i) for i in range(2)], np.empty((2, 8)))
    helper = helper_thread()
    rows = [Row(i, delay=0.05 * ((i < 2) != (failing < 2)), fail=i == failing)
            for i in range(4)]
    with pytest.raises(ArithmeticError, match=f"row {failing}"):
        seeding.fill_rows(rows, np.zeros((4, 8)))
    other = range(2, 4) if failing < 2 else range(2)
    assert all(rows[i].done for i in other)  # the other half ran to its end
    ours, theirs = ([np.random.default_rng(i) for i in range(4)] for _ in range(2))
    out = np.empty((4, 8))
    seeding.fill_rows(ours, out)
    assert out.tobytes() == row_by_row(theirs, out.shape).tobytes()
    assert helper_thread() is helper and helper.is_alive()
    assert (helper.ident, 2) in fills[-2:]


def test_a_second_caller_fills_on_its_own_thread(monkeypatch, fills):
    # the helper serves one split fill at a time; a fill that comes meanwhile stays whole
    monkeypatch.setattr(seeding, "_SPLIT_FILL", 1)
    slow = [Row(i, delay=0.2) for i in range(2)]
    first = threading.Thread(target=seeding.fill_rows, args=(slow, np.zeros((2, 8))))
    first.start()
    assert slow[0].started.wait(10)  # the caller's half of a split fill
    ours, theirs = ([np.random.default_rng(i) for i in range(4)] for _ in range(2))
    out = np.empty((4, 8))
    seeding.fill_rows(ours, out)
    first.join()
    assert out.tobytes() == row_by_row(theirs, out.shape).tobytes()
    assert (threading.get_ident(), 4) in fills and all(row.done for row in slow)


@pytest.mark.parametrize("name, runner", [("testbed_small.json", harness.testbed_trials),
                                          ("scaling_default.json", search.sweep_trials)])
def test_split_fills_give_the_one_thread_records(name, runner, monkeypatch, fills):
    cfg, _ = load_config(CONFIGS / name, ["trials=3"])
    seqs = [harness.trial_seed(cfg.master_seed, i) for i in range(3)]
    monkeypatch.setattr(seeding, "_SPLIT_FILL", 1 << 62)
    one_thread = runner(cfg.settings, seqs)
    assert {thread for thread, _ in fills} == {threading.get_ident()}
    monkeypatch.setattr(seeding, "_SPLIT_FILL", 1)
    split = runner(cfg.settings, seqs)
    assert repr(split) == repr(one_thread)
    assert helper_thread().ident in {thread for thread, _ in fills}


def test_a_forked_worker_fills_on_one_thread(tmp_path):
    # the workers=1 run splits its fills and so starts the helper; the workers=2 run then
    # forks workers that inherit the helper's queues but not its thread, and whose fills
    # are also above the floor: one that split a fill would wait for the thread forever
    config = str(CONFIGS / "testbed_small.json")
    code = ("import threading\n"
            "from localtts.config import load_config\n"
            "from localtts.harness import run_experiment\n"
            "for workers in (1, 2):\n"
            f"    cfg, _ = load_config({config!r}, ['trials=320', f'workers={{workers}}'])\n"
            f"    run_experiment(cfg, {str(tmp_path)!r} + f'/w{{workers}}')\n"
            "    print(threading.active_count())\n")
    src = str(Path(localtts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and its hung pool workers
        proc.communicate()
        pytest.fail("the workers=2 run after a workers=1 run did not finish in 60 s")
    assert proc.returncode == 0, err
    assert out.split()[0] == "2"  # the helper thread of the workers=1 run
    files = sorted(path.name for path in (tmp_path / "w1").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "w2").iterdir())
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def pool_pids() -> set:
    """The pids of this process's live worker processes: the reused pool's."""
    return {child.pid for child in multiprocessing.active_children()}


def test_a_reused_pool_leaves_every_output_byte(tmp_path):
    # per-patch values, so the workers' tasks allocate Monte Carlo workspaces in heaps that
    # outlive the run; 5 Monte Carlo chunks and 24 trials fill a pool of 3
    runs = {"theory_worked.json": ['theory.repair_dist={"kind": "exponential"}',
                                   'theory.harm_dist={"kind": "uniform"}', "theory.mc_trials=20000"],
            "testbed_small.json": ["trials=24"]}
    outputs, pools = {}, []
    for step, workers in enumerate((1, 2, 3, 2)):
        for name, overrides in runs.items():
            cfg, _ = load_config(CONFIGS / name, [*overrides, f"workers={workers}"])
            out = tmp_path / f"{step}-{name}"
            run_experiment(cfg, str(out))
            outputs[step, name] = {path.name: path.read_bytes() for path in out.iterdir()}
            pools.append(pool_pids())
    for (step, name), files in outputs.items():
        assert files == outputs[0, name], (step, name)
    theory2, testbed2, theory3, testbed3, theory2_again, testbed2_again = pools[2:]
    assert theory2 == testbed2 and theory3 == testbed3 and theory2_again == testbed2_again
    assert [len(pids) for pids in (theory2, theory3, theory2_again)] == [2, 3, 2]
    assert not theory3 & theory2 and not theory2_again & (theory2 | theory3)  # closed, not kept


def _indices(payload, seeds) -> list:
    return [seed.spawn_key[-1] for seed in seeds]


def _raise_at_one(payload, seeds) -> list:
    if 1 in _indices(payload, seeds):
        raise ValueError("chunk of index 1 failed")
    return _indices(payload, seeds)


def _exit_at_one(payload, seeds) -> list:
    if 1 in _indices(payload, seeds):
        os._exit(3)  # the worker dies without an answer
    return _indices(payload, seeds)


def test_a_task_error_leaves_the_pool_usable():
    seed = np.random.SeedSequence(0)
    with pytest.raises(ValueError, match="chunk of index 1 failed"):
        seeding.run_chunks(_raise_at_one, None, 4, seed, 2)
    pids = pool_pids()
    assert len(pids) == 2
    assert seeding.run_chunks(_indices, None, 4, seed, 2) == [0, 1, 2, 3]
    assert pool_pids() == pids


def test_a_dead_worker_discards_the_pool():
    seed = np.random.SeedSequence(0)
    assert seeding.run_chunks(_indices, None, 4, seed, 2) == [0, 1, 2, 3]
    pids = pool_pids()
    with pytest.raises(BrokenProcessPool):
        seeding.run_chunks(_exit_at_one, None, 4, seed, 2)
    assert seeding._pool is None and not pool_pids()  # the broken pool's workers are reaped
    assert seeding.run_chunks(_indices, None, 4, seed, 2) == [0, 1, 2, 3]
    assert len(pool_pids()) == 2 and not pool_pids() & pids


def test_an_interpreter_with_a_pool_exits_cleanly(tmp_path):
    # two theory runs share one pool, which the interpreter must reap at exit, so stderr
    # stays empty and no worker outlives it. A daemon thread holds the runner's modules to
    # the end, as a host such as pytest does, so the interpreter wipes their globals at exit:
    # a pool still held then would be freed after concurrent.futures.process lost its names
    config = str(CONFIGS / "theory_worked.json")
    code = ("import multiprocessing, sys, threading\n"
            "from localtts.config import load_config\n"
            "from localtts.harness import run_experiment\n"
            "for run in (1, 2):\n"
            f"    cfg, _ = load_config({config!r}, ['workers=2'])\n"
            f"    run_experiment(cfg, {str(tmp_path)!r} + f'/run{{run}}')\n"
            "    print(sorted(child.pid for child in multiprocessing.active_children()))\n"
            "modules = [sys.modules[name] for name in ('localtts.seeding', "
            "'concurrent.futures.process')]\n"
            "threading.Thread(target=lambda held: threading.Event().wait(), args=(modules,),\n"
            "                 daemon=True).start()\n")
    src = str(Path(localtts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and its pool workers
        proc.communicate()
        pytest.fail("two theory runs at workers=2 did not exit in 60 s")
    assert (proc.returncode, err) == (0, "")
    first, second = out.splitlines()
    assert first == second and len(json.loads(first)) == 2  # the second run reused the pool
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process is left in the run's session
