"""Seeds, row fills and worker processes of every sharded job: the testbed and
scaling trials and theory's Monte Carlo chunks.

run_chunks gives index i child i of a parent seed sequence, numpy's
SeedSequence(entropy, spawn_key=(*key, i)) bit for bit, made by one spawn per
chunk, and joins the results in index order, so they do not depend on the
worker count. It keeps the process pool it starts for later calls of the same
size, in the process that started it, until a call needs another size or the
interpreter exits (an atexit hook joins its workers before module teardown); a
task's error leaves the pool usable, a dead worker or an interrupt discards it.
_Lineage, the seeds' type, hashes all children of a spawn in one array pass.
fill_rows, the engine's one per-row noise fill, draws row i from generator i
alone and splits a large fill between the caller and one helper thread, a
fork-join that keeps every bit. The module imports only numpy, errors and the
standard library, so a theory run, which reads theory and this runner, executes
no engine module and starts no fill thread; run_chunks raises the worker cap,
worker_rules, which validate_config reports at workers.
"""
from __future__ import annotations

import atexit
import functools
import os
import threading
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence, _coerce_to_uint32_array

from .errors import check

# numpy's SeedSequence hash constants, uint64 so that no NEP 50 casting applies
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _XSHIFT = (np.uint64(c) for c in (0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 16))


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i from start to start + count, read-only."""
    consts = np.array([init * pow(mult, i, 1 << 32) % (1 << 32)
                       for i in range(start, start + count + 1)], np.uint64)
    consts.setflags(write=False)
    return consts


def _hashmix(words: np.ndarray, init: int, mult: int, start: int, count: int) -> np.ndarray:
    """SeedSequence's hash of count words a row, start hashes into its constants."""
    consts = _hash_constants(init, mult, start, count)
    mixed = (words ^ consts[:-1]) * consts[1:] & _M32
    return mixed ^ mixed >> _XSHIFT


class _Lineage(ISpawnableSeedSequence):
    """numpy's SeedSequence bit for bit, whose spawns hash all children in
    one array pass (_spawn_seqs). words counts the entropy words it hashed,
    the run entropy zero-padded to the pool size. It keeps the words PCG64
    asks of generate_state; numpy answers any other request."""

    def __init__(self, entropy, spawn_key: tuple, pool_size: int, pool, words: int, state):
        self.entropy, self.spawn_key, self.pool_size = entropy, spawn_key, pool_size
        self.n_children_spawned, self._pool, self._words, self._state = 0, pool, words, state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._state.copy()
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key,
                                      pool_size=self.pool_size).generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list:
        return _spawn_seqs([self], [n_children])


def _spawn_seqs(parents: list[_Lineage], counts: list[int]) -> list:
    """parent.spawn(k) for each parent and count in turn, in one pass: a
    child's pool is its parent's mixed with its index as the next entropy
    word j, after numpy's j * pool_size hashes. Parents of differing shape, or
    an index from 2**32 on, get numpy's own SeedSequence."""
    owners = [parent for parent, k in zip(parents, counts) for _ in range(k)]
    keys = []
    for parent, k in zip(parents, counts):
        keys += range(parent.n_children_spawned, parent.n_children_spawned + k)
        parent.n_children_spawned += k
    shapes = {(parent.pool_size, parent._words) for parent in parents}
    if len(shapes) != 1 or max(keys, default=0) >> 32:
        return [np.random.SeedSequence(p.entropy, spawn_key=p.spawn_key + (key,),
                                       pool_size=p.pool_size) for p, key in zip(owners, keys)]
    [(size, words)] = shapes
    mixed = _hashmix(np.array(keys, np.uint64)[:, None], _INIT_A, _MULT_A, words * size, size)
    pools = (_MIX_L * np.repeat(np.stack([p._pool for p in parents]), counts, axis=0)
             - _MIX_R * mixed) & _M32
    pools ^= pools >> _XSHIFT
    states = _hashmix(pools[:, np.arange(8) % size], _INIT_B, _MULT_B, 0, 8)
    states = states[:, ::2] | states[:, 1::2] << np.uint64(32)
    return [_Lineage(p.entropy, p.spawn_key + (key,), size, pool, words + 1, state)
            for p, key, pool, state in zip(owners, keys, pools, states)]


def _spawn(rngs: list[np.random.Generator], counts: list[int]) -> list[np.random.Generator]:
    """rng.spawn(k) for each generator and count in turn, flattened: one pass
    for generators trial_rng seeded."""
    seqs = [rng.bit_generator.seed_seq for rng in rngs]
    if all(isinstance(seq, _Lineage) for seq in seqs):
        return [np.random.Generator(np.random.PCG64(child)) for child in _spawn_seqs(seqs, counts)]
    return [child for rng, k in zip(rngs, counts) for child in rng.spawn(k)]


def _lineage(seed_seq) -> _Lineage:
    """A _Lineage copy of a seed sequence, its spawn counter at 0: a _Lineage's
    words as they are, or a numpy SeedSequence's, hashed once."""
    if isinstance(seed_seq, _Lineage):
        return _Lineage(seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size, seed_seq._pool,
                        seed_seq._words, seed_seq._state)
    words = (max(len(_coerce_to_uint32_array(seed_seq.entropy)), seed_seq.pool_size)
             + len(_coerce_to_uint32_array(seed_seq.spawn_key)))
    return _Lineage(seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size,
                    seed_seq.pool.astype(np.uint64), words, seed_seq.generate_state(4, np.uint64))


def trial_rng(seed_seq) -> np.random.Generator:
    """The generator of one trial, seeded by a _Lineage copy of seed_seq (run_chunks
    hands out _Lineage seeds, copied without hashing): numpy's SeedSequence bit for
    bit, as tests/test_seeding.py checks. The trial leaves seed_seq's spawn counter
    alone and depends on its entropy and spawn key only."""
    return np.random.Generator(np.random.PCG64(_lineage(seed_seq)))


_SPLIT_FILL = 1 << 15  # coordinates from which fill_rows splits its rows over two threads
_PID = os.getpid()  # a forked pool worker inherits _helper but not its thread
_SPLITTING = threading.Lock()  # held while a fill is split: the helper serves one caller
_helper = None  # the helper thread's (tasks, results) queues, made by the first split fill


def _fill(rngs, out: np.ndarray) -> None:
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)


def _filled(rngs, out: np.ndarray) -> BaseException | None:
    """The error of _fill(rngs, out), or None."""
    try:
        _fill(rngs, out)
    except BaseException as error:
        return error


def _serve(tasks, results) -> None:
    """The helper thread's loop. It holds no task once it has answered, as a view of
    the rows it filled would keep their whole array alive."""
    while True:
        results.put(_filled(*tasks.get()))


def fill_rows(rngs, out: np.ndarray) -> None:
    """Fill row i of out with rngs[i].standard_normal(out=out[i]), the bits and generator
    states of one call a row. From _SPLIT_FILL coordinates on, the caller fills the first
    half of the rows while a daemon helper thread, started by the first such fill, fills the
    rest (numpy draws without the GIL); it returns or raises once both halves have stopped.
    One row, a repeated generator (drawn in row order), a forked pool worker (which inherits
    _helper but not its thread) and a second caller while a fill is split stay on one thread."""
    global _helper
    if (out.size < _SPLIT_FILL or len(rngs) < 2 or os.getpid() != _PID
            or len(set(map(id, rngs))) < len(rngs) or not _SPLITTING.acquire(blocking=False)):
        return _fill(rngs, out)
    try:
        if _helper is None:
            from queue import SimpleQueue
            queues = SimpleQueue(), SimpleQueue()
            threading.Thread(target=_serve, args=queues, name="fill_rows", daemon=True).start()
            _helper = queues
        half = (len(rngs) + 1) // 2
        _helper[0].put((rngs[half:], out[half:]))
        try:
            _fill(rngs[:half], out[:half])
        finally:
            error = _helper[1].get()
    finally:
        _SPLITTING.release()
    if error is not None:
        raise error


def _chunk_task(task) -> list:
    """fn(payload, seeds) on the seeds of indices [start, stop), made by one spawn of a
    _Lineage copy of seed_seq; top-level so worker processes can receive it."""
    fn, payload, seed_seq, start, stop = task
    parent = _lineage(seed_seq)
    parent.n_children_spawned = start
    return fn(payload, parent.spawn(stop - start))


MAX_WORKERS = 64  # a worker is a process
_pool = None  # (pid, processes, executor) of the pool run_chunks reuses in that process


def _close_pool() -> None:
    """Forget the reused pool, first reaping its workers if this process started it: a forked
    worker inherits _pool, and its copy of the executor's lock may be held."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        pool[2].shutdown(cancel_futures=True)


atexit.register(_close_pool)  # reaps the workers while the modules the executor reads still exist


def worker_rules(workers: int) -> list:
    """The (passed, name, message) rules of run_chunks' worker count."""
    return [(workers >= 1, "workers", f"must be at least 1, got {workers}"),
            (workers <= MAX_WORKERS, "workers", f"must be at most {MAX_WORKERS}, got {workers}")]


def run_chunks(fn: Callable, payload, count: int, seed_seq, workers: int = 1) -> list:
    """fn(payload, seeds) once per chunk of range(count), index i's seed child i of seed_seq
    (left unspawned); returns fn's per-seed results in index order. One worker runs one chunk
    in this process; more get min(count, 4 * workers) chunks of sizes that differ by at most
    one, in a pool of min(workers, chunks) processes, kept for later calls of that size in this
    process (_pool) and imported only when one starts. A worker count that breaks worker_rules
    raises before any chunk is cut."""
    global _pool
    check(worker_rules(workers))
    chunks = min(count, 1 if workers <= 1 else 4 * workers)
    tasks = [(fn, payload, seed_seq, count * i // chunks, count * (i + 1) // chunks)
             for i in range(chunks)]
    if len(tasks) <= 1:
        return [row for task in tasks for row in _chunk_task(task)]
    processes = min(workers, len(tasks))
    if _pool is None or _pool[:2] != (os.getpid(), processes):
        _close_pool()  # a pool of another size, or the parent's
        from concurrent.futures import ProcessPoolExecutor
        _pool = os.getpid(), processes, ProcessPoolExecutor(max_workers=processes)
    try:
        return [row for rows in _pool[2].map(_chunk_task, tasks) for row in rows]
    except BaseException as error:  # a task's own error leaves the pool usable
        from concurrent.futures import BrokenExecutor
        if isinstance(error, BrokenExecutor) or not isinstance(error, Exception):
            _close_pool()
        raise
