"""Verifier-guided candidate search under matched compute budgets.

The depth-2 search draws S global seeds, generates K localized refinements
per seed, scores every candidate exactly once with the verifier, and
returns the argmax (ties broken by evaluation order: seed-major, base
before its refinements). Best-of-N, the matching global baseline, is the
same search with no refinements. The scaling sweep runs both over a grid
of candidate counts and reports mean score and standard error per
(method, N, NFE) row.

Every search runs on one lockstep engine: the base draws of all its seeds
integrate as one batch, and so do all refinements, in blocks of bounded
size. Each candidate draws its randomness from its own generator, spawned
by lineage (search, seed, refinement) from its trial's seed (seeding.trial_rng
and seeding._spawn), so batching does not change any candidate's bits. A block yields one record of arrays; dfs_search turns
records into Candidates, and the sweep and testbed runners reduce the arrays.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .attention import (DefectMask, _indicators, _mask_bits, _mask_rows, _softmax_rows,
                        mask_from_indices, mask_gen, mask_rules)
from .errors import check
from .resample import ResampleConfig, _resample
from .seeding import _spawn, trial_rng
from .testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _attention_rows,
    _inject_rows,
    _row_noise,
    _RowNoise,
    sample_base,
    synth_attention,
    verifier_score,
)

# A base sampler turns a (rows, dim) batch of clean base draws, row i drawing
# from the i-th generator, into candidates plus context per row (the defect
# set when defects are injected); a mask source turns one candidate into a
# defect mask; the built-in ones also have rows(defect_sets, rngs), the (rows,
# S) bits of a batch, row i drawn from rngs[i], which the engine calls once per
# block (any other source once per refining seed, on that seed's base draw).
BaseSampler = Callable[[PatchWorld, np.ndarray, list[np.random.Generator]],
                       tuple[np.ndarray, list[Optional[np.ndarray]]]]
MaskSource = Callable[[LatentState, Optional[np.ndarray], np.random.Generator], DefectMask]


@dataclass(frozen=True)
class SearchConfig:
    """S global seeds x K refinements each (the search has depth 2)."""

    seeds: int
    refinements: int

    def __post_init__(self):
        check([
            (self.seeds >= 1, "seeds", f"must be at least 1, got {self.seeds}"),
            (self.refinements >= 0, "refinements", f"must be non-negative, got {self.refinements}"),
        ])


@dataclass(frozen=True)
class Candidate:
    """A scored candidate: clean state, verifier score, provenance, NFE cost.

    lineage is (seed index, refinement index) with refinement index None for
    base samples. defects is the seed's ground-truth defect set and mask the
    defect mask a refinement resampled (None where there is none).
    """

    state: LatentState
    score: float
    lineage: tuple[int, Optional[int]]
    nfe_cost: int
    defects: Optional[np.ndarray] = None
    mask: Optional[DefectMask] = None


def plain_sampler(world: PatchWorld, x: np.ndarray, rngs: list[np.random.Generator]):
    return x, [None] * len(rngs)


def defect_injecting_sampler(count: int, magnitude: float,
                             randomize: bool = False) -> BaseSampler:
    """Base sampler whose draws carry injected defects.

    With randomize=False every draw has exactly ``count`` defects. With
    randomize=True the per-draw count is Binomial(n_patches, count/n_patches)
    (mean ``count``), so defect burden varies across draws the way overall
    sample quality does; a global redraw then has a real chance of landing
    on a nearly defect-free sample. Each row draws its count first, from
    its own generator.
    """

    def sampler(world: PatchWorld, x: np.ndarray, rngs: list[np.random.Generator]):
        m = world.n_patches
        counts = ([int(rng.binomial(m, count / m)) for rng in rngs] if randomize
                  else [count] * len(rngs))
        return _inject_rows(world, x, counts, magnitude, rngs)

    return sampler


def oracle_mask_source(world: PatchWorld) -> MaskSource:
    """Mask exactly the ground-truth defect set (for tests and upper bounds)."""

    def source(state: LatentState, true_set, rng: np.random.Generator) -> DefectMask:
        return mask_from_indices(world.grid, true_set)

    source.rows = lambda defect_sets, rngs: _indicators(defect_sets, world.n_patches)
    return source


def attention_mask_source(world: PatchWorld, *, gain_pos: float, gain_neg: float,
                          noise_sd: float, weight: float, ratio: float) -> MaskSource:
    """Synthesize an attention bundle for the candidate and run the mask
    pipeline on it."""
    synth_args = gain_pos, gain_neg, noise_sd

    def source(state: LatentState, true_set, rng: np.random.Generator) -> DefectMask:
        return mask_gen(*synth_attention(world, state, true_set, *synth_args, rng), weight, ratio)

    def rows(defect_sets, rngs) -> np.ndarray:
        *fields, queries = _attention_rows(world, defect_sets, *synth_args, rngs)
        step = _mask_step(world.n_patches)
        return np.concatenate([_mask_bits(*(a[i:i + step] for a in fields),
                                          _softmax_rows(queries[i:i + step]), weight, ratio)
                               for i in range(0, len(rngs), step)])

    source.rows = rows
    return source


def _measured(predictor: NoisePredictor, before: int, rows: int, steps: int, phase: str) -> int:
    """Per-row NFE of a phase, from the predictor's counter; raises when the
    counter moved by other than rows x steps run."""
    delta = predictor.nfe - before
    if delta != rows * steps:
        raise RuntimeError(f"{phase} phase: the oracle counted {delta} evaluations "
                           f"for {rows} rows x {steps} steps")
    return delta // rows


# The noise coordinates (rows x draws x dim) one phase of an engine block draws
# at once: 4 MiB, 496 rows of 33 draws at dim 32. The noise is a block's
# largest array, so memory stays bounded however many trials a chunk holds,
# however large a search's budget and however long the schedule.
_BLOCK_NOISE = 1 << 19


def _mask_step(size: int) -> int:
    """Rows per slice of the mask pipeline, whose (rows, size, size) weights
    stay within 1 MiB, in cache: at size 256, 2-row slices beat 8-row ones."""
    return max(1, (1 << 17) // size ** 2)


def _blocks(searches, base_draws: int, refine_draws: int, dim: int):
    """Seeds as (search index, seed index, search generator, config), in
    order, in blocks whose base and refinement noise (base_draws,
    refine_draws slices a row) each stay within _BLOCK_NOISE coordinates (a
    block holds at least one seed)."""
    block, refining = [], 0
    for g, (cfg, search_rng) in enumerate(searches):
        for idx in range(cfg.seeds):
            if block and ((len(block) + 1) * base_draws * dim > _BLOCK_NOISE or (
                    refining + cfg.refinements) * refine_draws * dim > _BLOCK_NOISE):
                yield block
                block, refining = [], 0
            block.append((g, idx, search_rng, cfg))
            refining += cfg.refinements
    if block:
        yield block


@dataclass(frozen=True)
class _Record:
    """One engine block as arrays, its rows the block's seeds in order: each
    seed's search index and its index in that search (search, seed), its
    refinement count (refinements), its defect set (defects, None without
    injection) and its base draw's score (scores). bits holds the (refining,
    S) masks of the rows that refine, refined_scores their refinements'
    scores, seed-major; base_nfe and refine_nfe are each phase's per-row NFE
    (0 when no row refines). drawn and refined are the two phases' states."""

    search: np.ndarray
    seed: np.ndarray
    refinements: np.ndarray
    defects: list
    scores: np.ndarray
    bits: np.ndarray
    refined_scores: np.ndarray
    base_nfe: int
    refine_nfe: int
    drawn: LatentState
    refined: Optional[LatentState]


def _lockstep(predictor: NoisePredictor, searches, resample: Optional[ResampleConfig],
              mask_source: Optional[MaskSource], base_sampler: Optional[BaseSampler] = None
              ) -> Iterator[_Record]:
    """Run depth-2 searches, (SearchConfig, generator) pairs read as needed,
    block by block in four batched phases: every base draw as one
    integration, the masks of the refined seeds as one (rows, S) array,
    every refinement as one integration on resample (ValueError if None),
    one verifier call per batch. A block's mask bits are checked once, as one
    array (attention._mask_rows).

    Seed i of a search draws its base sample, defects and mask from the i-th
    generator spawned from the search's generator; refinement j of that seed
    from the j-th spawned from the seed's. Batches and blocks only stack
    rows, so each candidate equals its one-at-a-time counterpart bit for
    bit. Yields one record of arrays (_Record) per block as it runs; the
    candidates' evaluation order is seed-major, base first, and NFE is
    measured per row. _candidates turns a record into Candidates.
    """
    inject = base_sampler or plain_sampler
    draws = len(predictor.schedule.step_times())  # x_T, then one per step
    refine_draws = 0 if resample is None else resample.draws
    for block in _blocks(searches, draws, refine_draws, predictor.world.dim):
        yield _lockstep_block(predictor, block, draws, resample, mask_source, inject)


def _lockstep_block(predictor: NoisePredictor, block: list, base_draws: int,
                    resample: Optional[ResampleConfig], mask_source: Optional[MaskSource],
                    inject: BaseSampler) -> _Record:
    """The four phases over one block, as one record."""
    if resample is None and any(cfg.refinements > 0 for *_, cfg in block):
        raise ValueError("searches with refinements need a resample config")
    world = predictor.world
    # each search's seeds in the block, spawned from its generator in one pass
    runs = [list(run) for _, run in itertools.groupby(block, key=operator.itemgetter(0))]
    rngs = _spawn([run[0][2] for run in runs], [len(run) for run in runs])

    # base phase: one integration (a step per draw after x_T), one injection,
    # one verifier call
    noise = _RowNoise(rngs, base_draws, world.dim)
    before = predictor.nfe
    base = sample_base(predictor, noise, (len(rngs),))
    noise.check_spent()
    del noise  # freed before the refinement phase draws its own
    base_nfe = _measured(predictor, before, len(rngs), base_draws - 1, "base")
    x, defects = inject(world, base.x, rngs)
    drawn = LatentState(x=x, t=0.0)  # one finiteness scan for the batch
    base_scores = verifier_score(world, drawn)

    # mask phase: the bits of the seeds that refine from one rows call (one
    # call per seed, on its base draw, for a source without rows), each row
    # from its seed's stream
    search, seed, refinements = np.array([(g, idx, cfg.refinements)
                                          for g, idx, _, cfg in block]).T
    refining = np.flatnonzero(refinements).tolist()
    bits, refined_scores = np.zeros((0, world.n_patches), np.uint8), np.zeros(0)
    refined, refine_nfe = None, 0
    if refining:
        truths, seed_rngs = [defects[row] for row in refining], [rngs[row] for row in refining]
        rows = getattr(mask_source, "rows", None)
        bits = _mask_rows(rows(truths, seed_rngs) if rows else np.array([
            mask_source(LatentState(x=drawn.x[row], t=0.0), truth, rng).bits
            for row, truth, rng in zip(refining, truths, seed_rngs)]), world.grid)
        counts = refinements[refining]
        refine_rngs = _spawn(seed_rngs, counts.tolist())

        # refinement phase: one batch, each row on its seed's mask
        seed_of = np.repeat(np.arange(len(refining)), counts)
        noise = _row_noise(refine_rngs, resample.draws, world.dim)
        before = predictor.nfe
        refined = _resample(predictor, LatentState(x=drawn.x[np.take(refining, seed_of)], t=0.0),
                            bits[seed_of], resample, noise)
        refine_nfe = _measured(predictor, before, len(seed_of), resample.nfe_cost, "refinement")
        refined_scores = verifier_score(world, refined)
    return _Record(search, seed, refinements, defects, base_scores, bits, refined_scores,
                   base_nfe, refine_nfe, drawn, refined)


def _candidates(record: _Record, grid) -> Iterator[tuple[int, Candidate]]:
    """A record's candidates with their search indices, in evaluation order
    (seed-major, base first); a seed's refinements share its mask."""
    masks = iter([DefectMask(bits=bits, ratio=selected / bits.size, grid=grid)
                  for bits, selected in zip(record.bits, record.bits.sum(axis=1).tolist())])
    refined, k = record.refined_scores.tolist(), 0
    for row, (g, idx, count, score) in enumerate(zip(*(a.tolist() for a in (
            record.search, record.seed, record.refinements, record.scores)))):
        defects, mask = record.defects[row], next(masks) if count else None
        yield g, Candidate(state=LatentState(x=record.drawn.x[row], t=0.0), score=score,
                           lineage=(idx, None), nfe_cost=record.base_nfe, defects=defects)
        for ref_idx in range(count):
            yield g, Candidate(state=LatentState(x=record.refined.x[k], t=0.0), score=refined[k],
                               lineage=(idx, ref_idx), nfe_cost=record.refine_nfe,
                               defects=defects, mask=mask)
            k += 1


def dfs_search(predictor: NoisePredictor, mask_source: Optional[MaskSource], cfg: SearchConfig,
               resample: Optional[ResampleConfig], rng: np.random.Generator,
               base_sampler: Optional[BaseSampler] = None,
               collect: Optional[list[Candidate]] = None) -> Candidate:
    """Depth-2 search: S base samples, K localized refinements per base.

    One mask is generated per base candidate and shared by its refinements,
    which run resample (None only when K = 0); the verifier draws no
    randomness. Total cost is S * n_steps + S * K * (n_refine + n_integrate)
    NFEs. The per-candidate streams are spawned from rng. Pass ``collect``
    to also receive every evaluated candidate in order.
    """
    def evaluated():
        for record in _lockstep(predictor, [(cfg, rng)], resample, mask_source, base_sampler):
            for _, cand in _candidates(record, predictor.world.grid):
                if collect is not None:
                    collect.append(cand)
                yield cand
    # max keeps the first of equal scores: evaluation order breaks ties
    return max(evaluated(), key=lambda cand: cand.score)


def best_of_n(predictor: NoisePredictor, n: int, rng: np.random.Generator,
              base_sampler: Optional[BaseSampler] = None,
              collect: Optional[list[Candidate]] = None) -> Candidate:
    """Argmax over n independent base samples (n * n_steps NFEs): the
    depth-2 search with n seeds and no refinements."""
    cfg = SearchConfig(seeds=n, refinements=0)
    return dfs_search(predictor, None, cfg, None, rng, base_sampler, collect)


def mask_recall_precision(bits: np.ndarray, truths) -> list[tuple[float, float]]:
    """Recall and precision of each row of (rows, S) mask bits against its
    ground-truth defect set (distinct patch indices), counted from the bits:
    recall 1 for an empty set, precision 0 for an empty mask."""
    hits = (bits & _indicators(truths, bits.shape[1])).sum(axis=1).tolist()
    return [(hit / len(truth) if len(truth) else 1.0, hit / selected if selected else 0.0)
            for hit, selected, truth in zip(hits, bits.sum(axis=1).tolist(), truths)]


def split_budget(n: int, refinements: int) -> tuple[int, int]:
    """Split a candidate budget N into (seeds, refinements per seed).

    N = 1 degenerates to a single plain sample; otherwise N must be a
    multiple of refinements + 1 so each seed gets the same share.
    """
    if n < 1:
        raise ValueError(f"candidate budget must be positive, got {n}")
    if n == 1:
        return 1, 0
    share = refinements + 1
    if n % share != 0:
        raise ValueError(f"candidate budget {n} is not a multiple of refinements+1 = {share}")
    return n // share, refinements


@dataclass(frozen=True)
class SweepRow:
    method: str
    n: int
    nfe: int
    mean_score: float
    stderr: float
    mask_recall: Optional[float] = None
    mask_precision: Optional[float] = None


@dataclass(frozen=True, kw_only=True)
class TrialSettings:
    """One trial's world, schedule, refinement timing, injected defects and
    mask source (picklable for workers).

    world, schedule and resample check their own fields; this type checks
    the defect and attention ranges (the mask weight and ratio by the mask
    kernel's attention.mask_rules) and the rules that tie its parts
    together. While a configuration is being validated, a part that failed
    its own checks is passed as None and the rules that need it are skipped.
    """

    world: PatchWorld
    schedule: CosineSchedule
    resample: ResampleConfig
    defect_count: int
    defect_magnitude: float
    gain_pos: float
    gain_neg: float
    noise_sd: float
    mask_weight: float
    mask_ratio: float
    oracle_masks: bool = False
    randomize_defects: bool = True

    MAX_ROW_NOISE = 1 << 22  # the noise coordinates one row draws in one phase: 32 MiB

    def __post_init__(self):
        check(self._rules())

    def _rules(self) -> list:
        v = vars(self)
        rules = [
            (self.defect_count >= 1, "defect_count",
             f"must be at least 1, got {self.defect_count}"),
            *((v[n] >= 0, n, f"must be non-negative, got {v[n]}")
              for n in ("defect_magnitude", "gain_pos", "gain_neg", "noise_sd")),
            *((passed, f"mask_{name}", message)
              for passed, name, message in mask_rules(self.mask_weight, self.mask_ratio)),
            # a query inner product sums 4 products of entries below 8 noise_sd: 256 noise_sd^2
            (np.isfinite(256 * float(self.noise_sd) * self.noise_sd), "noise_sd",
             f"overflows the query logits, got {self.noise_sd}"),
            # |mask quality| <= |neg - pos| + weight orig, fields below 1 + gain_neg + 8 noise_sd
            (np.isfinite(1 + self.gain_neg + 8 * float(self.noise_sd)
                         + self.mask_weight * (1 + 8 * float(self.noise_sd))), "mask_weight",
             f"overflows the mask quality, got {self.mask_weight}"),
        ]
        if self.world is not None:
            rules.append((self.defect_count <= self.world.n_patches, "defect_count",
                          f"exceeds patch count {self.world.n_patches}"))
            m = float(self.defect_magnitude)  # a defect's verifier term, capped as the means are
            rules.append((m * m * self.world.patch_dim / self.world.variances.min()
                          <= self.world.MAX_SCORE, "defect_magnitude",
                          f"overflows the oracle, got {self.defect_magnitude}"))
        if self.schedule is not None and self.resample is not None:
            rules.append((self.resample.t0 <= self.schedule.horizon, "resample.t0",
                          f"exceeds schedule horizon {self.schedule.horizon}"))
            # a reverse step from t divides by sigma(t) sigma(t); a base step starts no lower
            # than horizon / n_steps, where that is sin^2(pi / 2 n_steps) > 0
            sigma = self.schedule.sigma(self.resample.last_start)
            rules.append((sigma * sigma > 0, "schedule.horizon",
                          "makes sigma(t)^2 underflow to 0 where the last reverse step starts, "
                          f"got {self.schedule.horizon}"))
        # a row's noise slices per phase: x_T and one per base step; a pass's draws
        draws = {"schedule.n_steps": self.schedule and self.schedule.n_steps + 1,
                 "resample.n_refine": self.resample and self.resample.draws}
        for path, n in draws.items():
            if self.world is not None and n is not None:
                rules.append((n * self.world.dim <= self.MAX_ROW_NOISE, path,
                              f"draws {n * self.world.dim} noise coordinates a row at world dim "
                              f"{self.world.dim}, more than {self.MAX_ROW_NOISE}"))
        return rules

    def mask_source(self) -> MaskSource:
        if self.oracle_masks:
            return oracle_mask_source(self.world)
        return attention_mask_source(
            self.world, gain_pos=self.gain_pos, gain_neg=self.gain_neg,
            noise_sd=self.noise_sd, weight=self.mask_weight, ratio=self.mask_ratio)

    def sampler(self) -> BaseSampler:
        return defect_injecting_sampler(self.defect_count, self.defect_magnitude,
                                        randomize=self.randomize_defects)


@dataclass(frozen=True, kw_only=True)
class SweepSettings(TrialSettings):
    """Everything one scaling-sweep trial needs: a trial's settings plus the
    refinements per seed and the localized and best-of-N budget grids."""

    refinements: int
    n_grid: tuple[int, ...]
    bon_grid: tuple[int, ...]

    def _rules(self) -> list:
        rules = super()._rules()
        rules.append((self.refinements >= 0, "refinements",
                      f"must be non-negative, got {self.refinements}"))
        rules.append((0 < len(self.n_grid) == len(set(self.n_grid)), "n_grid",
                      f"must be a non-empty list of distinct budgets, got {list(self.n_grid)}"))
        if self.refinements >= 0:
            for n in self.n_grid:
                try:
                    split_budget(n, self.refinements)
                except ValueError as exc:
                    rules.append((False, "n_grid", str(exc)))
        rules.append((0 < len(self.bon_grid) == len(set(self.bon_grid)) and min(self.bon_grid) >= 1,
                      "bon_grid", "must be a non-empty list of distinct positive integers"))
        if self.world is not None and self.resample is not None:  # refinements share a block
            n = self.refinements * self.resample.draws * self.world.dim
            rules.append((n <= self.MAX_ROW_NOISE, "refinements", f"draw {n} noise coordinates "
                          f"a seed at world dim {self.world.dim}, more than {self.MAX_ROW_NOISE}"))
        return rules

    def local_nfe(self, n: int) -> int:
        seeds, refinements = split_budget(n, self.refinements)
        return seeds * self.schedule.n_steps + seeds * refinements * self.resample.nfe_cost


def sweep_trials(settings: SweepSettings, seed_seqs: list[np.random.SeedSequence]) -> list[dict]:
    """Master seeds of the scaling comparison, one result each, as one engine call.

    Localized search runs once per budget in n_grid; the global baseline
    draws max(bon_grid) samples once and reads best-of-first-n prefixes, so
    its per-trial curve is monotone by construction. Every budget and the
    baseline draw from their own streams, spawned from their trial's seed
    sequence (independent draws, not common random numbers). NFE counts are
    each search's measured share; masks lists (recall, precision) of each
    mask a localized budget made. Each record is reduced from its arrays as
    the engine yields it, search by search: a localized budget keeps the first
    of its equal best scores in evaluation order, and the baseline's prefix
    maxima run on, np.maximum.accumulate, from one block to the next.
    """
    searches = [SearchConfig(*split_budget(n, settings.refinements)) for n in settings.n_grid]
    searches.append(SearchConfig(seeds=max(settings.bon_grid), refinements=0))
    budgets = [*settings.n_grid, None]  # None: the best-of-N search
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    streams = ((cfg, rng) for seed_seq in seed_seqs
               for cfg, rng in zip(searches, trial_rng(seed_seq).spawn(len(searches))))
    results = [{"local": {}, "local_nfe": {}, "bon": dict.fromkeys(settings.bon_grid),
                "bon_nfe": 0, "masks": {}} for _ in seed_seqs]
    best = None  # the running best-of-N maximum
    for rec in _lockstep(predictor, streams, settings.resample, settings.mask_source(),
                         settings.sampler()):
        # each row's first candidate in evaluation order, then the end; the masks made before it
        first = np.concatenate([[0], np.cumsum(rec.refinements + 1)])
        masked = np.concatenate([[0], np.cumsum(rec.refinements > 0)])
        order = np.insert(rec.refined_scores, first[:-1] - np.arange(len(rec.seed)), rec.scores)
        order, first, masked = order.tolist(), first.tolist(), masked.tolist()
        pairs = mask_recall_precision(rec.bits, [rec.defects[row] for row in
                                                 np.flatnonzero(rec.refinements).tolist()])
        cuts = [0, *(np.flatnonzero(np.diff(rec.search)) + 1).tolist(), len(rec.seed)]
        for r0, r1 in zip(cuts, cuts[1:]):  # one search's rows
            g, seed = int(rec.search[r0]), int(rec.seed[r0])
            result, n = results[g // len(searches)], budgets[g % len(searches)]
            if n is None:  # seed 0 starts the trial's running best; a later block carries it
                prefix = np.maximum.accumulate(np.concatenate([[best] if seed else [],
                                                               rec.scores[r0:r1]]))[r0 - r1:]
                best = prefix[-1]
                result["bon"].update([(k, float(prefix[k - 1 - seed])) for k in result["bon"]
                                      if seed < k <= seed + r1 - r0])
                result["bon_nfe"] += (r1 - r0) * rec.base_nfe
                continue
            # the running best first, so max keeps the first of equal scores
            local, scores = result["local"], order[first[r0]:first[r1]]
            local[n] = max(local[n], *scores) if n in local else max(scores)
            result["local_nfe"][n] = (result["local_nfe"].get(n, 0) + (r1 - r0) * rec.base_nfe
                                      + (len(scores) - (r1 - r0)) * rec.refine_nfe)
            result["masks"].setdefault(n, []).extend(pairs[masked[r0]:masked[r1]])
    return results


def sweep_trial(settings: SweepSettings, seed_seq: np.random.SeedSequence) -> dict:
    """One master seed of the scaling comparison: a batch of one."""
    return sweep_trials(settings, [seed_seq])[0]


def _mean_stderr(table) -> tuple:
    """Mean and standard error along the last axis: floats for one row of values,
    lists for a (cells, values) table. numpy sums a contiguous last axis pairwise,
    row by row, so each cell has the bits of its own 1-D call."""
    table = np.asarray(table, dtype=float)
    n = table.shape[-1]
    mean = table.mean(axis=-1)
    stderr = table.std(axis=-1, ddof=1) / np.sqrt(n) if n >= 2 else np.zeros_like(mean)
    return mean.tolist(), stderr.tolist()


def check_nfe(what: str, measured: list[int], analytic: int) -> None:
    """Raise when a measured oracle-evaluation count differs from the
    analytic cost: some call site escaped the NFE accounting."""
    if any(nfe != analytic for nfe in measured):
        raise RuntimeError(f"{what}: measured NFE {sorted(set(measured))} "
                           f"differs from analytic {analytic}")


def summarize_sweep(settings: SweepSettings, trial_results: list[dict]) -> list[SweepRow]:
    """Aggregate per-trial sweep results into fixed-order table rows after
    checking every measured NFE against the analytic cost."""
    check_nfe("best_of_n", [r["bon_nfe"] for r in trial_results],
              max(settings.bon_grid) * settings.schedule.n_steps)
    for n in settings.n_grid:
        check_nfe(f"localized n={n}", [r["local_nfe"][n] for r in trial_results],
                  settings.local_nfe(n))
    cells = ([("localized", "local", n, settings.local_nfe(n)) for n in settings.n_grid]
             + [("best_of_n", "bon", n, n * settings.schedule.n_steps) for n in settings.bon_grid])
    means, stderrs = _mean_stderr([[r[key][n] for r in trial_results] for _, key, n, _ in cells])
    rows = []
    for (method, key, n, nfe), mean, stderr in zip(cells, means, stderrs):
        masks = [pair for r in trial_results for pair in r["masks"][n]] if key == "local" else []
        recall, precision = np.mean(masks, axis=0).tolist() if masks else (None, None)
        rows.append(SweepRow(method=method, n=n, nfe=nfe, mean_score=mean, stderr=stderr,
                             mask_recall=recall, mask_precision=precision))
    return rows


def crossover_summary(rows: list[SweepRow], reference_n: int) -> dict:
    """Find the smallest global budget whose mean matches the localized
    reference row, and the resulting NFE efficiency ratio."""
    local = {row.n: row for row in rows if row.method == "localized"}
    bon = sorted((row for row in rows if row.method == "best_of_n"), key=lambda r: r.n)
    ref = local[reference_n]
    parity = next((row for row in bon if row.mean_score >= ref.mean_score), None)
    summary = {
        "reference_n": reference_n,
        "reference_mean": ref.mean_score,
        "reference_nfe": ref.nfe,
        "parity_n": None if parity is None else parity.n,
    }
    if parity is not None:
        summary["efficiency_ratio"] = parity.nfe / ref.nfe
    return summary
