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
by lineage (search, seed, refinement), so batching does not change any
candidate's bits.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .attention import DefectMask, mask_from_indices, mask_gen
from .errors import check
from .resample import ResampleConfig, _check_mask, _resample
from .testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    _inject_rows,
    _RowNoise,
    sample_base,
    synth_attention,
    verifier_score,
)

# A base sampler turns a (rows, dim) batch of clean base draws, row i drawing
# from the i-th generator, into candidates plus context per row (the defect
# set when defects are injected); a mask source turns one candidate into a
# defect mask. A verifier scores a (rows, dim) batch, one score per row.
BaseSampler = Callable[[PatchWorld, np.ndarray, list[np.random.Generator]],
                       tuple[np.ndarray, list[Optional[np.ndarray]]]]
MaskSource = Callable[[LatentState, Optional[np.ndarray], np.random.Generator], DefectMask]
Verifier = Callable[[LatentState], np.ndarray]


@dataclass(frozen=True)
class SearchConfig:
    """S global seeds x K refinements each (the search has depth 2)."""

    seeds: int
    refinements: int
    resample: Optional[ResampleConfig]

    def __post_init__(self):
        check([
            (self.seeds >= 1, "seeds", f"must be at least 1, got {self.seeds}"),
            (self.refinements >= 0, "refinements",
             f"must be non-negative, got {self.refinements}"),
            (self.resample is not None or self.refinements <= 0, "resample",
             f"may be None only when refinements is 0, got {self.refinements}"),
        ])

    @property
    def total_candidates(self) -> int:
        return self.seeds * (self.refinements + 1)


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
        if true_set is None:
            raise ValueError("oracle mask source needs a ground-truth defect set")
        return mask_from_indices(world.grid, true_set)

    return source


def attention_mask_source(world: PatchWorld, *, gain_pos: float, gain_neg: float,
                          noise_sd: float, weight: float, ratio: float) -> MaskSource:
    """Synthesize an attention bundle for the candidate and run the mask
    pipeline on it."""

    def source(state: LatentState, true_set, rng: np.random.Generator) -> DefectMask:
        if true_set is None:
            raise ValueError("attention mask source needs a ground-truth defect set")
        bundle, queries = synth_attention(world, state, true_set, gain_pos,
                                          gain_neg, noise_sd, rng)
        return mask_gen(bundle, queries, weight, ratio)

    return source


def trial_rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """The generator of one trial. It spawns from a copy of seed_seq, so the
    trial leaves seed_seq's spawn counter alone and depends on its entropy
    and spawn key only."""
    return np.random.default_rng(np.random.SeedSequence(
        seed_seq.entropy, spawn_key=seed_seq.spawn_key, pool_size=seed_seq.pool_size))


def _scores(verify: Verifier, states: LatentState) -> list[float]:
    """One verifier call for a batch; a constant verifier scores every row alike."""
    return np.broadcast_to(np.asarray(verify(states), dtype=float), states.x.shape[:1]).tolist()


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
# largest array, so memory stays bounded however many trials a chunk holds
# and however long the schedule.
_BLOCK_NOISE = 1 << 19


def _refine_draws(cfg: SearchConfig) -> int:
    """The noise slices one refinement of cfg draws: two to renoise, one per step."""
    return 2 + cfg.resample.nfe_cost if cfg.refinements > 0 else 0


def _blocks(searches, base_draws: int, dim: int):
    """Seeds as (search index, seed index, generator, config), in order, in
    blocks whose base and refinement noise each stay within _BLOCK_NOISE
    coordinates (a block holds at least one seed); a search's seeds are
    spawned when reached. Searches that refine share one resample config,
    because a refinement batch runs one."""
    block, refining, resamples = [], 0, set()
    for g, (cfg, search_rng) in enumerate(searches):
        if cfg.refinements > 0:
            resamples.add(cfg.resample)
        if len(resamples) > 1:
            raise ValueError("searches that refine must share one resample config")
        for idx, rng in enumerate(search_rng.spawn(cfg.seeds)):
            if block and ((len(block) + 1) * base_draws * dim > _BLOCK_NOISE or (
                    refining + cfg.refinements) * _refine_draws(cfg) * dim > _BLOCK_NOISE):
                yield block
                block, refining = [], 0
            block.append((g, idx, rng, cfg))
            refining += cfg.refinements
    if block:
        yield block


def _lockstep(predictor: NoisePredictor, searches, mask_source: Optional[MaskSource],
              base_sampler: Optional[BaseSampler] = None,
              verifier: Optional[Verifier] = None) -> Iterator[list[Candidate]]:
    """Run depth-2 searches, (SearchConfig, generator) pairs read as needed,
    block by block in four batched phases: every base draw as one
    integration, one mask per refined seed, every refinement as one
    integration, one verifier call per batch.

    Seed i of a search draws its base sample, defects and mask from the i-th
    generator spawned from the search's generator; refinement j of that seed
    from the j-th spawned from the seed's. Batches and blocks only stack
    rows, so each candidate equals its one-at-a-time counterpart bit for
    bit. Yields each search's candidates once its last block has run, in
    evaluation order (seed-major, base first); nfe_cost is measured per row.
    """
    world = predictor.world
    inject = base_sampler or plain_sampler
    verify = verifier or functools.partial(verifier_score, world)
    draws = len(predictor.schedule.step_times())  # x_T, then one per step
    per_seed = (item for block in _blocks(searches, draws, world.dim)
                for item in _lockstep_block(predictor, block, draws, mask_source, inject, verify))
    # every search has a seed, so the groups are the searches in order
    for _, group in itertools.groupby(per_seed, key=operator.itemgetter(0)):
        yield [cand for _, candidates in group for cand in candidates]


def _lockstep_block(predictor: NoisePredictor, block: list, base_draws: int,
                    mask_source: Optional[MaskSource], inject: BaseSampler, verify: Verifier):
    """The four phases over one block; yields (search index, candidates) per seed."""
    world = predictor.world
    rngs = [rng for _, _, rng, _ in block]

    # base phase: one integration (a step per draw after x_T), one injection,
    # one verifier call
    noise = _RowNoise(rngs, base_draws, world.dim)
    before = predictor.nfe
    base = sample_base(predictor, noise, (len(rngs),))
    noise.check_spent("base")
    del noise  # freed before the refinement phase draws its own
    base_nfe = _measured(predictor, before, len(rngs), base_draws - 1, "base")
    x, defects = inject(world, base.x, rngs)
    drawn = LatentState(x=x, t=0.0)  # one finiteness scan for the batch
    base_scores = _scores(verify, drawn)

    # mask phase: one mask per seed that refines, drawn from the seed's stream
    masks, coords, refine_rows, refine_rngs = {}, [], [], []
    for row, (_, _, rng, cfg) in enumerate(block):
        if cfg.refinements > 0:
            masks[row] = mask_source(drawn.row(row), defects[row], rng)
            refine_cfg = cfg
            coords += [_check_mask(predictor, masks[row])] * cfg.refinements
            refine_rows += [row] * cfg.refinements
            refine_rngs += rng.spawn(cfg.refinements)

    # refinement phase: one batch, on the resample config every refining search shares
    if refine_rows:
        noise = _RowNoise(refine_rngs, _refine_draws(refine_cfg), world.dim)
        before = predictor.nfe
        refined, steps = _resample(predictor, LatentState(x=drawn.x[refine_rows], t=0.0),
                                   np.stack(coords), refine_cfg.resample, noise)
        noise.check_spent("refinement")
        refine_nfe = _measured(predictor, before, len(refine_rows), steps, "refinement")
        refined_scores = _scores(verify, refined)

    k = 0  # refinement rows are seed-major, like the candidates
    for row, (g, idx, _, cfg) in enumerate(block):
        candidates = [Candidate(state=drawn.row(row), score=base_scores[row],
                                lineage=(idx, None), nfe_cost=base_nfe, defects=defects[row])]
        for ref_idx in range(cfg.refinements):
            candidates.append(Candidate(state=refined.row(k), score=refined_scores[k],
                                        lineage=(idx, ref_idx), nfe_cost=refine_nfe,
                                        defects=defects[row], mask=masks[row]))
            k += 1
        yield g, candidates


def dfs_search(predictor: NoisePredictor, mask_source: Optional[MaskSource], cfg: SearchConfig,
               rng: np.random.Generator, base_sampler: Optional[BaseSampler] = None,
               verifier: Optional[Verifier] = None,
               collect: Optional[list[Candidate]] = None) -> Candidate:
    """Depth-2 search: S base samples, K localized refinements per base.

    One mask is generated per base candidate and shared by its refinements;
    the verifier draws no randomness. Total cost is S * n_steps + S * K *
    (n_refine + n_integrate) NFEs. The per-candidate streams are spawned
    from rng. Pass ``collect`` to also receive every evaluated candidate in
    order.
    """
    [candidates] = _lockstep(predictor, [(cfg, rng)], mask_source, base_sampler, verifier)
    if collect is not None:
        collect.extend(candidates)
    # max keeps the first of equal scores: evaluation order breaks ties
    return max(candidates, key=lambda cand: cand.score)


def best_of_n(predictor: NoisePredictor, n: int, rng: np.random.Generator,
              base_sampler: Optional[BaseSampler] = None,
              verifier: Optional[Verifier] = None,
              collect: Optional[list[Candidate]] = None) -> Candidate:
    """Argmax over n independent base samples (n * n_steps NFEs): the
    depth-2 search with n seeds and no refinements."""
    cfg = SearchConfig(seeds=n, refinements=0, resample=None)
    return dfs_search(predictor, None, cfg, rng, base_sampler, verifier, collect)


def mask_recall_precision(mask: DefectMask, truth) -> tuple[float, float]:
    """Recall and precision of a mask against a ground-truth defect set."""
    selected = set(mask.selected.tolist())
    truth = set(int(j) for j in truth)
    tp = len(selected & truth)
    return (tp / len(truth) if truth else 1.0, tp / len(selected) if selected else 0.0)


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
        raise ValueError(
            f"candidate budget {n} is not a multiple of refinements+1 = {share}"
        )
    return n // share, refinements


@dataclass(frozen=True)
class SweepRow:
    method: str
    n: int
    nfe: int
    mean_score: float
    stderr: float
    trials: int
    mask_recall: Optional[float] = None
    mask_precision: Optional[float] = None


@dataclass(frozen=True, kw_only=True)
class TrialSettings:
    """One trial's world, schedule, refinement timing, injected defects and
    mask source (picklable for workers).

    world, schedule and resample check their own fields; this type checks
    the defect and attention ranges and the rules that tie its parts
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

    def __post_init__(self):
        check(self._rules())

    def _rules(self) -> list:
        v = vars(self)
        rules = [
            (self.defect_count >= 1, "defect_count",
             f"must be at least 1, got {self.defect_count}"),
            *((v[n] >= 0, n, f"must be non-negative, got {v[n]}")
              for n in ("defect_magnitude", "gain_pos", "gain_neg", "noise_sd",
                        "mask_weight")),
            (0.0 < self.mask_ratio < 1.0, "mask_ratio",
             f"must lie strictly inside (0, 1), got {self.mask_ratio}"),
        ]
        if self.world is not None:
            rules.append((self.defect_count <= self.world.n_patches, "defect_count",
                          f"exceeds patch count {self.world.n_patches}"))
            m = float(self.defect_magnitude)  # the oracle divides m^2 d by a variance
            rules.append((np.isfinite(m * m * self.world.patch_dim / self.world.variances.min()),
                          "defect_magnitude", f"overflows the oracle, got {self.defect_magnitude}"))
        if self.schedule is not None and self.resample is not None:
            rules.append((self.resample.t0 <= self.schedule.horizon, "resample.t0",
                          f"exceeds schedule horizon {self.schedule.horizon}"))
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
        rules.append((len(self.n_grid) > 0, "n_grid", "must not be empty"))
        if self.refinements >= 0:
            for n in self.n_grid:
                try:
                    split_budget(n, self.refinements)
                except ValueError as exc:
                    rules.append((False, "n_grid", str(exc)))
        rules.append((len(self.bon_grid) > 0 and min(self.bon_grid) >= 1, "bon_grid",
                      "must be a non-empty list of positive integers"))
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
    mask a localized budget made.
    """
    searches = [SearchConfig(*split_budget(n, settings.refinements), resample=settings.resample)
                for n in settings.n_grid]
    searches.append(SearchConfig(seeds=max(settings.bon_grid), refinements=0, resample=None))
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    streams = ((cfg, rng) for seed_seq in seed_seqs
               for cfg, rng in zip(searches, trial_rng(seed_seq).spawn(len(searches))))
    groups = _lockstep(predictor, streams, settings.mask_source(), settings.sampler())
    results = []
    for _ in seed_seqs:  # reduce each trial as soon as its searches are done
        *local, draws = itertools.islice(groups, len(searches))
        local = dict(zip(settings.n_grid, local))
        prefix_best = np.maximum.accumulate([draw.score for draw in draws])
        results.append({
            "local": {n: max(c.score for c in group) for n, group in local.items()},
            "local_nfe": {n: sum(c.nfe_cost for c in group) for n, group in local.items()},
            "bon": {n: float(prefix_best[n - 1]) for n in settings.bon_grid},
            "bon_nfe": sum(draw.nfe_cost for draw in draws),
            "masks": {n: [mask_recall_precision(c.mask, c.defects)
                          for c in group if c.lineage[1] == 0] for n, group in local.items()},
        })
    return results


def sweep_trial(settings: SweepSettings, seed_seq: np.random.SeedSequence) -> dict:
    """One master seed of the scaling comparison: a batch of one."""
    return sweep_trials(settings, [seed_seq])[0]


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


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
    rows = []
    for method, key, n, nfe in cells:
        mean, stderr = _mean_stderr(np.array([r[key][n] for r in trial_results]))
        masks = [pair for r in trial_results for pair in r["masks"][n]] if key == "local" else []
        recall, precision = np.mean(masks, axis=0).tolist() if masks else (None, None)
        rows.append(SweepRow(method=method, n=n, nfe=nfe, mean_score=mean, stderr=stderr,
                             trials=len(trial_results), mask_recall=recall,
                             mask_precision=precision))
    return rows


def crossover_summary(settings: SweepSettings, rows: list[SweepRow],
                      reference_n: int) -> dict:
    """Find the smallest global budget whose mean matches the localized
    reference row, and the resulting NFE efficiency ratio."""
    local = {row.n: row for row in rows if row.method == "localized"}
    bon = sorted((row for row in rows if row.method == "best_of_n"), key=lambda r: r.n)
    ref = local[reference_n]
    parity_n = None
    for row in bon:
        if row.mean_score >= ref.mean_score:
            parity_n = row.n
            break
    summary = {
        "reference_n": reference_n,
        "reference_mean": ref.mean_score,
        "reference_nfe": ref.nfe,
        "parity_n": parity_n,
    }
    if parity_n is not None:
        summary["efficiency_ratio"] = (parity_n * settings.schedule.n_steps) / ref.nfe
    return summary
