"""Verifier-guided candidate search under matched compute budgets.

The depth-2 search draws S global seeds, generates K localized refinements
per seed, scores every candidate exactly once with the verifier, and
returns the argmax (ties broken by evaluation order: seed-major, base
before its refinements). Best-of-N is the matching global baseline. The
scaling sweep runs both over a grid of candidate counts and reports mean
score and standard error per (method, N, NFE) row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .attention import DefectMask, mask_from_indices, mask_gen
from .errors import check
from .resample import ResampleConfig, localized_resample
from .testbed import (
    CosineSchedule,
    LatentState,
    NoisePredictor,
    PatchWorld,
    inject_defects,
    sample_base,
    synth_attention,
    verifier_score,
)

# A base sampler returns a candidate state at t=0 plus optional context
# (the ground-truth defect set when defects are injected); a mask source
# turns that candidate into a defect mask.
BaseSampler = Callable[[NoisePredictor, np.random.Generator], tuple[LatentState, Optional[np.ndarray]]]
MaskSource = Callable[[LatentState, Optional[np.ndarray], np.random.Generator], DefectMask]
Verifier = Callable[[LatentState], float]


@dataclass(frozen=True)
class SearchConfig:
    """S global seeds x K refinements each (the search has depth 2)."""

    seeds: int
    refinements: int
    resample: ResampleConfig

    def __post_init__(self):
        check([
            (self.seeds >= 1, "seeds", f"must be at least 1, got {self.seeds}"),
            (self.refinements >= 0, "refinements",
             f"must be non-negative, got {self.refinements}"),
        ])

    @property
    def total_candidates(self) -> int:
        return self.seeds * (self.refinements + 1)


@dataclass(frozen=True)
class Candidate:
    """A scored candidate: clean state, verifier score, provenance, NFE cost.

    lineage is (seed index, refinement index) with refinement index None for
    base samples.
    """

    state: LatentState
    score: float
    lineage: tuple[int, Optional[int]]
    nfe_cost: int


def plain_sampler(predictor: NoisePredictor, rng: np.random.Generator):
    return sample_base(predictor, rng), None


def defect_injecting_sampler(count: int, magnitude: float,
                             randomize: bool = False) -> BaseSampler:
    """Base sampler whose draws carry injected defects.

    With randomize=False every draw has exactly ``count`` defects. With
    randomize=True the per-draw count is Binomial(n_patches, count/n_patches)
    (mean ``count``), so defect burden varies across draws the way overall
    sample quality does; a global redraw then has a real chance of landing
    on a nearly defect-free sample.
    """

    def sampler(predictor: NoisePredictor, rng: np.random.Generator):
        state = sample_base(predictor, rng)
        m = predictor.world.n_patches
        k = int(rng.binomial(m, count / m)) if randomize else count
        if k == 0:
            return state, np.array([], dtype=int)
        return inject_defects(predictor.world, state, k, magnitude, rng)

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


def _default_verifier(world: PatchWorld) -> Verifier:
    return functools.partial(verifier_score, world)


def _best(candidates: list[Candidate]) -> Candidate:
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.score > best.score:
            best = cand
    return best


def dfs_search(predictor: NoisePredictor, mask_source: MaskSource, cfg: SearchConfig,
               rng: np.random.Generator, base_sampler: Optional[BaseSampler] = None,
               verifier: Optional[Verifier] = None,
               collect: Optional[list[Candidate]] = None) -> Candidate:
    """Depth-2 search: S base samples, K localized refinements per base.

    One mask is generated per base candidate and shared by its refinements.
    Total cost is S * n_steps + S * K * (n_refine + n_integrate) NFEs.
    Pass ``collect`` to also receive every evaluated candidate in order.
    """
    sampler = base_sampler or plain_sampler
    verify = verifier or _default_verifier(predictor.world)
    base_cost = predictor.schedule.n_steps
    candidates: list[Candidate] = []
    for seed_idx in range(cfg.seeds):
        state, context = sampler(predictor, rng)
        candidates.append(Candidate(state=state, score=float(verify(state)),
                                    lineage=(seed_idx, None), nfe_cost=base_cost))
        if cfg.refinements == 0:
            continue
        mask = mask_source(state, context, rng)
        for ref_idx in range(cfg.refinements):
            refined, score = localized_resample(predictor, state, mask,
                                                cfg.resample, verify, rng)
            candidates.append(Candidate(state=refined, score=float(score),
                                        lineage=(seed_idx, ref_idx),
                                        nfe_cost=cfg.resample.nfe_cost))
    if collect is not None:
        collect.extend(candidates)
    return _best(candidates)


def best_of_n(predictor: NoisePredictor, n: int, rng: np.random.Generator,
              base_sampler: Optional[BaseSampler] = None,
              verifier: Optional[Verifier] = None,
              collect: Optional[list[Candidate]] = None) -> Candidate:
    """Argmax over n independent base samples (n * n_steps NFEs)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    sampler = base_sampler or plain_sampler
    verify = verifier or _default_verifier(predictor.world)
    base_cost = predictor.schedule.n_steps
    candidates = []
    for idx in range(n):
        state, _ = sampler(predictor, rng)
        candidates.append(Candidate(state=state, score=float(verify(state)),
                                    lineage=(idx, None), nfe_cost=base_cost))
    best = _best(candidates)
    if collect is not None:
        collect.extend(candidates)
    return best


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


def sweep_trial(settings: SweepSettings, seed_seq: np.random.SeedSequence) -> dict:
    """One master seed of the scaling comparison.

    Localized search runs once per budget in n_grid; the global baseline
    draws max(bon_grid) samples once and reads best-of-first-n prefixes, so
    its per-trial curve is monotone by construction.
    """
    rng = np.random.default_rng(seed_seq)
    sampler = settings.sampler()
    mask_source = settings.mask_source()
    local_scores = {}
    local_nfes = {}
    for n in settings.n_grid:
        seeds, refinements = split_budget(n, settings.refinements)
        predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
        cfg = SearchConfig(seeds=seeds, refinements=refinements, resample=settings.resample)
        best = dfs_search(predictor, mask_source, cfg, rng, base_sampler=sampler)
        local_scores[n] = best.score
        local_nfes[n] = predictor.nfe
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    verify = _default_verifier(settings.world)
    draws = []
    for _ in range(max(settings.bon_grid)):
        state, _ = sampler(predictor, rng)
        draws.append(float(verify(state)))
    prefix_best = np.maximum.accumulate(draws)
    bon_scores = {n: float(prefix_best[n - 1]) for n in settings.bon_grid}
    return {"local": local_scores, "local_nfe": local_nfes, "bon": bon_scores}


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def summarize_sweep(settings: SweepSettings, trial_results: list[dict]) -> list[SweepRow]:
    """Aggregate per-trial sweep results into fixed-order table rows."""
    rows = []
    trials = len(trial_results)
    for n in settings.n_grid:
        scores = np.array([r["local"][n] for r in trial_results])
        mean, stderr = _mean_stderr(scores)
        rows.append(SweepRow(method="localized", n=n, nfe=settings.local_nfe(n),
                             mean_score=mean, stderr=stderr, trials=trials))
    for n in settings.bon_grid:
        scores = np.array([r["bon"][n] for r in trial_results])
        mean, stderr = _mean_stderr(scores)
        rows.append(SweepRow(method="best_of_n", n=n, nfe=n * settings.schedule.n_steps,
                             mean_score=mean, stderr=stderr, trials=trials))
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
