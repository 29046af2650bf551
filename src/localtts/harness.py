"""Experiment orchestration and deterministic reporting.

Four experiment kinds share one entry point:

  theory   closed-form patch-economy report, Monte Carlo cross-check, and
           the best-of-N saturation curve
  testbed  end-to-end localized refinement on defect-injected samples
  scaling  localized search versus best-of-N over a candidate-count grid
  maskgen  standalone mask generation from an attention interchange file

Trial i's seed is child i of the master seed's trial stream. Trials and Monte
Carlo chunks run through one runner (seeding.run_chunks), which shards them
across workers and joins results in index order, so report bodies are
byte-identical for any worker count. Reports carry no timestamps; CSV files
use '.' decimals and a fixed column order.

The kind modules are registered in config (config.lazy_module), imported from there and
read as attributes at call time, so a runner executes only the modules its kind uses:
run_theory theory, run_maskgen attention, and run_testbed and run_scaling the engine
(attention, resample, search, testbed).
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, attn, search, testbed, theory
from .seeding import run_chunks, trial_rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_TRIAL_STREAM = 0
_SIM_STREAM = 1


def trial_seed(master_seed: int, index: int, stream: int = _TRIAL_STREAM) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))


def _trial_stream(master_seed: int) -> np.random.SeedSequence:
    """The parent of the trial seeds: trial i's is its child i, trial_seed(master_seed, i)."""
    return np.random.SeedSequence(master_seed, spawn_key=(_TRIAL_STREAM,))


def _one_at_a_time(fn: Callable, payload, seed_seqs: list) -> list:
    return [fn(payload, seed_seq) for seed_seq in seed_seqs]


def run_trials(fn: Callable, payload, trials: int, master_seed: int,
               workers: int = 1) -> list:
    """Run fn(payload, seed_sequence) for each trial index, in order (run_chunks on the trial
    stream). It stays because perfbench's pool probe calls it and perfbench/spans.py wraps it
    by name; ROADMAP item 2, step 3 deletes it."""
    return run_chunks(functools.partial(_one_at_a_time, fn), payload, trials,
                      _trial_stream(master_seed), workers)


def sign_test_p_greater(positives: int, n: int) -> float:
    """Exact one-sided sign test: P(X >= positives) for X ~ Binomial(n, 1/2),
    as an exact integer ratio rounded once to the nearest float."""
    return sum(math.comb(n, i) for i in range(positives, n + 1)) / 2 ** n


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def run_theory(cfg: ExperimentConfig) -> tuple[dict, dict]:
    econ, stats = cfg.economy, cfg.mask_stats
    opts = cfg.theory_options
    e_tp, e_sel, e_fp = theory.expected_selection_stats(stats, econ.defects)
    gain_global, gain_local = theory.per_trial_gains(econ, stats)
    bud_global, bud_local = theory.budget_gains(econ, stats)
    holds, margin = theory.dominance_check(econ, stats)
    closed = {
        "expected_true_positives": e_tp,
        "expected_selected": e_sel,
        "expected_false_positives": e_fp,
        "per_trial_gain_global": gain_global,
        "per_trial_gain_local": gain_local,
        "budget_gain_global": bud_global,
        "budget_gain_local": bud_local,
        "dominance_holds": holds,
        "dominance_margin": margin,
        "precision_floor": theory.economy_precision_floor(econ),
        "sparse_regime_approx_holds": theory.sparse_dominance_approx(econ, stats),
        "regime_flags": dataclasses.asdict(theory.classify_regime(econ, stats)),
    }
    try:
        req = theory.required_recall(econ, stats.precision)
        closed["required_recall"] = req.raw
        closed["required_recall_clamped"] = req.clamped
    except theory.InfeasibleParameterError as exc:
        closed["required_recall"] = None
        closed["required_recall_error"] = str(exc)
    # stop before the Monte Carlo: on the closed forms, then on the best-of-N curve's first
    # non-finite point, which stands for the rest of the curve
    curve = theory.bon_curve(opts["bon_repair_prob_one"], econ, opts["bon_n_max"])
    if hits := _non_finite(closed, "results.closed_form") or _non_finite(
            {p.n: vars(p) for p in curve.points}, "results.bon.curve")[:1]:
        raise ConfigError([f"{hit} (overflow: a config number is too large)" for hit in hits])

    results = {"closed_form": closed}
    files: dict[str, str] = {}

    mc_trials = opts["mc_trials"]
    if mc_trials > 0:
        sim = theory.simulate_patch_economy(
            econ, stats, mc_trials, trial_seed(cfg.master_seed, 0, _SIM_STREAM),
            repair_dist=opts["repair_dist"], harm_dist=opts["harm_dist"],
            workers=cfg.workers)
        results["monte_carlo"] = dataclasses.asdict(sim)
        rows = [
            ("expected_true_positives", e_tp, sim.tp_mean, sim.tp_se),
            ("expected_selected", e_sel, sim.selected_mean, sim.selected_se),
            ("expected_false_positives", e_fp, sim.fp_mean, sim.fp_se),
            ("per_trial_gain_global", gain_global, sim.gain_global_mean, sim.gain_global_se),
            ("per_trial_gain_local", gain_local, sim.gain_local_mean, sim.gain_local_se),
        ]
        files["economy_mc.csv"] = render_csv(
            ["quantity", "closed_form", "estimate", "stderr"], rows)

    results["bon"] = {
        "repair_prob_one": opts["bon_repair_prob_one"],
        "first_decline": curve.first_decline,
    }
    files["bon_curve.csv"] = render_csv(
        ["n", "repair_prob", "normalized_gain"],
        [(p.n, p.repair_prob, p.normalized_gain) for p in curve.points])
    return results, files


# ---------------------------------------------------------------------------
# testbed
# ---------------------------------------------------------------------------

def testbed_trials(settings: search.TrialSettings,
                   seed_seqs: list[np.random.SeedSequence]) -> list[tuple]:
    """Refinement trials as one engine call: each is a one-seed, one-refinement
    search on a defect-injected draw, scored against its ground-truth defects.
    A row's NFE is the measured cost of its own two candidates."""
    predictor = testbed.NoisePredictor(world=settings.world, schedule=settings.schedule)
    cfg = search.SearchConfig(seeds=1, refinements=1)
    searches = ((cfg, trial_rng(seed_seq)) for seed_seq in seed_seqs)
    rows = []
    for rec in search._lockstep(predictor, searches, settings.resample,
                                settings.mask_source(), settings.sampler()):
        # every seed refines once: a block's refinements are its rows, in order
        anchor, refined, nfe = rec.scores, rec.refined_scores, rec.base_nfe + rec.refine_nfe
        rows += [(a, r, d, *pair, nfe) for a, r, d, pair in zip(
            anchor.tolist(), refined.tolist(), (refined - anchor).tolist(),
            search.mask_recall_precision(rec.bits, rec.defects))]
    return rows


def run_testbed(cfg: ExperimentConfig) -> tuple[dict, dict]:
    rows = run_chunks(testbed_trials, cfg.settings, cfg.trials, _trial_stream(cfg.master_seed),
                      cfg.workers)
    nfe = cfg.settings.nfe(seeds=1, refinements=1)
    search.check_nfe("testbed trial", [row[5] for row in rows], nfe)
    improvements = np.array([row[2] for row in rows])
    mean, stderr = search._mean_stderr(improvements)
    positives = int(np.sum(improvements > 0))
    results = {
        "trials": cfg.trials,
        "mean_improvement": mean,
        "stderr_improvement": stderr,
        "positive_fraction": positives / improvements.size,
        "sign_test_p_greater": sign_test_p_greater(positives, improvements.size),
        "mean_mask_recall": float(np.mean([row[3] for row in rows])),
        "mean_mask_precision": float(np.mean([row[4] for row in rows])),
        "nfe_per_trial": nfe,
    }
    csv_rows = [(idx, *row) for idx, row in enumerate(rows)]
    files = {"trials.csv": render_csv(
        ["trial", "anchor_score", "refined_score", "improvement",
         "mask_recall", "mask_precision", "nfe"], csv_rows)}
    return results, files


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def run_scaling(cfg: ExperimentConfig) -> tuple[dict, dict]:
    settings = cfg.settings
    trial_results = run_chunks(search.sweep_trials, settings, cfg.trials,
                               _trial_stream(cfg.master_seed), cfg.workers)
    rows = search.summarize_sweep(settings, trial_results)
    reference_n = cfg.resolved["search"]["reference_n"]
    summary = search.crossover_summary(rows, reference_n)
    results = {
        "trials": cfg.trials,
        "crossover": summary,
        "rows": [dict(vars(r)) for r in rows],  # flat fields: no deep copy
    }
    files = {"scaling.csv": render_csv(
        ["method", "n", "nfe", "mean_score", "stderr", "trials"],
        [(r.method, r.n, r.nfe, r.mean_score, r.stderr, cfg.trials) for r in rows])}
    return results, files


# ---------------------------------------------------------------------------
# maskgen
# ---------------------------------------------------------------------------

def run_maskgen(cfg: ExperimentConfig) -> tuple[dict, dict]:
    try:  # a finite but huge input overflows to a non-finite quality, which the kernel reports
        with np.errstate(over="ignore", invalid="ignore"):
            mask = attn.mask_gen(**cfg.maskgen)
    except ValueError as exc:  # a non-finite quality: validate_config has read every input
        raise ConfigError([f"maskgen: {exc}"])
    doc = attn.mask_to_document(mask)
    results = {"grid": doc["grid"], "ratio": doc["ratio"], "selected": int(np.sum(mask.bits))}
    return results, {"mask.json": json.dumps(doc, sort_keys=True, indent=2) + "\n"}


# ---------------------------------------------------------------------------
# dispatch and reporting
# ---------------------------------------------------------------------------

def render_csv(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _non_finite(value, path: str) -> list[str]:
    """'path: value' for every infinite or NaN float in a report value."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [hit for key, item in items for hit in _non_finite(item, f"{path}.{key}")]
    return [f"{path}: {value}"] if isinstance(value, float) and not math.isfinite(value) else []


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path,
                   overrides: Optional[list[str]] = None) -> dict:
    """Run the configured experiment and write its report files.

    validate_config has read every input, maskgen's documents included. Once the run
    succeeds, writes report.json (resolved config, warnings, results) plus the
    kind-specific CSV/JSON artifacts into out_dir; returns the report dict.
    """
    runners = {"theory": run_theory, "testbed": run_testbed, "scaling": run_scaling,
               "maskgen": run_maskgen}
    results, files = runners[cfg.kind](cfg)
    report = {
        "kind": cfg.kind,
        "config": cfg.resolved,
        "overrides": list(overrides or []),
        "warnings": list(cfg.warnings),
        "results": results,
    }
    try:  # JSON has no Infinity or NaN
        body = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # a value no shape reads, or a result a huge config number overflowed
        raise ConfigError([f"{hit} (JSON has no NaN or Infinity)"
                           for hit in _non_finite(cfg.resolved, "config")]
                          + [f"{hit} (overflow: a config number is too large)"
                             for hit in _non_finite(results, "results")])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(body)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return report
