"""Per-operation correctness check for one experiment output directory.

The check reads only the files an experiment writes and the config it was
given. It never replays the experiment, so it does not depend on how the
program lays out its random streams: a batched trial engine must pass it
unchanged. It checks that

  * report.json and every CSV parse, with the documented columns;
  * every scaling row's NFE is the analytic cost of its method and budget;
  * the testbed's per-trial NFE is n_steps + n_refine + n_integrate, and all
    scores are finite;
  * the theory Monte Carlo means lie within MC_SIGMAS standard errors of the
    closed forms for tp, selected, fp and both per-trial gains.

Only the standard library is used, so the checker shares no code with the
program it checks.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SCALING_COLUMNS = ["method", "n", "nfe", "mean_score", "stderr", "trials"]
TESTBED_COLUMNS = ["trial", "anchor_score", "refined_score", "improvement",
                   "mask_recall", "mask_precision", "nfe"]
ECONOMY_MC_COLUMNS = ["quantity", "closed_form", "estimate", "stderr"]
BON_CURVE_COLUMNS = ["n", "repair_prob", "normalized_gain"]
REPORT_KEYS = {"kind", "config", "overrides", "warnings", "results"}

# At 5 standard errors a correct simulator fails one check in ~1.7 million.
MC_SIGMAS = 5.0


def scaling_nfe(cfg: dict, method: str, n: int) -> int:
    """Analytic NFE of one scaling row.

    best-of-N costs n * n_steps. Localized search with budget n runs
    seeds = n / (K + 1) base samples and K refinements of each (n = 1 is one
    plain sample): seeds * n_steps + seeds * K * (n_refine + n_integrate).
    """
    n_steps = cfg["schedule"]["n_steps"]
    if method == "best_of_n":
        return n * n_steps
    k = cfg["search"]["refinements"]
    seeds, refinements = (1, 0) if n == 1 else (n // (k + 1), k)
    resample = cfg["resample"]
    return seeds * n_steps + seeds * refinements * (resample["n_refine"] + resample["n_integrate"])


def testbed_nfe(cfg: dict) -> int:
    """Analytic NFE of one testbed trial: one base sample plus one refinement."""
    resample = cfg["resample"]
    return cfg["schedule"]["n_steps"] + resample["n_refine"] + resample["n_integrate"]


def operation_nfe(cfg: dict) -> int:
    """Analytic oracle evaluations of one whole experiment with this config."""
    if cfg["kind"] == "scaling":
        per_trial = (sum(scaling_nfe(cfg, "localized", n) for n in cfg["search"]["n_grid"])
                     + scaling_nfe(cfg, "best_of_n", max(cfg["search"]["bon_grid"])))
        return per_trial * cfg["trials"]
    if cfg["kind"] == "testbed":
        return testbed_nfe(cfg) * cfg["trials"]
    return 0


def closed_forms(cfg: dict) -> dict[str, float]:
    """Expected tp, selected, fp and per-trial gains of the patch economy."""
    econ, mask = cfg["economy"], cfg["mask_stats"]
    defects, clean = econ["defects"], econ["m_patches"] - econ["defects"]
    tp = mask["recall"] * defects
    selected = tp / mask["precision"]
    fp = selected - tp
    return {
        "tp": tp,
        "selected": selected,
        "fp": fp,
        "gain_global": (defects * econ["repair_prob_global"] * econ["repair_gain"]
                        - clean * econ["harm_prob_global"] * econ["harm_loss"]),
        "gain_local": (tp * econ["repair_prob_local"] * econ["repair_gain"]
                       - fp * econ["harm_prob_local"] * econ["harm_loss"]),
    }


def check_operation(cfg: dict, out_dir: Path) -> list[str]:
    """Return every problem found in out_dir for an experiment run on cfg;
    an empty list means the output is correct."""
    out_dir = Path(out_dir)
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"report.json: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return [f"report.json: expected keys {sorted(REPORT_KEYS)}"]
    problems = []
    if report["kind"] != cfg["kind"]:
        problems.append(f"report.json: kind {report['kind']!r}, expected {cfg['kind']!r}")
    if report["config"].get("master_seed") != cfg["master_seed"]:
        problems.append("report.json: config.master_seed differs from the input")
    checker = {"scaling": _check_scaling, "testbed": _check_testbed,
               "theory": _check_theory}[cfg["kind"]]
    try:
        problems += checker(cfg, report["results"], out_dir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems.append(f"{cfg['kind']}: malformed output: {exc!r}")
    return problems


def read_csv(path: Path, columns: list[str]) -> list[dict[str, str]]:
    """Rows of a CSV file whose header must equal ``columns``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != columns:
        raise ValueError(f"{path.name}: header {rows[0] if rows else None}, expected {columns}")
    body = rows[1:]
    for row in body:
        if len(row) != len(columns):
            raise ValueError(f"{path.name}: row {row} has {len(row)} cells, expected {len(columns)}")
    return [dict(zip(columns, row)) for row in body]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_scaling(cfg: dict, results: dict, out_dir: Path) -> list[str]:
    problems = []
    rows = read_csv(out_dir / "scaling.csv", SCALING_COLUMNS)
    expected = ([("localized", n) for n in cfg["search"]["n_grid"]]
                + [("best_of_n", n) for n in cfg["search"]["bon_grid"]])
    got = [(row["method"], int(row["n"])) for row in rows]
    if got != expected:
        problems.append(f"scaling.csv: rows {got}, expected {expected}")
    for row in rows:
        label = f"scaling.csv {row['method']} n={row['n']}"
        nfe = scaling_nfe(cfg, row["method"], int(row["n"]))
        if int(row["nfe"]) != nfe:
            problems.append(f"{label}: nfe {row['nfe']}, analytic {nfe}")
        if not (math.isfinite(float(row["mean_score"])) and math.isfinite(float(row["stderr"]))
                and float(row["stderr"]) >= 0):
            problems.append(f"{label}: non-finite score or stderr")
        if int(row["trials"]) != cfg["trials"]:
            problems.append(f"{label}: trials {row['trials']}, expected {cfg['trials']}")
    report_rows = [(r["method"], r["n"], r["nfe"]) for r in results["rows"]]
    csv_rows = [(row["method"], int(row["n"]), int(row["nfe"])) for row in rows]
    if report_rows != csv_rows:
        problems.append("report.json rows differ from scaling.csv")
    if results["trials"] != cfg["trials"]:
        problems.append(f"report.json: trials {results['trials']}, expected {cfg['trials']}")
    return problems


def _check_testbed(cfg: dict, results: dict, out_dir: Path) -> list[str]:
    problems = []
    nfe = testbed_nfe(cfg)
    if results["nfe_per_trial"] != nfe:
        problems.append(f"report.json: nfe_per_trial {results['nfe_per_trial']}, analytic {nfe}")
    for key in ("mean_improvement", "stderr_improvement", "mean_mask_recall",
                "mean_mask_precision", "positive_fraction", "sign_test_p_greater"):
        if not _finite(results[key]):
            problems.append(f"report.json: {key} is not a finite number")
    rows = read_csv(out_dir / "trials.csv", TESTBED_COLUMNS)
    if [int(row["trial"]) for row in rows] != list(range(cfg["trials"])):
        problems.append(f"trials.csv: expected trials 0..{cfg['trials'] - 1}")
    for row in rows:
        label = f"trials.csv trial {row['trial']}"
        if int(row["nfe"]) != nfe:
            problems.append(f"{label}: nfe {row['nfe']}, analytic {nfe}")
        scores = [float(row[key]) for key in ("anchor_score", "refined_score", "improvement")]
        if not all(math.isfinite(score) for score in scores):
            problems.append(f"{label}: non-finite score")
        for key in ("mask_recall", "mask_precision"):
            if not 0.0 <= float(row[key]) <= 1.0:
                problems.append(f"{label}: {key} {row[key]} outside [0, 1]")
    return problems


def _check_theory(cfg: dict, results: dict, out_dir: Path) -> list[str]:
    problems = []
    mc = results["monte_carlo"]
    if mc["trials"] != cfg["theory"]["mc_trials"]:
        problems.append(f"monte_carlo.trials {mc['trials']}, expected {cfg['theory']['mc_trials']}")
    for name, expected in closed_forms(cfg).items():
        mean, se = mc[f"{name}_mean"], mc[f"{name}_se"]
        if not (_finite(mean) and _finite(se) and se > 0):
            problems.append(f"monte_carlo.{name}: mean {mean!r} or stderr {se!r} not usable")
        elif abs(mean - expected) > MC_SIGMAS * se:
            problems.append(f"monte_carlo.{name}: mean {mean} is "
                            f"{abs(mean - expected) / se:.1f} standard errors from {expected}")
    rows = read_csv(out_dir / "economy_mc.csv", ECONOMY_MC_COLUMNS)
    if len(rows) != 5 or not all(math.isfinite(float(row["estimate"])) for row in rows):
        problems.append("economy_mc.csv: expected 5 rows with finite estimates")
    curve = read_csv(out_dir / "bon_curve.csv", BON_CURVE_COLUMNS)
    if [int(row["n"]) for row in curve] != list(range(1, cfg["theory"]["bon_n_max"] + 1)):
        problems.append(f"bon_curve.csv: expected n = 1..{cfg['theory']['bon_n_max']}")
    return problems
