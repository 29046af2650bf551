"""Experiment configuration: defaults, deep-merge, and JSON-shape checks.

One JSON document configures a run. This module merges defaults, checks what
only the JSON shows, and builds the experiment objects. Every value it
type-checks has a shape in ``_SHAPES`` and is read by ``_read``: an object
rejects unknown keys, an integer key takes a JSON integer only (not 2.0 or
true), and a key whose default is null may be null. A range rule on a value
that an object holds lives in that object's type; this module reports each
broken rule at its dotted JSON path and itself checks ranges only for the
values no type holds (the run-level keys, search.reference_n and the theory
options). Validation is exhaustive rather than fail-fast, so a bad config can
be fixed in one pass. Keys may be overridden from the command line; the
resolved document (defaults applied, overrides recorded) is embedded in
every report so results are self-describing.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import FieldErrors
from .resample import ResampleConfig
from .search import SweepSettings, TrialSettings
from .testbed import CosineSchedule, PatchWorld
from .theory import MaskStats, PatchEconomy, ValueDistribution

KINDS = ("theory", "testbed", "scaling", "maskgen")


class ConfigError(Exception):
    """Raised when a configuration cannot be validated or resolved."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


DEFAULTS: dict[str, Any] = {
    "kind": None,
    "master_seed": 0,
    "trials": 200,
    "workers": 1,
    "world": {
        "grid": [4, 4],
        "patch_dim": 2,
        "components": [{"weight": 1.0, "mean": 0.0, "variance": 0.09}],
        "verifier_weights": None,
    },
    "schedule": {"horizon": 1.0, "n_steps": 32},
    "resample": {"t0": 0.4, "t_g": 0.04, "n_refine": 16, "n_integrate": 2},
    "search": {
        "seeds": 3,
        "refinements": 2,
        "n_grid": [1, 3, 6, 9],
        "bon_grid": [1, 3, 6, 9, 12, 15, 18, 24, 30, 36, 45],
        "reference_n": None,
    },
    "defects": {"count": 3, "magnitude": 0.6, "randomize": True},
    "attention": {
        "gain_pos": 0.3,
        "gain_neg": 0.3,
        "noise_sd": 0.2,
        "weight": 0.5,
        "ratio": 0.5,
        "oracle_masks": False,
    },
    "economy": {
        "m_patches": 100,
        "defects": 10,
        "repair_gain": 1.0,
        "harm_loss": 0.5,
        "repair_prob_global": 0.5,
        "repair_prob_local": 0.5,
        "harm_prob_global": 0.1,
        "harm_prob_local": 0.1,
        "cost_global": 1.0,
        "cost_local": 1.0,
        "budget": 1.0,
    },
    "mask_stats": {"recall": 0.8, "precision": 0.8},
    "theory": {
        "mc_trials": 100000,
        "bon_repair_prob_one": 0.5,
        "bon_n_max": 50,
        "repair_dist": {"kind": "constant"},
        "harm_dist": {"kind": "constant"},
    },
    "maskgen": {
        "bundle": None,
        "bundle_path": None,
        "raw": None,
        "raw_paths": None,
        "queries": None,
        "queries_path": None,
        "weight": 0.5,
        "ratio": 0.5,
    },
}

# workers is a runtime knob, not an experiment parameter: results are
# worker-count independent, so it stays out of the resolved document and the
# recorded overrides, and report bodies are byte-identical across worker counts.
RUNTIME_KEYS = ("workers",)

_SECTIONS_BY_KIND = {
    "theory": ("economy", "mask_stats", "theory"),
    "testbed": ("world", "schedule", "resample", "defects", "attention"),
    "scaling": ("world", "schedule", "resample", "search", "defects", "attention"),
    "maskgen": ("maskgen",),
}

# JSON shape of each value this module type-checks, by section (None: run level)
_SHAPES = {
    None: {"master_seed": "integer", "trials": "integer", "workers": "integer"},
    "world": {"grid": "integers", "patch_dim": "integer", "components": "list",
              "verifier_weights": "numbers"},
    "world.components": {"weight": "number", "mean": "vector", "variance": "number"},
    "schedule": {"horizon": "number", "n_steps": "integer"},
    "resample": {"t0": "number", "t_g": "number", "n_refine": "integer",
                 "n_integrate": "integer"},
    "defects": {"count": "integer", "magnitude": "number", "randomize": "boolean"},
    "attention": {"gain_pos": "number", "gain_neg": "number", "noise_sd": "number",
                  "weight": "number", "ratio": "number", "oracle_masks": "boolean"},
    "search": {"refinements": "integer", "n_grid": "integers", "bon_grid": "integers"},
    "economy": {"m_patches": "integer", "defects": "integer",
                **dict.fromkeys(("repair_gain", "harm_loss", "repair_prob_global",
                                 "repair_prob_local", "harm_prob_global",
                                 "harm_prob_local", "cost_global", "cost_local",
                                 "budget"), "number")},
    "mask_stats": {"recall": "number", "precision": "number"},
    "theory": {"mc_trials": "integer", "bon_repair_prob_one": "number",
               "bon_n_max": "integer"},
    "maskgen": {"bundle": "object", "bundle_path": "path", "raw": "object",
                "raw_paths": "object", "queries": "list", "queries_path": "path",
                "weight": "number", "ratio": "number"},
}
# the one list of numbers, world.verifier_weights, defaults to null
_EXPECTED = {"number": "a number", "integer": "an integer", "boolean": "a boolean",
             "integers": "a list of integers", "numbers": "null or a list of numbers",
             "vector": "a number or a list of numbers", "object": "an object",
             "path": "a path", "list": "a list"}

# a component's keys: weight and variance have no default, mean defaults to 0.0
_COMPONENT = {"weight": None, "mean": 0.0, "variance": None}

# trial-settings field -> its dotted path in the config document
_SETTINGS_PATHS = {
    "defect_count": "defects.count", "defect_magnitude": "defects.magnitude",
    "randomize_defects": "defects.randomize", "gain_pos": "attention.gain_pos",
    "gain_neg": "attention.gain_neg", "noise_sd": "attention.noise_sd",
    "mask_weight": "attention.weight", "mask_ratio": "attention.ratio",
    "oracle_masks": "attention.oracle_masks", "refinements": "search.refinements",
    "n_grid": "search.n_grid", "bon_grid": "search.bon_grid",
}


@dataclass
class ExperimentConfig:
    """A validated experiment: resolved document plus constructed objects."""

    kind: str
    master_seed: int
    trials: int
    workers: int
    resolved: dict
    warnings: list[str] = field(default_factory=list)
    settings: Optional[TrialSettings] = None
    economy: Optional[PatchEconomy] = None
    mask_stats: Optional[MaskStats] = None
    theory_options: dict = field(default_factory=dict)
    maskgen: dict = field(default_factory=dict)


def _merge_section(defaults: dict, user: Any, path: str, errors: list[str]) -> dict:
    merged = copy.deepcopy(defaults)
    if user is None:
        return merged
    if not isinstance(user, dict):
        errors.append(f"{path}: expected an object, got {type(user).__name__}")
        return merged
    for key, value in user.items():
        if key not in defaults:
            errors.append(f"{path}.{key}: unknown key")
            continue
        merged[key] = copy.deepcopy(value)
    return merged


def _is_number(value: Any) -> bool:
    """Whether value is a JSON number (a boolean is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(value: Any, shape: str):
    """value converted to its shape's Python type, or None if the JSON value
    does not have that shape. A number is finite and fits a float; an integer
    is a JSON int that fits a float. The numbers of a list of numbers or a
    vector pass as given: the world checks them."""
    fits = _is_number(value) and abs(value) <= sys.float_info.max
    if shape == "number":
        return float(value) if fits else None
    if shape == "integer":
        return value if fits and isinstance(value, int) else None
    if shape == "boolean":
        return value if isinstance(value, bool) else None
    if shape == "integers":
        items = [_typed(item, "integer") for item in value] if isinstance(value, list) else [None]
        return None if None in items else tuple(items)
    if shape == "numbers":
        return value if isinstance(value, list) and all(map(_is_number, value)) else None
    if shape == "vector":
        return value if _is_number(value) else _typed(value, "numbers")
    return value if isinstance(value, {"object": dict, "path": str, "list": list}[shape]) else None


def _read(doc: dict, path: Optional[str], shapes: dict, errors: list[str]) -> Optional[dict]:
    """The typed value of every key in shapes, or None if any has the wrong
    shape. A key whose default in DEFAULTS[path] is None may be null."""
    nullable = {key for key, default in DEFAULTS.get(path, {}).items() if default is None}
    values = {}
    for key, shape in shapes.items():
        value = doc.get(key)
        if value is None and key in nullable:
            values[key] = None
        elif (typed := _typed(value, shape)) is not None:
            values[key] = typed
        else:
            errors.append(f"{path + '.' if path else ''}{key}: expected {_EXPECTED[shape]}, "
                          f"got {value!r}")
    return values if len(values) == len(shapes) else None


def _build(cls, kwargs: Optional[dict], path: str, errors: list[str]):
    """cls(**kwargs), or None after recording each broken rule at path.field."""
    if kwargs is None:
        return None
    try:
        return cls(**kwargs)
    except FieldErrors as exc:
        errors.extend(f"{path}.{error}" for error in exc.errors)
    except (OverflowError, ValueError) as exc:  # OverflowError: an integer no float holds
        errors.append(f"{path}: {exc}")
    return None


def _section(cls, section: str, docs: dict, errors: list[str]):
    """cls built from a section whose keys are its fields, or None."""
    return _build(cls, _read(docs[section], section, _SHAPES[section], errors),
                  section, errors)


def _build_world(doc: dict, errors: list[str]) -> Optional[PatchWorld]:
    values = _read(doc, "world", _SHAPES["world"], errors)
    specs = []
    for i, comp in enumerate(_typed(doc["components"], "list") or []):
        path = f"world.components[{i}]"
        typed = _read(_merge_section(_COMPONENT, comp, path, errors), path,
                      _SHAPES["world.components"], errors)
        if typed is not None:
            specs.append((typed["weight"], typed["mean"], typed["variance"]))
    if values is None or len(specs) != len(values["components"]):
        return None
    return _build(PatchWorld.uniform, {**values, "components": specs}, "world", errors)


def _build_settings(kind: str, docs: dict, errors: list[str]) -> Optional[TrialSettings]:
    """The trial settings of a testbed or scaling run. A world, schedule or
    resample section that fails its own checks is passed as None, so the
    remaining rules are still reported."""
    kwargs = {
        "world": _build_world(docs["world"], errors),
        "schedule": _section(CosineSchedule, "schedule", docs, errors),
        "resample": _section(ResampleConfig, "resample", docs, errors),
    }
    sections = [s for s in ("defects", "attention", "search") if s in docs]
    typed = {s: _read(docs[s], s, _SHAPES[s], errors) for s in sections}
    if None in typed.values():
        return None
    for name, path in _SETTINGS_PATHS.items():
        section, key = path.split(".")
        if section in typed:
            kwargs[name] = typed[section][key]
    try:
        return (SweepSettings if kind == "scaling" else TrialSettings)(**kwargs)
    except FieldErrors as exc:
        for error in exc.errors:
            name, _, message = error.partition(": ")
            errors.append(f"{_SETTINGS_PATHS.get(name, name)}: {message}")
    return None


def validate_config(raw: dict) -> ExperimentConfig:
    """Resolve defaults and validate every field; raises ConfigError with the
    complete list of violations (dotted JSON paths) on failure."""
    errors: list[str] = []
    warnings: list[str] = []
    if _typed(raw, "object") is None:
        raise ConfigError(["config: expected a JSON object"])
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"kind: expected one of {list(KINDS)}, got {kind!r}"])
    for key in raw:
        if key not in DEFAULTS:
            errors.append(f"{key}: unknown key")

    if "master_seed" not in raw and kind != "maskgen":
        warnings.append("master_seed missing; defaulted to 0")
    run = {key: raw.get(key, DEFAULTS[key]) for key in _SHAPES[None]}
    if _read(run, None, _SHAPES[None], errors):
        seed, trials, workers = run.values()
        errors.extend(f"{key}: {message}" for passed, key, message in [
            (0 <= seed < 2 ** 64, "master_seed", f"must fit in 64 bits, got {seed}"),
            (trials >= 1, "trials", f"must be at least 1, got {trials}"),
            (trials >= 2 or kind != "scaling", "trials",
             "scaling needs at least 2 trials for standard errors"),
            (workers >= 1, "workers", f"must be at least 1, got {workers}"),
        ] if not passed)
    resolved = {"kind": kind, "master_seed": run["master_seed"], "trials": run["trials"]}
    cfg = ExperimentConfig(kind=kind, resolved=resolved, warnings=warnings, **run)
    docs = {}
    for section in _SECTIONS_BY_KIND[kind]:
        docs[section] = resolved[section] = _merge_section(
            DEFAULTS[section], raw.get(section), section, errors)

    if kind in ("testbed", "scaling"):
        cfg.settings = _build_settings(kind, docs, errors)

    if kind == "scaling":
        doc = docs["search"]
        n_grid = _typed(doc["n_grid"], "integers")
        if n_grid and doc["reference_n"] is None:
            doc["reference_n"] = max(n_grid)
        elif n_grid and _typed(doc["reference_n"], "integer") not in n_grid:
            errors.append(f"search.reference_n: must be a value from n_grid, "
                          f"got {doc['reference_n']!r}")

    if kind == "theory":
        cfg.economy = _section(PatchEconomy, "economy", docs, errors)
        cfg.mask_stats = _section(MaskStats, "mask_stats", docs, errors)
        doc = docs["theory"]
        opts = _read(doc, "theory", _SHAPES["theory"], errors) or {}
        if opts:
            mc, p_one, n_max = opts["mc_trials"], opts["bon_repair_prob_one"], opts["bon_n_max"]
            errors.extend(f"theory.{key}: {message}" for passed, key, message in [
                (mc >= 0, "mc_trials", f"must be non-negative, got {mc}"),
                (0.0 < p_one < 1.0, "bon_repair_prob_one", f"must lie in (0, 1), got {p_one}"),
                (n_max >= 1, "bon_n_max", f"must be at least 1, got {n_max}"),
            ] if not passed)
        for name in ("repair_dist", "harm_dist"):  # the mean is the economy's
            path = f"theory.{name}"
            doc[name] = _merge_section(DEFAULTS["theory"][name], doc[name], path, errors)
            opts[name] = _build(ValueDistribution, doc[name], path, errors)
        cfg.theory_options = opts

    if kind == "maskgen":
        doc = docs["maskgen"]
        # weight and ratio ranges are checked by the mask pipeline (reweight,
        # threshold_mask); run_maskgen reports a broken one as a config error
        _read(doc, "maskgen", _SHAPES["maskgen"], errors)
        sources = [key for key in ("bundle", "bundle_path", "raw", "raw_paths")
                   if doc.get(key) is not None]
        if len(sources) != 1:
            errors.append(
                "maskgen: exactly one attention source is required "
                "(bundle, bundle_path, raw, or raw_paths)"
            )
        cfg.maskgen = doc

    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str | Path, overrides: Optional[list[str]] = None
                ) -> tuple[ExperimentConfig, list[str]]:
    """Read a JSON config, apply key=value overrides, and validate.

    Override values are parsed as JSON where possible (so 0.25, true, and
    [1,2] work) and fall back to plain strings.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError([f"config: file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    applied = []
    for item in overrides or []:
        if _typed(raw, "object") is None:
            break  # validate_config rejects the document
        if "=" not in item:
            raise ConfigError([f"--set: expected key=value, got {item!r}"])
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError([f"--set {key}: path collides with a scalar"])
        target[parts[-1]] = value
        if key not in RUNTIME_KEYS:
            applied.append(f"{key}={text}")
    cfg = validate_config(raw)
    return cfg, applied
