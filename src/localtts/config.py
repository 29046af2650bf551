"""Experiment configuration: one schema, deep-merge, and JSON-shape checks.

One JSON document configures a run. ``_SCHEMA`` gives every key of every
object in it a default and a JSON shape; ``DEFAULTS`` is derived from it. This
module merges the document over the defaults, checks what only the JSON
shows, and builds the experiment objects. ``_read`` reads every key with a
shape: an integer key takes a JSON integer only (not 2.0 or true), a key whose
default is null may be null and a key with no default is required. An object
rejects unknown keys and a run rejects a section its kind does not read. A
range rule on a value that an object holds lives in that object's type, and one on
a kernel's argument beside the kernel (attention.mask_rules and queries_rules,
theory.bon_rules, which caps theory.bon_n_max). This module reports each broken rule
at its dotted JSON path and itself implements only the rules of the run-level keys,
theory.mc_trials, search.reference_n and the Monte Carlo's caps (the value means that
keep its sums finite; economy.m_patches when it draws per-patch values, MAX_MC_PATCHES,
which bounds its workspace). The maskgen documents (a bundle,
raw attention tensors, queries), inline or in the file each names relative to
base_dir, are read by the same reader against their own tables (_BUNDLE, _TENSOR)
whatever the number of sources given, and built into mask_gen's inputs here, so
validation is exhaustive and a bad config can be fixed in one pass. The resolved
document (defaults applied, command-line overrides recorded) is embedded in every report.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .attention import (AttentionBundle, AttentionField, _as_grid, mask_rules, queries_rules,
                        reduce_attention)
from .errors import FieldErrors
from .resample import ResampleConfig
from .search import SearchConfig, SweepSettings, TrialSettings
from .testbed import CosineSchedule, PatchWorld
from .theory import MaskStats, PatchEconomy, ValueDistribution, bon_rules

KINDS = ("theory", "testbed", "scaling", "maskgen")


class ConfigError(Exception):
    """Raised when a configuration cannot be validated or resolved."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# Every key of every object in the config document, nested as the document
# is: (JSON shape, default), or (shape,) for a required key; a null default
# makes a key nullable. A nested table is an object merged key by key (a
# section, a value distribution); a table as the shape is a list of such
# objects. A key whose shape is None is read by its own rule.
_SCHEMA: dict[str, Any] = {
    "kind": (None, None), "master_seed": ("integer", 0), "trials": ("integer", 200),
    "workers": ("integer", 1),
    "world": {"grid": ("integers", [4, 4]), "patch_dim": ("integer", 2),
              "components": ({"weight": ("number",), "mean": ("vector", 0.0),
                              "variance": ("number",)},
                             [{"weight": 1.0, "mean": 0.0, "variance": 0.09}]),
              "verifier_weights": ("null or numbers", None)},
    "schedule": {"horizon": ("number", 1.0), "n_steps": ("integer", 32)},
    "resample": {"t0": ("number", 0.4), "t_g": ("number", 0.04), "n_refine": ("integer", 16),
                 "n_integrate": ("integer", 2)},
    "search": {"seeds": ("integer", 3), "refinements": ("integer", 2),
               "n_grid": ("integers", [1, 3, 6, 9]),
               "bon_grid": ("integers", [1, 3, 6, 9, 12, 15, 18, 24, 30, 36, 45]),
               "reference_n": (None, None)},
    "defects": {"count": ("integer", 3), "magnitude": ("number", 0.6),
                "randomize": ("boolean", True)},
    "attention": {"gain_pos": ("number", 0.3), "gain_neg": ("number", 0.3),
                  "noise_sd": ("number", 0.2), "weight": ("number", 0.5),
                  "ratio": ("number", 0.5), "oracle_masks": ("boolean", False)},
    "economy": {"m_patches": ("integer", 100), "defects": ("integer", 10),
                "repair_gain": ("number", 1.0), "harm_loss": ("number", 0.5),
                "repair_prob_global": ("number", 0.5), "repair_prob_local": ("number", 0.5),
                "harm_prob_global": ("number", 0.1), "harm_prob_local": ("number", 0.1),
                "cost_global": ("number", 1.0), "cost_local": ("number", 1.0),
                "budget": ("number", 1.0)},
    "mask_stats": {"recall": ("number", 0.8), "precision": ("number", 0.8)},
    # a distribution is a kind only (ValueDistribution checks it): its mean is the economy's
    "theory": {"mc_trials": ("integer", 100000), "bon_repair_prob_one": ("number", 0.5),
               "bon_n_max": ("integer", 50),
               **dict.fromkeys(("repair_dist", "harm_dist"), {"kind": (None, "constant")})},
    # bundle, each entry of raw (_RAW) and queries: the JSON value, or a string naming the
    # JSON file that holds it, relative to the config's directory (read by _mask_inputs)
    "maskgen": {"bundle": ("object or file", None), "raw": ("object", None),
                "queries": ("list or file", None), "weight": ("number", 0.5),
                "ratio": ("number", 0.5)},
}
BUNDLE_FIELDS, _COUNTS = ("orig", "pos", "neg"), ("layers", "heads", "tokens")
_RAW = {key: ("object or file",) for key in BUNDLE_FIELDS}
# the maskgen documents, each grid read by attention._as_grid: a bundle of three fields,
# and a raw attention tensor, its data the flat row-major [layers, heads, tokens, positions]
_BUNDLE = {"grid": (None,), **{key: ("numbers",) for key in BUNDLE_FIELDS}}
_TENSOR = {"grid": (None,), **{key: ("integer",) for key in _COUNTS}, "data": ("numbers",)}


def _defaults(table: dict) -> dict:
    """The default of every key of a schema table that has one."""
    return {key: _defaults(spec) if isinstance(spec, dict) else spec[1]
            for key, spec in table.items() if isinstance(spec, dict) or len(spec) == 2}


DEFAULTS: dict[str, Any] = _defaults(_SCHEMA)

# workers is a runtime knob, not an experiment parameter: results are
# worker-count independent, so it stays out of the resolved document and the
# recorded overrides, and report bodies are byte-identical across worker counts.
RUNTIME_KEYS = ("workers",)

_SECTIONS_BY_KIND = {"theory": ("economy", "mask_stats", "theory"), "maskgen": ("maskgen",),
                     "testbed": ("world", "schedule", "resample", "defects", "attention"),
                     "scaling": ("world", "schedule", "resample", "search", "defects", "attention")}

_EXPECTED = {"number": "a number", "integer": "an integer", "boolean": "a boolean",
             "integers": "a list of integers", "numbers": "a list of numbers",
             "null or numbers": "null or a list of numbers",
             "vector": "a number or a list of numbers", "object": "an object", "list": "a list",
             "object or file": "an object or a file name", "list or file": "a list or a file name"}

# trial-settings field -> its dotted path in the config document
_SETTINGS_PATHS = {
    "defect_count": "defects.count", "defect_magnitude": "defects.magnitude",
    "randomize_defects": "defects.randomize", "gain_pos": "attention.gain_pos",
    "gain_neg": "attention.gain_neg", "noise_sd": "attention.noise_sd",
    "mask_weight": "attention.weight", "mask_ratio": "attention.ratio",
    "oracle_masks": "attention.oracle_masks", "refinements": "search.refinements",
    "n_grid": "search.n_grid", "bon_grid": "search.bon_grid",
}

# caps: a run builds each trial's seed (0.4 kB) before its first trial, the Monte
# Carlo a result (1 kB) per 4,096-trial chunk, kept until the merge; a worker is a process
MAX_TRIALS, MAX_MC_TRIALS, MAX_WORKERS = 1 << 16, 10 ** 8, 64
# a Monte Carlo that draws per-patch values (a value kind that is not constant) keeps, in
# each process, a float value and a boolean selection a patch on the 4,096 rows of a chunk
# and the 512 rows of a slab of scratch: 9 * 4,608 = 41,472 B a patch, under 1 GiB at the cap
MAX_MC_PATCHES = 25_000


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


def _merge_section(table: dict, user: Any, path: Optional[str], errors: list[str]) -> dict:
    """The defaults of a schema table with user's keys over them; a nested
    table's object is merged in turn. Each unknown key is reported, then each
    required key the user leaves out. The default of a key the user leaves out
    is copied; the user's values are not (validate_config copies the document)."""
    if user is not None and not isinstance(user, dict):
        errors.append(f"{path}: expected an object, got {type(user).__name__}")
    user = user if isinstance(user, dict) else {}
    # the defaults' keys in their order, then the keys only the user gives
    merged = dict.fromkeys(key for key, spec in table.items()
                           if isinstance(spec, dict) or len(spec) == 2)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in table:
            errors.append(f"{where}: unknown key")
        elif isinstance(table[key], dict):
            merged[key] = _merge_section(table[key], value, where, errors)
        else:
            merged[key] = value
    errors.extend(f"{path}: missing key '{key}'" for key in table if key not in merged)
    for key in merged.keys() - user.keys():
        spec = table[key]
        merged[key] = (_merge_section(spec, None, None, errors) if isinstance(spec, dict)
                       else copy.deepcopy(spec[1]))
    return merged


def _is_number(value: Any) -> bool:
    """Whether value is a JSON number (a boolean is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(value: Any, shape: str):
    """value converted to its shape's Python type, or None if the JSON value
    does not have that shape. A number is finite and fits a float; an integer
    is a JSON int that fits a float. The numbers of a list of numbers and the
    integer of a vector pass as given: the world checks them."""
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
    if shape.endswith("numbers"):  # "null or numbers" too: _read takes a null first
        return value if isinstance(value, list) and all(map(_is_number, value)) else None
    if shape == "vector":
        return value if fits or type(value) is int else _typed(value, "numbers")
    if shape.endswith(" or file"):
        return value if isinstance(value, str) else _typed(value, shape.split()[0])
    return value if isinstance(value, {"object": dict, "list": list}[shape]) else None


def _read(doc: dict, path: Optional[str], table: dict, errors: list[str]) -> Optional[dict]:
    """The typed value of every key of a schema table that has a shape, or
    None if any has the wrong shape. Each item of a list of objects is merged
    and read with the list's own table."""
    shaped = {key: spec for key, spec in table.items()
              if isinstance(spec, tuple) and spec[0] is not None}
    values = {}
    for key, (shape, *default) in shaped.items():
        where, value = f"{path}.{key}" if path else key, doc.get(key)
        items, shape = (shape, "list") if isinstance(shape, dict) else (None, shape)
        if value is None and default == [None]:
            values[key] = None
        elif key not in doc:  # a required key, reported missing by _merge_section
            pass
        elif (typed := _typed(value, shape)) is None:
            errors.append(f"{where}: expected {_EXPECTED[shape]}, got {value!r}")
        elif items is None:
            values[key] = typed
        else:
            typed = [_read(_merge_section(items, item, f"{where}[{i}]", errors), f"{where}[{i}]",
                           items, errors) for i, item in enumerate(typed)]
            if None not in typed:
                values[key] = typed
    return values if len(values) == len(shaped) else None


def _report(rules: list, where: str, errors: list[str]) -> None:
    """Record each broken (passed, name, message) rule as 'where: message', the {} of
    where filled with the rule's name (a where with no {} is the path of every rule)."""
    errors.extend(f"{where.format(name)}: {message}" for passed, name, message in rules
                  if not passed)


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
    return _build(cls, _read(docs[section], section, _SCHEMA[section], errors), section, errors)


def _build_world(doc: dict, errors: list[str]) -> Optional[PatchWorld]:
    values = _read(doc, "world", _SCHEMA["world"], errors)
    if values is None:
        return None
    specs = [(comp["weight"], comp["mean"], comp["variance"]) for comp in values["components"]]
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
    typed = {s: _read(docs[s], s, _SCHEMA[s], errors) for s in sections}
    if None in typed.values():
        return None
    if kind == "scaling":  # the sweep ignores search.seeds, but it keeps SearchConfig's rules
        _build(SearchConfig, {key: typed["search"][key] for key in ("seeds", "refinements")},
               "search", errors)
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


def _mask_inputs(doc: dict, base_dir: Optional[Path], errors: list[str]) -> dict:
    """mask_gen's keyword arguments from the maskgen section. Every document given is
    read as a section is, whatever the number of sources: merged and read against its
    table, its grid by attention._as_grid, then built with the attention types. The
    queries are rows of numbers of one positive length, one row per field position.
    Every broken rule is recorded at its key; a broken input is None."""
    def parse(build, value, where: str, table: Optional[dict] = None):
        shape = "object" if table else "list"
        try:  # a value of the wrong JSON shape is _read's
            if _typed(value, f"{shape} or file") is None:
                return None
            value, where = read_document(value, where, base_dir, shape)
        except ConfigError as exc:
            errors.extend(exc.errors)
            return None
        count = len(errors)  # a document with a key of the wrong name or shape is not built
        if table:
            _read(_merge_section(table, value, where, errors), where, table, errors)
        return build(value, where) if len(errors) == count else None

    def grid(value: dict, where: str):
        try:
            return _as_grid(value["grid"])
        except (TypeError, ValueError) as exc:  # TypeError: a grid that is not a list
            errors.append(f"{where}.grid: {exc}")

    def assemble(fields: dict):  # _build reports fields on two grids at maskgen
        return _build(AttentionBundle, None if None in fields.values() else fields, "maskgen",
                      errors)

    def bundle(value: dict, where: str):
        dims = grid(value, where)
        return assemble({key: dims and _build(AttentionField, {"values": value[key], "grid": dims},
                                              f"{where}.{key}", errors) for key in BUNDLE_FIELDS})

    def tensor(value: dict, where: str):
        count = len(errors)
        dims = grid(value, where) or (0, 0)  # no positions, so no data length to check
        shape = (*(value[key] for key in _COUNTS), math.prod(dims))
        errors.extend(f"{where}.{key}: must be positive, got {value[key]}" for key in _COUNTS
                      if value[key] < 1)
        if min(shape) >= 1 and len(value["data"]) != math.prod(shape):
            errors.append(f"{where}.data: has {len(value['data'])} entries, "
                          f"expected {math.prod(shape)}")
        if len(errors) == count:
            return _build(reduce_attention, {"raw": np.reshape(value["data"], shape), "grid": dims},
                          f"{where}.data", errors)

    def rows(value: list, where: str):  # each entry read the way a number key is
        if any(not isinstance(row, list) or None in [_typed(x, "number") for x in row]
               for row in value):
            errors.append(f"{where}: expected a list of lists of numbers, got {value!r}")
        elif len(lengths := {len(row) for row in value}) > 1 or 0 in lengths:
            errors.append(f"{where}: expected rows of one positive length, got row lengths "
                          f"{sorted(lengths)}")
        else:
            return value

    if isinstance(doc["raw"], dict):
        _read(_merge_section(_RAW, doc["raw"], "maskgen.raw", errors), "maskgen.raw", _RAW, errors)
    one_source = [doc["bundle"], doc["raw"]].count(None) == 1
    if not one_source:  # each document given is read all the same
        errors.append("maskgen: exactly one attention source is required (bundle or raw)")
    attention = parse(bundle, doc["bundle"], "maskgen.bundle", _BUNDLE)
    if isinstance(doc["raw"], dict):
        attention = assemble({key: parse(tensor, doc["raw"].get(key), f"maskgen.raw.{key}",
                                         _TENSOR) for key in BUNDLE_FIELDS})
    queries = parse(rows, doc["queries"], "maskgen.queries")
    if one_source and None not in (attention, queries):
        _report(queries_rules(len(queries), attention.orig.size), "maskgen", errors)
    return {"bundle": attention, "queries": queries, "weight": doc["weight"], "ratio": doc["ratio"]}


def validate_config(raw: dict, base_dir: Optional[Path] = None) -> ExperimentConfig:
    """Resolve defaults and validate every field; raises ConfigError with the
    complete list of violations (dotted JSON paths) on failure. A maskgen file
    name is read relative to base_dir (None: the working directory)."""
    errors: list[str] = []
    warnings: list[str] = []
    if _typed(raw, "object") is None:
        raise ConfigError(["config: expected a JSON object"])
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"kind: expected one of {list(KINDS)}, got {kind!r}"])
    merged = _merge_section(_SCHEMA, copy.deepcopy(raw), None, errors)
    sections = _SECTIONS_BY_KIND[kind]
    errors.extend(f"{key}: not read by a {kind} run" for key in raw
                  if isinstance(_SCHEMA.get(key), dict) and key not in sections)

    if "master_seed" not in raw and kind != "maskgen":
        warnings.append("master_seed missing; defaulted to 0")
    run = _read(merged, None, _SCHEMA, errors)
    if run:
        seed, trials, workers = run["master_seed"], run["trials"], run["workers"]
        _report([
            (0 <= seed < 2 ** 64, "master_seed", f"must fit in 64 bits, got {seed}"),
            (trials >= 1, "trials", f"must be at least 1, got {trials}"),
            (trials <= MAX_TRIALS, "trials", f"must be at most {MAX_TRIALS}, got {trials}"),
            (trials >= 2 or kind != "scaling", "trials",
             "scaling needs at least 2 trials for standard errors"),
            (workers >= 1, "workers", f"must be at least 1, got {workers}"),
            (workers <= MAX_WORKERS, "workers", f"must be at most {MAX_WORKERS}, got {workers}"),
        ], "{}", errors)
    resolved = {key: merged[key] for key in ("kind", "master_seed", "trials", *sections)}
    cfg = ExperimentConfig(kind=kind, resolved=resolved, warnings=warnings,
                           **{key: merged[key] for key in ("master_seed", "trials", "workers")})

    if kind in ("testbed", "scaling"):
        cfg.settings = _build_settings(kind, resolved, errors)

    if kind == "scaling":
        doc = resolved["search"]
        n_grid = _typed(doc["n_grid"], "integers")
        if n_grid and doc["reference_n"] is None:
            doc["reference_n"] = max(n_grid)
        elif n_grid and _typed(doc["reference_n"], "integer") not in n_grid:
            errors.append(f"search.reference_n: must be a value from n_grid, "
                          f"got {doc['reference_n']!r}")

    if kind == "theory":
        cfg.economy = _section(PatchEconomy, "economy", resolved, errors)
        cfg.mask_stats = _section(MaskStats, "mask_stats", resolved, errors)
        doc = resolved["theory"]
        opts = _read(doc, "theory", _SCHEMA["theory"], errors) or {}
        mc, m = opts.get("mc_trials") or 0, getattr(cfg.economy, "m_patches", 1)
        if opts:
            _report([(mc >= 0, "mc_trials", f"must be non-negative, got {mc}"),
                     (mc <= MAX_MC_TRIALS, "mc_trials",
                      f"must be at most {MAX_MC_TRIALS}, got {mc}")], "theory.{}", errors)
            _report(bon_rules(opts["bon_repair_prob_one"], opts["bon_n_max"]), "theory.bon_{}",
                    errors)
        # a Monte Carlo draw is below 45 means (numpy's standard exponential stays below 44.5),
        # so a trial's value spans under 45 m_patches means; merging a 4,096-trial chunk
        # multiplies that span squared by up to 4,096 mc_trials, which must stay finite
        cap = (sys.float_info.max / max(mc, 1)) ** 0.5 / (45 * 64) / m
        for name, mean in (("repair_dist", "repair_gain"), ("harm_dist", "harm_loss")):
            opts[name] = _build(ValueDistribution, doc[name], f"theory.{name}", errors)
            value = getattr(cfg.economy, mean, 0.0)  # no economy: it reports its own errors
            if mc > 0 and value > cap:
                errors.append(f"economy.{mean}: must be at most {cap!r} at {m} patches and {mc} "
                              f"Monte Carlo trials, got {value:g}")
        per_patch = any(opts[name] and opts[name].kind != "constant"
                        for name in ("repair_dist", "harm_dist"))
        if mc > 0 and per_patch and m > MAX_MC_PATCHES:
            errors.append(f"economy.m_patches: must be at most {MAX_MC_PATCHES} when the Monte "
                          f"Carlo draws per-patch values, got {m}")
        cfg.theory_options = opts

    if kind == "maskgen":
        doc = resolved["maskgen"]
        values = _read(doc, "maskgen", _SCHEMA["maskgen"], errors)
        if values:
            _report(mask_rules(values["weight"], values["ratio"]), "maskgen.{}", errors)
        cfg.maskgen = _mask_inputs(doc, base_dir, errors)

    if errors:  # a rule two types share is reported once
        raise ConfigError(dict.fromkeys(errors))
    return cfg


def read_document(value: Any, where: str, base_dir: Optional[Path], shape: str = "object"
                  ) -> tuple:
    """(value, where), or for a string the JSON document in the file it names (relative
    to base_dir) and where[file], the path its keys are reported at. ConfigError if the
    file cannot be read as JSON or its document does not have the shape shape."""
    if not isinstance(value, str):
        return value, where
    path = Path(base_dir or ".", value)
    try:
        value = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError([f"{where}: file not found: {path}"])
    except (OSError, ValueError) as exc:  # a directory, a file that is not UTF-8 or not JSON
        raise ConfigError([f"{where}: cannot read JSON from {path}: {exc}"])
    where = f"{where}[{path}]"
    if _typed(value, shape) is None:  # the rule the value written inline is held to
        raise ConfigError([f"{where}: expected {_EXPECTED[shape]}, got {value!r}"])
    return value, where


def load_config(path: str | Path, overrides: Optional[list[str]] = None
                ) -> tuple[ExperimentConfig, list[str]]:
    """Read a JSON config, apply key=value overrides, and validate.

    Override values are parsed as JSON where possible (so 0.25, true, and
    [1,2] work) and fall back to plain strings.
    """
    raw, _ = read_document(str(path), "config", None)
    applied = []
    for item in overrides or []:
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
    return validate_config(raw, Path(path).resolve().parent), applied
