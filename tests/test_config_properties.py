"""Generated configs: every mutation of a shipped config runs or names its field.

Each shipped config is mutated one key at a time: a wrong JSON type, null, 0,
-1, boundary values, large values below the caps, wrong list lengths, and an
unknown key in every object. Each mutation goes through validate_config and
run_experiment in-process (trials <= 3, mc_trials <= 4,096) and must succeed
with a valid JSON report, or raise InfeasibleParameterError, or raise
ConfigError whose every message starts with a dotted path of config.DEFAULTS
(or the config./results. prefix of the report scan); an unknown key must be
a ConfigError that names it. A fixed set of
mutations also runs at workers 1 and 2 and must write the same bytes.
"""
from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from localtts.config import DEFAULTS, ConfigError, validate_config
from localtts.harness import run_experiment
from localtts.theory import InfeasibleParameterError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# every run stays small: at most 3 trials and 4,096 Monte Carlo trials
SMALL = {"testbed_small.json": {"trials": 3}, "scaling_default.json": {"trials": 2},
         "theory_worked.json": {"theory.mc_trials": 4096}, "maskgen_example.json": {}}

# boundary and large values by key name, each below its cap and cheap to run;
# other integers get 1, 2 and 100, other numbers 1e-9, 0.5, 1.0 and 1e6
VALUES = {
    "master_seed": [2 ** 64 - 1, 2 ** 64], "trials": [1, 2, 3], "workers": [1, 2],
    "mc_trials": [1, 4096], "grid": [[1, 1], [32, 32], [33, 32], [4, 4, 4], [4]],
    "patch_dim": [1, 256], "n_steps": [1, 1000], "n_refine": [1, 1000],
    "bon_grid": [[1], [2000], [1, 1]], "n_grid": [[1], [3, 3], [30]],
    "ratio": [1e-9, 0.999, 1.0], "t0": [1.0, 1e-9], "t_g": [0.0, 0.4, 0.39],
    "m_patches": [1, 1000], "bon_n_max": [1, 1000], "kind": ["exponential", "uniform", "x"],
}


def dotted_paths(table: dict, prefix: str = ""):
    for key, value in table.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_paths(value, f"{prefix}{key}.")


PATHS = sorted(dotted_paths(DEFAULTS), key=len, reverse=True)


def names_a_field(message: str) -> bool:
    """Whether message starts with a dotted path of DEFAULTS (then ':', '.' or
    '[') or with the report scan's config./results. prefix. An unknown key
    names itself: its parent is the document or a path of DEFAULTS."""
    path, _, text = message.partition(": ")
    if text == "unknown key":
        path = path.rpartition(".")[0]
        if not path:
            return True
    return message.startswith(("config.", "results.")) or any(
        path.startswith(known) and path[len(known):len(known) + 1] in ("", ".", "[")
        for known in PATHS)


def base_config(name: str) -> dict:
    raw = json.loads((CONFIGS / name).read_text())
    for dotted, value in SMALL[name].items():
        set_key(raw, dotted.split("."), value)
    return raw


def set_key(doc, keys: list, value) -> None:
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = copy.deepcopy(value)


def leaves(doc, keys=()):
    """(keys, value) of every value of a document, objects and lists included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield [*keys, key], value
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and isinstance(value[0], dict)):
            yield from leaves(value, [*keys, key])


def values_for(key, value) -> list:
    """The mutations of one value: a wrong JSON type, null, 0 and -1 for every
    key, then boundary and large values by type and key name."""
    common = ["x", {}, None, 0, -1]
    if isinstance(value, dict):
        return [5, None, []]
    if isinstance(value, bool):
        return common + [not value, 1]
    if isinstance(value, list):  # wrong lengths and wrong items
        return common + [value[:-1], value + value[-1:], [], ["x"] * len(value), [None]]
    if isinstance(value, str):
        return common + VALUES.get(key, [])
    return common + VALUES.get(key, [1, 2, 100] if isinstance(value, int)
                               else [1e-9, 0.5, 1.0, 1e6])


def mutations(name: str):
    """(label, document) for each mutation of each key of a shipped config,
    its defaults written out, and an unknown key in each of its objects."""
    doc = {**validate_config(base_config(name)).resolved, "workers": 1}
    yield "bogus=1", {**copy.deepcopy(doc), "bogus": 1}
    for keys, value in leaves(doc):
        dotted = ".".join(map(str, keys))
        for candidate in values_for(keys[-1], value):
            raw = copy.deepcopy(doc)
            set_key(raw, keys, candidate)
            yield f"{dotted}={json.dumps(candidate)}", raw
        if isinstance(value, dict):
            raw = copy.deepcopy(doc)
            set_key(raw, [*keys, "bogus"], 1)
            yield f"{dotted}.bogus=1", raw


def run(raw: dict, out: Path):
    """The outcome of one config: 'ok', the ConfigError messages, or 'infeasible'."""
    try:
        run_experiment(validate_config(raw), out)
    except ConfigError as exc:
        return exc.errors
    except InfeasibleParameterError:
        return "infeasible"
    json.loads((out / "report.json").read_text(),
               parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    return "ok"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_mutation_runs_or_names_its_field(name, tmp_path):
    unnamed, counts = [], {"ok": 0, "error": 0, "infeasible": 0}
    for i, (label, raw) in enumerate(mutations(name)):
        try:
            outcome = run(raw, tmp_path / str(i))
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            pytest.fail(f"{name} {label}: {type(exc).__name__}: {exc}")
        if label.endswith("bogus=1"):  # every object rejects an unknown key, at its path
            assert isinstance(outcome, list) and any(
                message.endswith("bogus: unknown key") for message in outcome), (label, outcome)
        if isinstance(outcome, list):
            counts["error"] += 1
            assert outcome, f"{name} {label}: a config error with no message"
            unnamed += [f"{label}: {message}" for message in outcome
                        if not names_a_field(message)]
        else:
            counts[outcome] += 1
    assert not unnamed, f"{name}: messages naming no field: {unnamed}"
    assert counts["ok"] and counts["error"], counts  # the mutations reach both outcomes


# runs that succeed, each away from the shipped config in one key
DETERMINISM = [
    ("testbed_small.json", "world.patch_dim", 1),
    ("testbed_small.json", "attention.noise_sd", 0),
    ("testbed_small.json", "attention.oracle_masks", True),
    ("testbed_small.json", "defects.randomize", False),
    ("testbed_small.json", "master_seed", 2 ** 64 - 1),
    ("scaling_default.json", "search.refinements", 0),
    ("scaling_default.json", "schedule.n_steps", 1),
    ("scaling_default.json", "attention.ratio", 0.5),
    ("theory_worked.json", "mask_stats.precision", 1.0),
    ("theory_worked.json", "theory.repair_dist", {"kind": "exponential"}),
    ("maskgen_example.json", "maskgen.ratio", 0.5),
]


@pytest.mark.parametrize("name, dotted, value", DETERMINISM)
def test_worker_count_leaves_output_bytes_unchanged(name, dotted, value, tmp_path):
    outputs = []
    for workers in (1, 2):
        raw = base_config(name)
        set_key(raw, dotted.split("."), value)
        raw["workers"] = workers
        out = tmp_path / f"w{workers}"
        assert run(raw, out) == "ok"
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]
