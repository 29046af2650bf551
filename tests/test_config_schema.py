"""Every key that the config schema gives a JSON shape rejects a value of the
wrong shape, and reports it at that key's own dotted path."""
import json
import math
from pathlib import Path

import pytest

from localtts.config import _SCHEMA, _SECTIONS_BY_KIND, ConfigError, validate_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {"theory": "theory_worked.json", "testbed": "testbed_small.json",
           "scaling": "scaling_default.json", "maskgen": "maskgen_example.json"}
MASK_SOURCES = ("bundle", "raw")


def keys(table, path=None, shaped=True):
    """(dotted path, spec) of every key of a schema table, nested tables and
    the first item of a list of objects included, that has a shape (or, with
    shaped=False, that has none)."""
    for key, spec in table.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from keys(spec, where, shaped)
        elif (spec[0] is not None) == shaped:
            yield where, spec
        if isinstance(spec, tuple) and isinstance(spec[0], dict):
            yield from keys(spec[0], f"{where}[0]", shaped)


def base_config(path: str) -> dict:
    """A shipped config of a kind that reads the key at path; a maskgen source
    under test replaces the shipped bundle, so the run keeps one source."""
    section = path.split(".")[0] if "." in path else None
    kind = next(kind for kind, sections in _SECTIONS_BY_KIND.items()
                if section is None or section in sections)
    raw = json.loads((CONFIGS / SHIPPED[kind]).read_text())
    if section == "maskgen" and path.split(".")[1] in MASK_SOURCES:
        del raw["maskgen"]["bundle"]
    return raw


def set_key(raw: dict, path: str, value) -> None:
    *parents, leaf = path.replace("[0]", ".0").split(".")
    for part in parents:
        raw = raw[int(part)] if part.isdigit() else raw.setdefault(part, {})
    raw[leaf] = value


def wrong_values(shape, default: tuple) -> list:
    """A value of another JSON type, null unless the key is nullable, 2.0 for
    an integer, and NaN."""
    values = [[] if shape in ("object", "object or file") else {}, math.nan]
    if default != (None,):
        values.append(None)
    if shape in ("integer", "integers"):
        values.append(2.0 if shape == "integer" else [2.0])
    return values


def test_only_keys_with_their_own_rule_have_no_shape():
    assert [path for path, _ in keys(_SCHEMA, shaped=False)] == [
        "kind", "search.reference_n", "theory.repair_dist.kind", "theory.harm_dist.kind"]


@pytest.mark.parametrize("path, spec", [pytest.param(*key, id=key[0]) for key in keys(_SCHEMA)])
def test_wrong_shape_is_reported_at_the_key(path, spec):
    shape, *default = spec
    for value in wrong_values(shape, tuple(default)):
        raw = base_config(path)
        set_key(raw, path, value)
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        errors = info.value.errors
        assert errors and all(error.startswith(f"{path}: ") for error in errors), (value, errors)
