"""Quality-contrast attention masking.

Reduces raw spatial attention tensors to per-position fields, contrasts the
low-quality-prompt field against the high-quality one, smooths the signals
with a row-stochastic similarity matrix, reweights with the original-prompt
foreground prior, and thresholds the result into a binary defect mask with
an exact target cardinality. The attention documents are read by the config
module; this one writes only a mask's document (mask_to_document).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check

Grid = tuple[int, int]


def _as_grid(grid) -> Grid:
    """grid as (rows, cols); ValueError unless it holds exactly two positive integers."""
    dims = tuple(grid)
    if len(dims) != 2 or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                                 and n >= 1 for n in dims):
        raise ValueError(f"grid must be two positive integers, got {grid!r}")
    return (int(dims[0]), int(dims[1]))


@dataclass(frozen=True)
class QualityMap:
    """Signed per-position quality signal (differences are allowed)."""

    values: np.ndarray
    grid: Grid

    _NAME = "quality map"

    def __post_init__(self):
        grid = _as_grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        size = grid[0] * grid[1]
        if values.ndim != 1 or values.size != size:
            raise ValueError(f"{self._NAME} must be a flat vector of length {size} for grid "
                             f"{grid}, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self._NAME} contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid", grid)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AttentionField(QualityMap):
    """Non-negative spatial attention mass, one value per grid position: a
    quality map with no negative value."""

    _NAME = "attention field"

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values < 0):
            raise ValueError("attention field values must be non-negative")


@dataclass(frozen=True)
class AttentionBundle:
    """Origin / positive-prompt / negative-prompt fields on one grid."""

    orig: AttentionField
    pos: AttentionField
    neg: AttentionField

    def __post_init__(self):
        if not (self.orig.grid == self.pos.grid == self.neg.grid):
            raise ValueError(
                "bundle fields must share one grid, got "
                f"{self.orig.grid}, {self.pos.grid}, {self.neg.grid}"
            )

    @property
    def grid(self) -> Grid:
        return self.orig.grid


def mask_cardinality(ratio: float, size: int) -> int:
    """Number of selected positions for a target area ratio.

    ceil(ratio * size), with a snap-to-integer guard so exact fractions such
    as s/S are not pushed up by floating-point drift.
    """
    raw = ratio * size
    nearest = round(raw)
    if abs(raw - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(raw))


@dataclass(frozen=True)
class DefectMask:
    """Binary selection over the grid with an exact target cardinality.

    The ratio domain is [0, 1]: 0 encodes the empty mask and 1 the full mask
    (``mask_from_indices`` of [] and of range(S)), both boundary cases of the
    resampling operations. ``threshold_mask`` itself only accepts ratios in (0, 1).
    """

    bits: np.ndarray
    ratio: float
    grid: Grid

    def __post_init__(self):
        grid = _as_grid(self.grid)
        bits = np.asarray(self.bits)
        size = grid[0] * grid[1]
        if bits.ndim != 1 or bits.size != size:
            raise ValueError(f"mask bits must have length {size}, got shape {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("mask bits must be 0/1")
        bits = bits.astype(np.uint8)
        ratio = float(self.ratio)
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"mask ratio must lie in [0, 1], got {ratio}")
        expected = mask_cardinality(ratio, size)
        actual = int(bits.sum())
        if actual != expected:
            raise ValueError(
                f"mask has {actual} set bits but ratio {ratio} over {size} "
                f"positions requires exactly {expected}"
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "grid", grid)

    @property
    def size(self) -> int:
        return self.bits.size

    @property
    def selected(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def _mask_rows(bits, grid) -> np.ndarray:
    """(rows, size) 0/1 mask bits as a uint8 copy, checked as one array."""
    size, bits = math.prod(_as_grid(grid)), np.asarray(bits)
    if bits.shape[1:] != (size,) or not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"mask rows must be 0/1 bits of length {size}")
    return bits.astype(np.uint8)


def mask_from_indices(grid, indices) -> DefectMask:
    """Build a mask selecting exactly the given integer patch indices ([] selects none)."""
    grid = _as_grid(grid)
    given = np.asarray(indices)
    if given.size and given.dtype.kind in "bfc":  # floats would truncate, booleans read as 0/1
        raise ValueError(f"mask indices must be integers, got {given.dtype} values")
    [bits] = _indicators([indices], grid[0] * grid[1])
    return DefectMask(bits=bits, ratio=int(bits.sum()) / bits.size, grid=grid)


def _indicators(index_sets, size: int) -> np.ndarray:
    """(rows, size) uint8 bits, row i set at index_sets[i], in one scatter."""
    if any(indices is None for indices in index_sets):
        raise ValueError("a mask of a defect set needs the ground-truth defect set, got None")
    sets = [np.asarray(indices, dtype=int).ravel() for indices in index_sets]
    flat = np.concatenate([np.empty(0, dtype=int), *sets])
    if flat.size and (flat.min() < 0 or flat.max() >= size):
        raise ValueError("mask indices out of range")
    bits = np.zeros((len(sets), size), dtype=np.uint8)
    bits[np.repeat(np.arange(len(sets)), [len(indices) for indices in sets]), flat] = 1
    return bits


def reduce_attention(raw: np.ndarray, grid) -> AttentionField:
    """Average a [layers, heads, tokens, positions] tensor into a spatial field.

    All provided layers, heads, and tokens are weighted equally; selecting
    which layers to feed in is the caller's responsibility.
    """
    raw = np.asarray(raw, dtype=float)
    grid = _as_grid(grid)
    if raw.ndim != 4:
        raise ValueError(f"raw attention must have 4 axes, got shape {raw.shape}")
    if min(raw.shape) == 0:
        raise ValueError(f"raw attention has an empty axis: shape {raw.shape}")
    if raw.shape[-1] != grid[0] * grid[1]:
        raise ValueError(
            f"raw attention has {raw.shape[-1]} positions but grid {grid} "
            f"requires {grid[0] * grid[1]}"
        )
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw attention contains non-finite values")
    if np.any(raw < 0):
        raise ValueError("raw attention must be non-negative")
    return AttentionField(values=raw.mean(axis=(0, 1, 2)), grid=grid)


def _softmax_rows(queries: np.ndarray) -> np.ndarray:
    """(..., S, S) row-softmax of the inner products of (..., S, d) queries over sqrt(d)."""
    weights = queries @ np.swapaxes(queries, -1, -2)
    weights /= math.sqrt(queries.shape[-1])
    # max-subtraction so exp never overflows
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def mask_rules(weight: float, ratio: float) -> list:
    """The (passed, name, message) rules of the mask kernel's foreground weight and area
    ratio, raised through check; TrialSettings and validate_config report them too."""
    return [(weight >= 0, "weight", f"must be non-negative, got {weight}"),
            (0.0 < ratio < 1.0, "ratio", f"must lie strictly inside (0, 1), got {ratio}")]


def queries_rules(count: int, size: int) -> list:
    """The rule that count queries, one per field position, fit a field of size
    positions (validate_config reports it at maskgen)."""
    return [(count == size, "queries",
             f"propagation matrix size {count} does not match field size {size}")]


def build_propagation(queries: np.ndarray) -> np.ndarray:
    """(S, S) propagation weights of S queries: _softmax_rows, as the engine's masks
    build them (inner products that overflow give a non-finite quality in _mask_bits)."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2:
        raise ValueError(f"queries must be a 2-D matrix, got shape {queries.shape}")
    if queries.shape[1] < 1:
        raise ValueError("query dimension must be at least 1")
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain non-finite values")
    return _softmax_rows(queries)


def _top_bits(values: np.ndarray, ratio: float) -> np.ndarray:
    """uint8 bits selecting the ceil(ratio * S) largest of S values along the last axis,
    ratio checked by its caller."""
    # stable sort on the negated values: descending by value, ascending index on ties
    order = np.argsort(-values, axis=-1, kind="stable")
    bits = np.zeros(values.shape, dtype=np.uint8)
    np.put_along_axis(bits, order[..., :mask_cardinality(ratio, values.shape[-1])], 1, axis=-1)
    return bits


def threshold_mask(quality: QualityMap, ratio: float) -> DefectMask:
    """Select exactly ceil(ratio * S) positions with the largest values.

    Ties are broken by ascending index so the mask cardinality is
    deterministic even for constant maps.
    """
    check(mask_rules(0.0, ratio))  # no foreground prior: only the ratio's rule can fail
    return DefectMask(bits=_top_bits(quality.values, ratio), ratio=ratio, grid=quality.grid)


def _mask_bits(orig: np.ndarray, pos: np.ndarray, neg: np.ndarray, weights: np.ndarray | None,
               weight: float, ratio: float) -> np.ndarray:
    """The one mask kernel, run by the engine's batched rows and by mask_gen
    with or without queries: fields (rows, S) and each row's propagation
    weights (rows, S, S), or None for no propagation, to (rows, S) bits:
    the contrast neg - pos, propagated, plus weight times the propagated origin
    field, then the top ratio of each row."""
    check(mask_rules(weight, ratio))
    diff = neg - pos
    if weights is not None:
        diff, orig = ((weights @ field[..., None])[..., 0] for field in (diff, orig))
    # convex combinations of the non-negative origin field dip below zero only through
    # rounding; clamp those
    quality = diff + weight * np.maximum(orig, 0.0)
    if not np.all(np.isfinite(quality)):
        raise ValueError("mask quality contains non-finite values")
    return _top_bits(quality, ratio)


def mask_gen(bundle: AttentionBundle, queries: np.ndarray | None, weight: float,
             ratio: float) -> DefectMask:
    """Full mask pipeline as a batch of one (_mask_bits): contrast, smooth with
    the propagation weights of the queries (none without queries), add the
    weighted origin field, threshold. Deterministic given its inputs."""
    weights = None if queries is None else build_propagation(queries)[None]
    if weights is not None:
        check(queries_rules(weights.shape[-1], bundle.orig.size))
    fields = (field.values[None] for field in (bundle.orig, bundle.pos, bundle.neg))
    bits = _mask_bits(*fields, weights, weight, ratio)[0]
    return DefectMask(bits=bits, ratio=ratio, grid=bundle.grid)


def mask_to_document(mask: DefectMask) -> dict:
    """The JSON document of a mask: its grid, ratio and 0/1 bits."""
    return {
        "grid": [mask.grid[0], mask.grid[1]],
        "ratio": mask.ratio,
        "bits": [int(b) for b in mask.bits],
    }
