"""Quality-contrast attention masking.

Reduces raw spatial attention tensors to per-position fields, contrasts the
low-quality-prompt field against the high-quality one, smooths the signals
with a row-stochastic similarity matrix, reweights with the original-prompt
foreground prior, and thresholds the result into a binary defect mask with
an exact target cardinality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldErrors, check

Grid = tuple[int, int]

_ROW_SUM_TOL = 1e-9

BUNDLE_FIELDS = ("orig", "pos", "neg")


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


@dataclass(frozen=True)
class PropagationMatrix:
    """Row-stochastic similarity matrix used to smooth spatial signals."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"propagation matrix must be square, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("propagation matrix contains non-finite values")
        if np.any(rows < 0):
            raise ValueError("propagation matrix entries must be non-negative")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"propagation rows must sum to 1 (max deviation {worst:g})")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]


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

    The ratio domain is [0, 1]: 0 encodes the empty mask and 1 the full
    mask, both of which appear as boundary cases of the resampling
    operations. ``threshold_mask`` itself only accepts ratios in (0, 1).
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

    @classmethod
    def rows(cls, bits: np.ndarray, grid) -> list["DefectMask"]:
        """A mask per row of (rows, size) 0/1 bits at ratio count / size, checked as one array."""
        grid, bits = _as_grid(grid), np.asarray(bits)
        if bits.shape[1:] != (grid[0] * grid[1],) or not np.all((bits == 0) | (bits == 1)):
            raise ValueError(f"mask rows must be 0/1 bits of length {grid[0] * grid[1]}")
        masks = [object.__new__(cls) for _ in range(len(bits))]
        for mask, row, count in zip(masks, bits.astype(np.uint8), bits.sum(axis=1).tolist()):
            mask.__dict__.update(bits=row, ratio=count / bits.shape[1], grid=grid)
        return masks

    @property
    def size(self) -> int:
        return self.bits.size

    @property
    def selected(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def mask_from_indices(grid, indices) -> DefectMask:
    """Build a mask selecting exactly the given patch indices."""
    grid = _as_grid(grid)
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


def empty_mask(grid) -> DefectMask:
    grid = _as_grid(grid)
    return DefectMask(bits=np.zeros(grid[0] * grid[1], dtype=np.uint8), ratio=0.0, grid=grid)


def full_mask(grid) -> DefectMask:
    grid = _as_grid(grid)
    return DefectMask(bits=np.ones(grid[0] * grid[1], dtype=np.uint8), ratio=1.0, grid=grid)


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


def contrastive_difference(bundle: AttentionBundle) -> QualityMap:
    """Negative-prompt minus positive-prompt attention; high where the
    low-quality prompt attends more strongly."""
    return QualityMap(values=bundle.neg.values - bundle.pos.values, grid=bundle.grid)


def _softmax_rows(queries: np.ndarray) -> np.ndarray:
    """(..., S, S) row-softmax of the inner products of (..., S, d) queries over sqrt(d)."""
    weights = queries @ np.swapaxes(queries, -1, -2)
    weights /= math.sqrt(queries.shape[-1])
    # max-subtraction so exp never overflows
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def build_propagation(queries: np.ndarray) -> PropagationMatrix:
    """Row-softmax of query inner products, scaled by 1/sqrt(d)."""
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2:
        raise ValueError(f"queries must be a 2-D matrix, got shape {queries.shape}")
    if queries.shape[1] < 1:
        raise ValueError("query dimension must be at least 1")
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain non-finite values")
    return PropagationMatrix(rows=_softmax_rows(queries))


def propagate(matrix: PropagationMatrix, field):
    """Diffuse a field or quality map across related positions: out = rows @ values.

    The output has the same kind as the input; row-stochastic rows make each
    output entry a convex combination of the input.
    """
    if matrix.size != field.size:
        raise ValueError(
            f"propagation matrix size {matrix.size} does not match field size {field.size}"
        )
    smoothed = matrix.rows @ field.values
    if isinstance(field, AttentionField):
        # convex combinations of non-negative values can dip below zero only
        # through rounding; clamp those
        return AttentionField(values=np.maximum(smoothed, 0.0), grid=field.grid)
    return QualityMap(values=smoothed, grid=field.grid)


def _reweighted(diff: np.ndarray, orig: np.ndarray, weight: float) -> np.ndarray:
    if weight < 0:
        raise ValueError(f"foreground weight must be non-negative, got {weight}")
    return diff + weight * orig


def reweight(diff: QualityMap, orig: AttentionField, weight: float) -> QualityMap:
    """Add the foreground prior: diff + weight * orig."""
    if diff.grid != orig.grid:
        raise ValueError(f"grid mismatch: {diff.grid} vs {orig.grid}")
    return QualityMap(values=_reweighted(diff.values, orig.values, weight), grid=diff.grid)


def _top_bits(values: np.ndarray, ratio: float) -> np.ndarray:
    """uint8 bits selecting the ceil(ratio * S) largest of S values along the last axis."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie strictly inside (0, 1), got {ratio}")
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
    return DefectMask(bits=_top_bits(quality.values, ratio), ratio=ratio, grid=quality.grid)


def _mask_bits(orig: np.ndarray, pos: np.ndarray, neg: np.ndarray, weights: np.ndarray | None,
               weight: float, ratio: float) -> np.ndarray:
    """The one mask kernel, run by the engine's batched rows and by mask_gen
    with or without queries: fields (rows, S) and each row's propagation
    weights (rows, S, S), or None for no propagation, to (rows, S) bits."""
    diff = neg - pos
    if weights is not None:
        diff, orig = ((weights @ field[..., None])[..., 0] for field in (diff, orig))
    # the origin field clamped as propagate clamps it
    quality = _reweighted(diff, np.maximum(orig, 0.0), weight)
    if not np.all(np.isfinite(quality)):
        raise ValueError("mask quality contains non-finite values")
    return _top_bits(quality, ratio)


def mask_gen(bundle: AttentionBundle, queries: np.ndarray | None, weight: float,
             ratio: float) -> DefectMask:
    """Full mask pipeline as a batch of one: contrast, propagate (none
    without queries), reweight, threshold. Deterministic given its inputs."""
    matrix = None if queries is None else build_propagation(queries)
    if matrix is not None and matrix.size != bundle.orig.size:
        raise ValueError(f"propagation matrix size {matrix.size} does not match "
                         f"field size {bundle.orig.size}")
    fields = (field.values[None] for field in (bundle.orig, bundle.pos, bundle.neg))
    bits = _mask_bits(*fields, None if matrix is None else matrix.rows[None], weight, ratio)[0]
    return DefectMask(bits=bits, ratio=ratio, grid=bundle.grid)


# ---------------------------------------------------------------------------
# JSON interchange documents
# ---------------------------------------------------------------------------

def _check_document(doc, path: str, integers: tuple, numbers: tuple) -> None:
    """FieldErrors at path.key for each unknown or missing key of an
    interchange document (its grid, integers and numbers), each integer that
    is not a JSON integer (true is not one) and each list not of JSON numbers."""
    if not isinstance(doc, dict):
        raise FieldErrors([f"{path}: expected an object, got {type(doc).__name__}"])
    keys = ("grid", *integers, *numbers)
    check([(key in keys, f"{path}.{key}", "unknown key") for key in doc]
          + [(key in doc, path, f"missing key '{key}'") for key in keys]
          + [(type(doc[key]) is int, f"{path}.{key}", f"expected an integer, got {doc[key]!r}")
             for key in integers if key in doc]
          + [(isinstance(doc[key], list) and all(type(v) in (int, float) for v in doc[key]),
              f"{path}.{key}", f"expected a list of numbers, got {doc[key]!r}")
             for key in numbers if key in doc])


def field_from_raw_document(doc: dict, path: str = "raw") -> AttentionField:
    """Parse {"grid", "layers", "heads", "tokens", "data"} at path into a field.

    "data" is the flat row-major [layers, heads, tokens, positions] tensor.
    Every broken rule is reported at its key, as FieldErrors.
    """
    counts = ("layers", "heads", "tokens")
    _check_document(doc, path, counts, ("data",))
    try:
        grid, grid_error = _as_grid(doc["grid"]), None
    except (TypeError, ValueError) as exc:  # TypeError: a grid that is not a list
        grid, grid_error = (0, 0), exc  # no positions, so no data length to check
    shape = (*(doc[key] for key in counts), grid[0] * grid[1])
    data = np.asarray(doc["data"], dtype=float)
    check([(grid_error is None, f"{path}.grid", str(grid_error)),
           *((doc[key] >= 1, f"{path}.{key}", f"must be positive, got {doc[key]}")
             for key in counts),
           (min(shape) < 1 or data.size == math.prod(shape), f"{path}.data",
            f"has {data.size} entries, expected {math.prod(shape)}")])
    try:
        return reduce_attention(data.reshape(shape), grid)
    except ValueError as exc:  # the shape holds, so a value of the data
        raise FieldErrors([f"{path}.data: {exc}"]) from None


def bundle_from_document(doc: dict, path: str = "bundle") -> AttentionBundle:
    """Parse {"grid", "orig", "pos", "neg"} at path into a bundle; FieldErrors at each key."""
    _check_document(doc, path, (), BUNDLE_FIELDS)
    try:
        grid = _as_grid(doc["grid"])
    except (TypeError, ValueError) as exc:  # TypeError: a grid that is not a list
        raise FieldErrors([f"{path}.grid: {exc}"]) from None
    fields, rules = {}, []
    for key in BUNDLE_FIELDS:  # every field's error, reported with the others
        try:
            fields[key] = AttentionField(values=np.asarray(doc[key], dtype=float), grid=grid)
        except (OverflowError, ValueError) as exc:  # OverflowError: an integer no float holds
            rules.append((False, f"{path}.{key}", str(exc)))
    check(rules)
    return AttentionBundle(**fields)


def mask_to_document(mask: DefectMask) -> dict:
    return {
        "grid": [mask.grid[0], mask.grid[1]],
        "ratio": mask.ratio,
        "bits": [int(b) for b in mask.bits],
    }
