"""Analytic patch-grid diffusion testbed.

Each patch of an (Hs x Ws) grid carries its own isotropic Gaussian-mixture
target. Because the forward process x_t = alpha(t) x_0 + sigma(t) z keeps
Gaussian mixtures Gaussian, the time-t marginal, its score, and the
posterior mean of the clean state are all available in closed form. The
oracle returns the posterior mean; on top of it the module provides:

  * an ancestral stochastic reverse sampler (the testbed's "plain" step),
  * a patch-additive verifier (weighted per-patch log-density at t = 0),
  * defect injection and synthetic attention generation so the mask
    pipeline can be exercised against known ground truth.

Every oracle evaluation increments an NFE counter on the predictor; batched
states (..., dim) count one per leading element, whichever patches it evaluates.
A sweep of reverse steps checks its state once, after its last step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import AttentionBundle, AttentionField, Grid, _as_grid, _indicators
from .errors import FieldErrors, check

_LOG_2PI = math.log(2.0 * math.pi)
_TIME_TOL = 1e-12


@dataclass(frozen=True)
class CosineSchedule:
    """Variance-preserving schedule alpha(t) = cos(pi t / 2T), sigma = sin.

    alpha(0) = 1 and sigma(0) = 0 exactly; alpha(T) vanishes to floating
    point roundoff and sigma(T) = 1. alpha^2 + sigma^2 = 1 identically.
    """

    horizon: float
    n_steps: int

    MAX_STEPS = 100_000  # a sweep's step grid and each row's noise are materialised

    def __post_init__(self):
        check([
            (self.horizon > 0, "horizon", f"must be positive, got {self.horizon}"),
            (self.n_steps >= 1, "n_steps", f"must be at least 1, got {self.n_steps}"),
            (self.n_steps <= self.MAX_STEPS, "n_steps",
             f"must be at most {self.MAX_STEPS}, got {self.n_steps:g}"),
        ])

    def _phase(self, t: float) -> float:
        return 0.5 * math.pi * t / self.horizon

    def alpha(self, t: float) -> float:
        return math.cos(self._phase(t))

    def sigma(self, t: float) -> float:
        return math.sin(self._phase(t))

    def check_time(self, t: float) -> float:
        if not -_TIME_TOL <= t <= self.horizon + _TIME_TOL:
            raise ValueError(f"time {t} outside schedule range [0, {self.horizon}]")
        return min(max(t, 0.0), self.horizon)

    def step_times(self) -> np.ndarray:
        """Uniform sampling grid from the horizon down to 0."""
        return np.linspace(self.horizon, 0.0, self.n_steps + 1)


def _world_grid(grid) -> Grid:
    """_as_grid, its rule reported at the world's grid field."""
    try:
        return _as_grid(grid)
    except ValueError as exc:
        raise FieldErrors([f"grid: {exc}"]) from None


@dataclass(frozen=True)
class PatchWorld:
    """Independent per-patch Gaussian-mixture targets with a weighted verifier.

    weights[j, k], means[j, k, :], variances[j, k] describe component k of
    patch j; variances are isotropic per component. verifier_weights are
    non-negative and sum to 1 (uniform by default). The arrays are read-only
    copies, so the oracle's component-major copies of them cannot drift.
    """

    grid: Grid
    patch_dim: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    verifier_weights: np.ndarray

    # one mask row's (S, S) weights stay within 8 MiB, one row's coordinates within 512 KiB
    MAX_PATCHES, MAX_DIM = 1024, 1 << 16

    @classmethod
    def _check_size(cls, m: int, d: int) -> None:
        """The caps on m patches of dim d, checked before any array of the world is built."""
        check([(m <= cls.MAX_PATCHES, "grid",
                f"must have at most {cls.MAX_PATCHES} patches, got {m}"),
               (m * d <= cls.MAX_DIM, "patch_dim",
                f"times {m} patches must be at most {cls.MAX_DIM}, got {m * d}")])

    def __post_init__(self):
        grid = _world_grid(self.grid)
        m = grid[0] * grid[1]
        d = int(self.patch_dim)
        self._check_size(m, d)
        weights = np.array(self.weights, dtype=float)
        means = np.array(self.means, dtype=float)
        variances = np.array(self.variances, dtype=float)
        vweights = np.array(self.verifier_weights, dtype=float)
        # the component count K and patch_dim fix every other shape
        check([
            (d >= 1, "patch_dim", f"must be at least 1, got {d}"),
            (weights.ndim == 2 and weights.shape[0] == m, "weights",
             f"must have shape ({m}, K), got {weights.shape}"),
        ])
        k = weights.shape[1]
        check([
            (means.shape == (m, k, d), "means",
             f"must have shape ({m}, {k}, {d}), got {means.shape}"),
            (variances.shape == (m, k), "variances",
             f"must have shape ({m}, {k}), got {variances.shape}"),
            (vweights.shape == (m,), "verifier_weights",
             f"must have shape ({m},), got {vweights.shape}"),
            (not np.any(weights < 0), "weights", "mixture weights must be non-negative"),
            (not np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-12), "weights",
             "mixture weights must sum to 1 within 1e-12 per patch"),
            (not np.any(variances <= 0), "variances", "mixture variances must be positive"),
            (not (np.any(vweights < 0) or abs(vweights.sum() - 1.0) > 1e-9),
             "verifier_weights", "verifier weights must be non-negative and sum to 1"),
            *((bool(np.isfinite(a).all()), name, "must be finite") for name, a in (
                ("weights", weights), ("means", means), ("variances", variances),
                ("verifier_weights", vweights))),
        ])
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "patch_dim", d)
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights.T)[:, None]
        # the oracle reads its constants component-major: means (K, d, 1, M), variances
        # and log-weights (K, 1, M), kept as private attributes that == does not compare
        for name, value in (("weights", weights), ("means", means), ("variances", variances),
                            ("verifier_weights", vweights), ("_log_weights", log_weights),
                            ("_means", means.transpose(1, 2, 0)[:, :, None]),
                            ("_variances", variances.T[:, None])):
            value = np.ascontiguousarray(value)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other):  # the declared fields, arrays by value
        return other.__class__ is self.__class__ and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __reduce__(self):  # unpickling runs __post_init__, so the copy is read-only too
        return PatchWorld, tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def uniform(cls, grid, patch_dim: int, components, verifier_weights=None) -> "PatchWorld":
        """Replicate one mixture spec over every patch.

        components: iterable of (weight, mean, variance); the mean may be a
        scalar (broadcast over the patch dimension) or a d-vector.
        """
        grid = _world_grid(grid)
        m = grid[0] * grid[1]
        d = int(patch_dim)
        cls._check_size(m, d)
        comp = list(components)
        check([(bool(comp), "components", "at least one mixture component is required")])
        weights = np.array([c[0] for c in comp], dtype=float)
        # a patch_dim below 1 is reported by __post_init__
        means = np.array(
            [np.broadcast_to(np.asarray(c[1], dtype=float), (max(d, 0),)) for c in comp]
        )
        variances = np.array([c[2] for c in comp], dtype=float)
        vw = np.full(m, 1.0 / m) if verifier_weights is None else verifier_weights
        return cls(
            grid=grid,
            patch_dim=d,
            weights=np.tile(weights, (m, 1)),
            means=np.tile(means, (m, 1, 1)),
            variances=np.tile(variances, (m, 1)),
            verifier_weights=vw,
        )

    @property
    def n_patches(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def dim(self) -> int:
        return self.n_patches * self.patch_dim

    def patch_view(self, x: np.ndarray) -> np.ndarray:
        """Reshape (..., dim) coordinates into (..., n_patches, patch_dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"state has {x.shape[-1]} coordinates, world needs {self.dim}")
        return x.reshape(*x.shape[:-1], self.n_patches, self.patch_dim)

    def select(self, bits: np.ndarray) -> tuple:
        """The oracle's patches argument for (..., n_patches) bits: the set bits'
        index into a patch_view, row-major, and the oracle's constants there."""
        index = np.nonzero(bits)
        return index, *(c[..., index[-1]] for c in (self._means, self._variances,
                                                     self._log_weights))

    def coordinate_mask(self, bits: np.ndarray) -> np.ndarray:
        """Broadcast (..., n_patches) per-patch bits over each patch's coordinates."""
        bits = np.asarray(bits)
        if bits.shape[-1:] != (self.n_patches,):
            raise ValueError(f"mask must have one bit per patch ({self.n_patches})")
        return np.repeat(bits.astype(bool), self.patch_dim, axis=-1)


@dataclass(frozen=True)
class LatentState:
    """A state vector (optionally batched along leading axes) at time t."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("latent state contains non-finite entries")
        if not self.t >= -_TIME_TOL:
            raise ValueError(f"latent time must be non-negative, got {self.t}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", max(float(self.t), 0.0))

    def row(self, i: int) -> "LatentState":
        """Row i of a batch that passed the finiteness check, as a view that
        is not scanned again."""
        state = object.__new__(LatentState)
        state.__dict__.update(x=self.x[i], t=self.t)
        return state


def _pairwise_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis`` (kept) in the order numpy's pairwise summation adds a
    contiguous last axis, so a leading-axis sum has the bits of a last-axis
    one: in sequence below 8 terms, else in 8 interleaved partial sums joined
    by a fixed tree and the rest in sequence (by halves above 128 terms)."""
    n = a.shape[axis]
    if n < 8:
        return a.sum(axis=axis, keepdims=True)
    if n > 128:
        lo, hi = np.split(a, [n // 2 - n // 2 % 8], axis=axis)
        return _pairwise_sum(lo, axis) + _pairwise_sum(hi, axis)
    terms = np.moveaxis(a, axis, 0)
    r = terms[:n - n % 8].reshape(n // 8, 8, *terms.shape[1:]).sum(axis=0)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return np.expand_dims(functools.reduce(np.add, terms[n - n % 8:], total), axis)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) over ``axis``, for rows with a finite maximum.

    Same algorithm, and so the same bits, as ``scipy.special.logsumexp``
    over the last axis: the maximal terms are split out of the sum, the rest
    is divided by their count, and log(count) and the maximum are added back.
    """
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    count = is_max.sum(axis=axis, keepdims=True, dtype=float)
    shifted = a - a_max
    shifted[is_max] = -np.inf
    rest = _pairwise_sum(np.exp(shifted, out=shifted), axis)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + a_max, axis)


def _columns(world: PatchWorld, x: np.ndarray, patches=None) -> tuple:
    """x's patches as contiguous (d, rows, P) columns and their constants
    (K, d, 1, P), (K, 1, P), (K, 1, P): all (P = M), or one row of the
    selected patches (PatchWorld.select)."""
    view = world.patch_view(x)
    if patches is None:
        columns = view.reshape(-1, world.n_patches, world.patch_dim).transpose(2, 0, 1)
        return np.ascontiguousarray(columns), world._means, world._variances, world._log_weights
    index, *constants = patches
    return np.ascontiguousarray(view[index].T)[:, None], *constants


def _oracle_terms(a: float, s2: float, xc: np.ndarray, means, variances, log_weights):
    """var_t, the centred (K, d, rows, P) terms (squared into a second array),
    and the per-component and per-column log-densities of the marginal with
    x_t = a x_0 + noise of variance s2 at the columns xc (_columns): component
    k is N(a mu_k, (a^2 s_k^2 + s2) I), the verifier's target at (1, 0).

    Each reduction runs over a leading axis with (rows, P) planes as its inner
    loop, adds in the order numpy sums a (..., M, K, d) array's last axis and
    reads one column, so the bits depend on neither the layout nor the other columns.
    """
    work = np.subtract(xc, a * means)                               # centred, (K, d, rows, P)
    var_t = a * a * variances + s2                                  # (K, 1, P)
    sq = _pairwise_sum(np.square(work), 1)[:, 0]                    # (K, rows, P)
    log_comp = log_weights - 0.5 * len(xc) * (np.log(var_t) + _LOG_2PI) - 0.5 * sq / var_t
    return var_t, work, log_comp, logsumexp(log_comp, axis=0)


def _posterior_sum(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float,
                   term, patches=None) -> np.ndarray:
    """Sum term(a, var_t, centered, means, variances), written over centered,
    by posterior responsibility: rows shaped like x, or (P, d) selected rows.

    Responsibilities are formed in log space so small densities never
    underflow before normalization. numpy sums a (..., M, K, d) array over K
    in sequence, or pairwise when d = 1 leaves K innermost; the same order
    keeps the bits.
    """
    t = schedule.check_time(t)
    a = schedule.alpha(t)
    _, means, variances, _ = columns = _columns(world, x, patches)
    var_t, work, log_comp, log_norm = _oracle_terms(a, schedule.sigma(t) ** 2, *columns)
    term(a, var_t[:, None], work, means, variances)
    resp = np.exp(np.subtract(log_comp, log_norm, out=log_comp), out=log_comp)
    np.multiply(resp[:, None], work, out=work)
    total = _pairwise_sum(work, 0)[0] if world.patch_dim == 1 else work.sum(axis=0)
    return total.transpose(1, 2, 0).reshape(np.shape(x)) if patches is None else total[:, 0].T


def log_density(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact log-density of the time-t marginal (summed over patches)."""
    t = schedule.check_time(t)
    log_norm = _oracle_terms(schedule.alpha(t), schedule.sigma(t) ** 2, *_columns(world, x))[-1]
    return log_norm.reshape(*np.shape(x)[:-1], world.n_patches).sum(axis=-1)


def gmm_score(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact score of the time-t marginal, evaluated per patch independently."""
    return _posterior_sum(world, schedule, x, t, lambda a, var_t, centered, *_:
                          np.divide(np.negative(centered, out=centered), var_t, out=centered))


def posterior_mean(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float,
                   patches=None) -> np.ndarray:
    """E[x_0 | x_t] of the time-t marginal, formed per component so it stays
    stable even where alpha(t) is at roundoff level; with patches
    (PatchWorld.select), only at the selected patches, as (P, d) rows."""
    return _posterior_sum(world, schedule, x, t, lambda a, var_t, c, means, variances: np.add(
        means, np.multiply(a * variances[:, None] / var_t, c, out=c), out=c), patches)


@dataclass
class NoisePredictor:
    """Closed-form denoiser oracle bound to a world and schedule: evaluate
    returns the posterior mean E[x_0 | x_t], the one quantity the samplers
    read. The ``nfe`` counter increases by one per evaluated state (batched
    calls count the batch size, with or without patches), which is the
    compute unit for budget matching.
    """

    world: PatchWorld
    schedule: CosineSchedule
    nfe: int = field(default=0)

    def _count(self, x: np.ndarray):
        self.nfe += math.prod(np.shape(x)[:-1])

    def evaluate(self, x: np.ndarray, t: float, patches=None) -> np.ndarray:
        mean = posterior_mean(self.world, self.schedule, x, t, patches)
        self._count(x)
        return mean


def forward_noise(schedule: CosineSchedule, state: LatentState, t: float, z: np.ndarray) -> LatentState:
    """Corrupt a clean state to time t: x_t = alpha(t) x_0 + sigma(t) z."""
    if abs(state.t) > _TIME_TOL:
        raise ValueError(f"forward_noise expects a state at t=0, got t={state.t}")
    t = schedule.check_time(t)
    z = np.asarray(z, dtype=float)
    if z.shape != state.x.shape:
        raise ValueError(f"noise shape {z.shape} does not match state shape {state.x.shape}")
    return LatentState(x=schedule.alpha(t) * state.x + schedule.sigma(t) * z, t=t)


class _RowNoise:
    """A generator's stand-in for a (rows, dim) batch whose row i draws only
    from rngs[i], so a batched run equals a one-at-a-time run. Each row draws
    the slices its phase declares in one call (the same bits and generator
    state as one (dim,) call per slice); each standard_normal call takes the
    next (rows, dim) slice. Drawing past the declared count, or check_spent
    with slices unused, raises: a change to a phase's steps cannot shift
    bits unnoticed."""

    def __init__(self, rngs, draws: int, dim: int):
        self._buf = np.empty((len(rngs), draws, dim))
        for rng, row in zip(rngs, self._buf):
            rng.standard_normal(out=row)
        self._used = 0

    def standard_normal(self, shape: tuple) -> np.ndarray:
        rows, draws, dim = self._buf.shape
        if tuple(shape) != (rows, dim) or self._used == draws:
            raise RuntimeError(f"noise of shape {tuple(shape)} drawn after {self._used} of the "
                               f"{draws} ({rows}, {dim}) noise slices its phase declared")
        self._used += 1
        return self._buf[:, self._used - 1]

    def check_spent(self, phase: str) -> None:
        if self._used != self._buf.shape[1]:
            raise RuntimeError(f"{phase} phase drew {self._used} of the {self._buf.shape[1]} "
                               f"noise slices it declared")


def _ancestral_update(predictor: NoisePredictor, x: np.ndarray, t: float, s: float,
                      rng: np.random.Generator, patches=None, rows=None) -> tuple:
    """Draw x_s from the ancestral posterior q(x_s | x_t, x_0) with x_0 the
    oracle's posterior mean at t (one NFE per row); returns the draw and the
    standard-normal noise it used. With patches, the draw moves rows, the
    selected (P, d) rows, which x holds at those patches."""
    denoised = predictor.evaluate(x, t, patches)
    sched = predictor.schedule
    a_t, s_t = sched.alpha(t), sched.sigma(t)
    a_s, s_s = sched.alpha(s), sched.sigma(s)
    ratio = a_t / a_s
    var_ts = max(s_t * s_t - ratio * ratio * s_s * s_s, 0.0)
    coef_x = ratio * (s_s * s_s) / (s_t * s_t)
    coef_x0 = a_s * var_ts / (s_t * s_t)
    noise_std = math.sqrt(var_ts * (s_s * s_s) / (s_t * s_t))
    z = rng.standard_normal(x.shape)
    xs, zs = (x, z) if patches is None else (rows, predictor.world.patch_view(z)[patches[0]])
    draw = np.add(np.multiply(denoised, coef_x0, out=denoised), coef_x * xs, out=denoised)
    draw += noise_std * zs  # coef_x xs + coef_x0 denoised + noise_std zs, in that order
    return draw, z


def _resolve_target_time(t: float, dt: float) -> float:
    if not dt > 0:
        raise ValueError(f"step size must be positive, got {dt}")
    if dt > t + _TIME_TOL:
        raise ValueError(f"step size {dt} exceeds current time {t}")
    s = t - dt
    return 0.0 if abs(s) < _TIME_TOL else s


def reverse_sde_step(predictor: NoisePredictor, state: LatentState, dt: float,
                     rng: np.random.Generator) -> LatentState:
    """One ancestral stochastic reverse step t -> t - dt (one NFE).

    The clean-state estimate comes from the oracle's posterior mean; at a
    target time of 0 the posterior noise vanishes, so the final step is
    deterministic given the oracle.
    """
    return _reverse_sweep(predictor, state, [dt], rng)


def _reverse_sweep(predictor: NoisePredictor, state: LatentState, steps,
                   rng: np.random.Generator) -> LatentState:
    """Ancestral reverse steps of the given sizes from the state's time, carrying
    the (rows, dim) array; the state is checked once, after the last step."""
    x, t = state.x, predictor.schedule.check_time(state.t)
    for dt in steps:
        s = _resolve_target_time(t, float(dt))
        x, t = _ancestral_update(predictor, x, t, s, rng)[0], s
    return LatentState(x=x, t=t)


def sample_base(predictor: NoisePredictor, rng: np.random.Generator,
                shape=None) -> LatentState:
    """Draw x_T ~ N(0, I) and integrate to t = 0 with ancestral reverse steps.

    Consumes exactly n_steps evaluations per trajectory; ``shape`` adds
    leading batch axes.
    """
    times = predictor.schedule.step_times()
    x = rng.standard_normal((*(shape or ()), predictor.world.dim))
    return _reverse_sweep(predictor, LatentState(x=x, t=float(times[0])), -np.diff(times), rng)


def verifier_score(world: PatchWorld, state: LatentState) -> float | np.ndarray:
    """Weighted per-patch log-density of a clean state; higher is better."""
    if abs(state.t) > _TIME_TOL:
        raise ValueError(f"verifier expects a state at t=0, got t={state.t}")
    per_patch = _oracle_terms(1.0, 0.0, *_columns(world, state.x))[-1]
    per_patch = per_patch.reshape(*state.x.shape[:-1], world.n_patches)
    total = np.sum(world.verifier_weights * per_patch, axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def _inject_rows(world: PatchWorld, x: np.ndarray, counts, magnitude: float,
                 rngs) -> tuple[np.ndarray, list[np.ndarray]]:
    """Displace counts[i] distinct patches of row i of x (rows, dim) by
    ``magnitude`` in uniformly random directions. Row i draws its patches,
    then its directions, from rngs[i] (a count of 0 draws nothing); the
    normalisation and the displacement run once for the batch. Returns the
    displaced rows and each row's sorted defect index set."""
    m, d = world.n_patches, world.patch_dim
    defects = [np.sort(rng.choice(m, size=k, replace=False)) for k, rng in zip(counts, rngs)]
    directions = np.concatenate([rng.standard_normal((k, d)) for k, rng in zip(counts, rngs)])
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    directions /= norms
    x = np.array(x, dtype=float)
    hit = np.repeat(np.arange(len(x)), counts), np.concatenate(defects)
    x.reshape(len(x), m, d)[hit] += magnitude * directions
    return x, defects


def inject_defects(world: PatchWorld, state: LatentState, count: int, magnitude: float,
                   rng: np.random.Generator) -> tuple[LatentState, np.ndarray]:
    """Displace ``count`` distinct patches by ``magnitude`` in uniformly
    random directions; returns the modified state and the sorted ground-truth
    defect index set."""
    if abs(state.t) > _TIME_TOL:
        raise ValueError(f"inject_defects expects a state at t=0, got t={state.t}")
    m = world.n_patches
    if not 1 <= count <= m:
        raise ValueError(f"defect count must lie in [1, {m}], got {count}")
    if state.x.ndim != 1:
        raise ValueError("inject_defects operates on a single (unbatched) state")
    x, [chosen] = _inject_rows(world, state.x[None], [count], magnitude, [rng])
    return LatentState(x=x[0], t=0.0), chosen


_QUERY_LOGIT_GAP = 2.0


@functools.lru_cache(maxsize=32)
def grid_query_features(grid) -> np.ndarray:
    """Constant-norm positional features whose inner products decay with
    grid distance.

    Raw coordinates make softmax(Q Q^T) rows depend on |q_j| rather than on
    distance (the centre row would be uniform), so each axis coordinate is
    embedded as a cos/sin pair instead. The common scale is chosen so the
    self-to-nearest-neighbour logit gap is at least ``_QUERY_LOGIT_GAP``,
    which keeps every row's self-weight above 1/2 on any grid: smoothing is
    local and a noiseless planted contrast always survives thresholding.
    Cached per (rows, cols) tuple, so the array is read-only.
    """
    hs, ws = _as_grid(grid)
    omega_r = math.pi / (hs - 1) if hs > 1 else 0.0
    omega_c = math.pi / (ws - 1) if ws > 1 else 0.0
    gaps = [1.0 - math.cos(w) for w in (omega_r, omega_c) if w > 0.0]
    gap_scale = _QUERY_LOGIT_GAP / min(gaps) if gaps else 1.0
    # logits are <q_i, q_j>/sqrt(4) = (g^2/2)(cos dr + cos dc): g^2/2 = gap_scale
    g = math.sqrt(2.0 * gap_scale)
    rows, cols = np.divmod(np.arange(hs * ws), ws)
    features = g * np.column_stack([np.cos(omega_r * rows), np.sin(omega_r * rows),
                                    np.cos(omega_c * cols), np.sin(omega_c * cols)])
    features.setflags(write=False)
    return features


def _attention_rows(world: PatchWorld, true_sets, gain_pos: float, gain_neg: float,
                    noise_sd: float, rngs) -> tuple[np.ndarray, ...]:
    """synth_attention over rows: orig, pos, neg (rows, S) and queries (rows, S, 4).
    Row i draws from rngs[i] its fields' noise and, when noise_sd > 0, its
    queries' in one call, the same bits and generator state as one call each."""
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    m, features = world.n_patches, grid_query_features(world.grid)
    draws = np.empty((len(rngs), 3 * m + (features.size if noise_sd > 0 else 0)))
    for rng, row in zip(rngs, draws):
        rng.standard_normal(out=row)
    indicator, noise = _indicators(true_sets, m), noise_sd * draws[:, :3 * m].reshape(-1, 3, m)
    fields = (1.0 + noise[:, 0], 1.0 - gain_pos * indicator + noise[:, 1],
              1.0 + gain_neg * indicator + noise[:, 2])
    queries = (features + noise_sd * draws[:, 3 * m:].reshape(-1, *features.shape)
               if noise_sd > 0 else np.broadcast_to(features, (len(rngs), *features.shape)))
    return *(np.maximum(field, 0.0) for field in fields), queries


def synth_attention(world: PatchWorld, state: LatentState, true_set: np.ndarray,
                    gain_pos: float, gain_neg: float, noise_sd: float,
                    rng: np.random.Generator) -> tuple[AttentionBundle, np.ndarray]:
    """Synthesize an attention bundle whose contrast marks the defect set.

    The positive field loses ``gain_pos`` on defective patches, the negative
    field gains ``gain_neg`` there, and the origin field is flat at 1; every field
    receives iid Gaussian noise of scale ``noise_sd`` (clamped at zero) and
    the positional queries receive the same noise scale, so noise_sd tunes
    the achievable mask precision/recall monotonically. A batch of one.
    """
    *fields, queries = _attention_rows(world, [true_set], gain_pos, gain_neg, noise_sd, [rng])
    orig, pos, neg = (AttentionField(values=field[0], grid=world.grid) for field in fields)
    return AttentionBundle(orig=orig, pos=pos, neg=neg), queries[0]
