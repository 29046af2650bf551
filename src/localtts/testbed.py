"""Analytic patch-grid diffusion testbed.

Each patch of an (Hs x Ws) grid carries its own isotropic Gaussian-mixture
target. Because the forward process x_t = alpha(t) x_0 + sigma(t) z keeps
Gaussian mixtures Gaussian, the time-t marginal, its score, and the
posterior mean of the clean state are all available in closed form. The
oracle returns the posterior mean; on top of it the module provides:

  * an ancestral stochastic reverse sampler (the testbed's "plain" step),
  * a patch-additive verifier (mean per-patch log-density at t = 0),
  * defect injection and synthetic attention generation so the mask
    pipeline can be exercised against known ground truth.

Every oracle evaluation increments an NFE counter on the predictor; batched
states (..., dim) count one per leading element, whichever patches it evaluates.
A reverse phase (a sweep of reverse steps, or a masked refinement) converts
its state into the oracle's contiguous (d, rows, P) columns once, updates them
in place from step to step, and converts them back and checks them once, after
its last step; it takes its noise as one (steps, ..., dim) array and computes its
step constants once, in one vectorised pass over its step times; the constants of a
world whose patches share one mixture are one column.
Its steps run with numpy's buffer scoped to one row of those columns, so no broadcast copies.
Its noise and a batch's attention noise come from seeding.fill_rows, one generator a row.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import AttentionBundle, AttentionField, Grid, _as_grid, _indicators
from .errors import FieldErrors, check
from .seeding import fill_rows

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
            # 0.5 pi t overflows above about 1.144e308, and cos(inf) is a domain error
            (not self.horizon > 0 or math.isfinite(self._phase(self.horizon)), "horizon",
             f"overflows the phase 0.5 pi t, got {self.horizon}"),
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
    """Independent per-patch Gaussian-mixture targets with a mean verifier.

    weights[j, k], means[j, k, :], variances[j, k] describe component k of
    patch j; variances are isotropic per component. The arrays are read-only
    copies, so the oracle's component-major copies of them cannot drift: one
    column if every patch's mixture has the same bytes (any uniform world), else M.
    """

    grid: Grid
    patch_dim: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    # one mask row's (S, S) weights stay within 8 MiB, one row's coordinates within 512 KiB
    MAX_PATCHES, MAX_DIM = 1024, 1 << 16
    MAX_SCORE = math.sqrt(np.finfo(float).max / (1 << 16))  # a run sums <= 2^16 squared scores

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
            (not np.any(weights < 0), "weights", "mixture weights must be non-negative"),
            (not np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-12), "weights",
             "mixture weights must sum to 1 within 1e-12 per patch"),
            (not np.any(variances <= 0), "variances", "mixture variances must be positive"),
            *((bool(np.isfinite(a).all()), name, "must be finite") for name, a in (
                ("weights", weights), ("means", means), ("variances", variances))),
        ])
        # the oracle divides a squared distance of up to (|mean| + 1)^2 per coordinate by at
        # least min(variance, 1), and the verifier's score is made of these terms; component
        # i's rules are reported at the first patch that breaks one
        floor, mu, rules = d / self.MAX_SCORE, np.abs(means).max(axis=-1), []
        reach = np.sqrt(np.minimum(variances, 1.0) / floor) - 1
        reach[variances < floor] = math.inf
        for i, j in enumerate(((variances < floor) | (mu > reach)).argmax(axis=0).tolist()):
            v, r, u = variances[j, i].item(), reach[j, i].item(), mu[j, i].item()
            rules += [(v >= floor, f"components[{i}].variance",
                       f"must be at least {floor:.3g} at patch_dim {d}, got {v:g}"),
                      (u <= r, f"components[{i}].mean",
                       f"must be at most {r:.3g} in absolute value at variance {v:g}, got {u:g}")]
        check(rules)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "patch_dim", d)
        # bytes, not ==: a mean of -0.0 and one of 0.0 can give results of either sign
        cols = m if any(a.tobytes() != np.repeat(a[:1], m, 0).tobytes()
                        for a in (weights, means, variances)) else 1
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights[:cols].T)[:, None, None]
        # the oracle reads its constants component-major: means (K, d, 1, C), variances and
        # log-weights (K, 1, 1, C), C = cols, kept as private attributes that == does not compare
        for name, value in (("weights", weights), ("means", means), ("variances", variances),
                            ("_log_weights", log_weights),
                            ("_means", means[:cols].transpose(1, 2, 0)[:, :, None]),
                            ("_variances", variances[:cols].T[:, None, None])):
            value = np.ascontiguousarray(value)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other):  # the declared fields, arrays by value
        return other.__class__ is self.__class__ and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __reduce__(self):  # unpickling runs __post_init__, so the copy is read-only too
        return PatchWorld, tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def uniform(cls, grid, patch_dim: int, components) -> "PatchWorld":
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
        return cls(
            grid=grid,
            patch_dim=d,
            weights=np.tile(weights, (m, 1)),
            means=np.tile(means, (m, 1, 1)),
            variances=np.tile(variances, (m, 1)),
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
        index into a patch_view, row-major, and the oracle's constants there (the
        one shared column as it is)."""
        index, consts = np.nonzero(bits), (self._means, self._variances, self._log_weights)
        return index, *(consts if self._means.shape[-1] == 1 else
                        (c[..., index[-1]] for c in consts))

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


def _pairwise_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis`` (kept) in the order numpy's pairwise summation adds a
    contiguous last axis, so a leading-axis sum has the bits of a last-axis
    one: in sequence below 8 terms, else in 8 interleaved partial sums joined
    by a fixed tree and the rest in sequence (by halves above 128 terms)."""
    n = a.shape[axis]
    if n < 8:
        return np.add.reduce(a, axis, keepdims=True)
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
    The count is taken only if some row ties: with one maximum a row, rest / 1 =
    rest and log1p(rest) + log(1) = log1p(rest), as rest >= +0, so it adds no bits.
    """
    a_max = np.maximum.reduce(a, axis, keepdims=True)
    is_max = a == a_max
    shifted = np.subtract(a, a_max)
    np.exp(shifted, out=shifted)
    # maxima zeroed after exp, not -inf before: numpy's exp is slow on -inf (all cells at K=1)
    np.putmask(shifted, is_max, 0.0)
    rest = _pairwise_sum(shifted, axis)
    if np.count_nonzero(is_max) == a_max.size:  # no tie
        return np.add(np.log1p(rest, out=rest), a_max, out=rest).squeeze(axis)
    count = np.add.reduce(is_max, axis, float, keepdims=True)
    rest = np.log1p(np.divide(rest, count, out=rest), out=rest)
    rest += np.log(count, out=count)
    rest += a_max
    return rest.squeeze(axis)


class _Phase:
    """The oracle's side of a run of evaluations on one set of patch columns at
    a sequence of (alpha, sigma^2) pairs: a reverse phase's steps, or one time.

    The columns are P patches of each row (all M patches), or one row of the
    patches PatchWorld.select picked. A phase carries them in a (rows, dim)
    array of its own as contiguous (d, rows, P) columns; a selection packs its
    (d, 1, P) columns at the front of the array. The posterior mean comes back
    in the same layout. The constants of every time are computed once, in one
    vectorised pass: var_t, the log-normaliser log w - d/2 (log var_t + log 2 pi)
    and the posterior coefficient a s_k^2 / var_t, each a list of (K, 1, 1, C)
    arrays whose entry ``step`` the oracle reads, C the world's 1 or P columns,
    so one broadcasts over rows x P contiguous elements at once; the oracle
    scales the means to their centres a mu_k at each step. A reverse phase
    allocates the centred terms and their squares, (K, d, rows, P), and the
    posterior mean once and reuses them at every step; a one-time phase leaves
    them to the ufuncs.
    """

    xc = work = squares = mean = None  # a reverse phase's columns and buffers (_ancestral_phase)

    def __init__(self, world: PatchWorld, alphas, noise_vars, patches=None):
        self.world, self.step, self.alphas = world, 0, alphas
        self.index, self.means, variances, log_weights = (
            (None, world._means, world._variances, world._log_weights)
            if patches is None else patches)
        a, s2 = (np.array(v).reshape(-1, 1, 1, 1, 1) for v in (alphas, noise_vars))
        var_t = a * a * variances + s2
        log_norm = log_weights - 0.5 * world.patch_dim * (np.log(var_t) + _LOG_2PI)
        self.var_t, self.log_norm, self.coef = map(list, (var_t, log_norm, a * variances / var_t))

    def gather(self, a: np.ndarray, lead: int = 0) -> np.ndarray:
        """The (*lead, d, rows, P) columns of an array (*lead, ..., dim) in the
        state's layout: a view of all patches, or a copy of the selected ones."""
        view = self.world.patch_view(a)
        if self.index is None:
            cols = view.reshape(view.shape[:lead] + (-1,) + view.shape[-2:])
            return cols.transpose((2, 0, 1) if lead == 0 else (0, 3, 1, 2))
        return view[(slice(None),) * lead + self.index].swapaxes(-1, -2)[..., None, :]

    def scatter(self, xc: np.ndarray, out: np.ndarray) -> None:
        """Write the (d, rows, P) columns xc into out, (..., dim) in the state's layout."""
        view = self.world.patch_view(out)
        if self.index is None:
            view.reshape(-1, *view.shape[-2:])[...] = xc.transpose(1, 2, 0)
        else:
            view[self.index] = xc[:, 0].T


def _at_time(world: PatchWorld, x: np.ndarray, a: float, s2: float, patches=None) -> tuple:
    """A one-time phase for x (..., dim) in the state's layout, and x's
    contiguous columns."""
    phase = _Phase(world, [a], [s2], patches)
    return phase, np.ascontiguousarray(phase.gather(x))


def _oracle_terms(phase: _Phase, xc: np.ndarray) -> tuple:
    """The per-component and per-column log-densities, (K, 1, rows, P) and
    (1, rows, P), of the marginal with x_t = a x_0 + noise of variance s2 at
    the phase's step, at the columns xc (d, rows, P), and the centred terms
    (K, d, rows, P). Component k is N(a mu_k, (a^2 s_k^2 + s2) I), the
    verifier's target at (1, 0). A reverse phase carries its columns in the
    oracle's layout and computed the constants of all its steps at once
    (_Phase), so a step reads its columns without a copy and its constants
    from tables, scaling only the means to their centres, and writes into the
    phase's buffers.

    Each reduction runs over a leading axis with (rows, P) planes as its inner
    loop, adds in the order numpy sums a (..., M, K, d) array's last axis and
    reads one column, so the bits depend on neither the layout nor the other columns.
    """
    step = phase.step
    work = np.subtract(xc, phase.alphas[step] * phase.means, out=phase.work)
    log_comp = _pairwise_sum(np.square(work, out=phase.squares), 1)
    log_comp *= 0.5
    log_comp /= phase.var_t[step]
    log_comp = np.subtract(phase.log_norm[step], log_comp, out=log_comp)
    return log_comp, logsumexp(log_comp, axis=0), work


def _posterior_sum(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float,
                   term, patches=None) -> np.ndarray:
    """Sum term(phase, centered), written over centered, by posterior
    responsibility: rows shaped like x, (P, d) selected rows, or, when patches
    is a phase, its step's (d, rows, P) columns, in its layout (_Phase.xc).

    Responsibilities are formed in log space so small densities never
    underflow before normalization. numpy sums a (..., M, K, d) array over K
    in sequence, or pairwise when d = 1 leaves K innermost; the same order
    keeps the bits.
    """
    if isinstance(patches, _Phase):
        phase, xc = patches, patches.xc
    else:
        t = schedule.check_time(t)
        phase, xc = _at_time(world, x, schedule.alpha(t), schedule.sigma(t) ** 2, patches)
    log_comp, log_norm, work = _oracle_terms(phase, xc)
    term(phase, work)
    resp = np.exp(np.subtract(log_comp, log_norm, out=log_comp), out=log_comp)
    np.multiply(resp, work, out=work)
    if world.patch_dim == 1 and len(work) >= 8:  # K innermost: numpy sums it pairwise
        total = _pairwise_sum(work, 0)[0]
    else:
        total = np.add.reduce(work, 0, out=phase.mean)
    if phase is not patches:
        return total.transpose(1, 2, 0).reshape(np.shape(x)) if patches is None else total[:, 0].T
    if total is not phase.mean:
        phase.mean[...] = total
    return phase.mean


def log_density(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact log-density of the time-t marginal (summed over patches)."""
    t = schedule.check_time(t)
    log_norm = _oracle_terms(*_at_time(world, x, schedule.alpha(t), schedule.sigma(t) ** 2))[1]
    return log_norm.reshape(*np.shape(x)[:-1], world.n_patches).sum(axis=-1)


def _score_term(phase: _Phase, centered: np.ndarray) -> None:
    np.divide(np.negative(centered, out=centered), phase.var_t[phase.step], out=centered)


def _posterior_term(phase: _Phase, centered: np.ndarray) -> None:
    np.add(phase.means, np.multiply(phase.coef[phase.step], centered, out=centered), out=centered)


def gmm_score(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact score of the time-t marginal, evaluated per patch independently."""
    return _posterior_sum(world, schedule, x, t, _score_term)


def posterior_mean(world: PatchWorld, schedule: CosineSchedule, x: np.ndarray, t: float,
                   patches=None) -> np.ndarray:
    """E[x_0 | x_t] of the time-t marginal, formed per component so it stays
    stable even where alpha(t) is at roundoff level; with patches
    (PatchWorld.select), only at the selected patches, as (P, d) rows; with
    a reverse phase (_Phase), at its step, as (d, rows, P) columns of its array x."""
    return _posterior_sum(world, schedule, x, t, _posterior_term, patches)


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


def _row_noise(rngs, draws: int, dim: int) -> np.ndarray:
    """(draws, rows, dim) noise whose row i draws from rngs[i] alone, by
    seeding.fill_rows: the bits and generator state of one (draws, dim) call a
    row, so a batched run equals a one-at-a-time run."""
    noise = np.empty((len(rngs), draws, dim))
    fill_rows(rngs, noise)
    return noise.swapaxes(0, 1)


class _RowNoise:
    """A generator's stand-in for sample_base on a (rows, dim) batch: its one
    standard_normal call of shape (draws, rows, dim) takes _row_noise(rngs,
    draws, dim). Another shape, a second call, or check_spent before the call
    raises: a change to the base phase's steps cannot shift bits unnoticed."""

    def __init__(self, rngs, draws: int, dim: int):
        self._noise, self._spent = _row_noise(rngs, draws, dim), False

    def standard_normal(self, shape: tuple) -> np.ndarray:
        if self._spent or tuple(shape) != self._noise.shape:
            raise RuntimeError(f"noise of shape {tuple(shape)} drawn {'again ' * self._spent}"
                               f"where its phase declared one draw of {self._noise.shape} "
                               f"noise slices")
        self._spent = True
        return self._noise

    def check_spent(self) -> None:
        if not self._spent:
            raise RuntimeError(f"the base phase drew none of the {len(self._noise)} "
                               f"noise slices it declared")


def _ancestral_coefficients(alphas, sigmas) -> list:
    """(coef_x, coef_x0, noise_std) of each step t -> s between consecutive
    times, from their alpha and sigma, for every step in one vectorised pass:
    the ancestral posterior q(x_s | x_t, x_0) has mean coef_x x_t + coef_x0 x_0
    and standard deviation noise_std."""
    a_t, a_s, s_t, s_s = (np.array(v) for v in (alphas[:-1], alphas[1:], sigmas[:-1], sigmas[1:]))
    ratio = a_t / a_s
    var_ts = np.maximum(s_t * s_t - ratio * ratio * s_s * s_s, 0.0)
    coef_x = ratio * (s_s * s_s) / (s_t * s_t)
    coef_x0 = a_s * var_ts / (s_t * s_t)
    noise_std = np.sqrt(var_ts * (s_s * s_s) / (s_t * s_t))
    return list(zip(coef_x.tolist(), coef_x0.tolist(), noise_std.tolist()))


def _ancestral_phase(predictor: NoisePredictor, x: np.ndarray, times, z: np.ndarray,
                     out: np.ndarray, carried: np.ndarray, patches=None) -> None:
    """Ancestral reverse steps between consecutive times from x, (..., dim) at
    times[0]: step i draws x_s from q(x_s | x_t, x_0) with x_0 the oracle's
    posterior mean at t (one NFE per row) and z[i] (z is (steps, ..., dim)),
    over all patches or the selected ones (PatchWorld.select).

    The phase gathers x's columns into carried, a (rows, dim) array that may be
    x, updates them there in place, as the oracle's contiguous (d, rows, P)
    columns (_Phase), from step to step, and writes them into out, x's shape,
    once, after its last step. Its step constants are computed once, for all steps."""
    sched = predictor.schedule
    alphas, sigmas = [sched.alpha(t) for t in times], [sched.sigma(t) for t in times]
    phase = _Phase(predictor.world, alphas[:-1], [s ** 2 for s in sigmas[:-1]], patches)
    columns = phase.gather(x)  # (d, rows, P); the phase carries them at carried's front
    phase.xc = xc = carried.reshape(-1)[:columns.size].reshape(columns.shape)
    xc[...] = columns
    phase.work = np.empty((len(phase.means), *xc.shape))
    phase.squares, phase.mean = np.empty_like(phase.work), np.empty_like(xc)  # xc's layout
    noise = phase.gather(z, lead=1)
    # numpy's buffered iterator copies broadcasts whose rows are shorter than its buffer;
    # a buffer of one row (rows x P, floored to 16) lets them run in place, the same bits
    with np.errstate():
        np.setbufsize(min(max(xc[0].size // 16 * 16, 16), np.getbufsize()))
        for step, (t, (coef_x, coef_x0, noise_std)) in enumerate(
                zip(times, _ancestral_coefficients(alphas, sigmas))):
            phase.step = step
            denoised = predictor.evaluate(carried, t, phase)
            # coef_x x + coef_x0 denoised + noise_std z, in that order
            np.multiply(xc, coef_x, out=xc)
            np.add(xc, np.multiply(denoised, coef_x0, out=denoised), out=xc)
            np.add(xc, np.multiply(noise[step], noise_std, out=denoised), out=xc)
    phase.scatter(xc, out)


def _time_tol(start: float, steps: int, floor: float = _TIME_TOL) -> float:
    """How far rounding can move a time reached by `steps` step subtractions from
    `start`: an ulp of start each, two to spare, and never less than floor."""
    return max(floor, (steps + 2) * np.finfo(float).eps * start)


def _resolve_target_time(t: float, dt: float, tol: float) -> float:
    """t - dt, snapped to 0 within tol, the rounding its sweep can accumulate."""
    if not dt > 0:
        raise ValueError(f"step size must be positive, got {dt}")
    if t < _TIME_TOL:  # the step's coefficients would divide 0 by 0
        raise ValueError(f"reverse step of size {dt} starts at time {t}, the end of the schedule")
    if dt > t + tol:
        raise ValueError(f"step size {dt} exceeds current time {t}")
    s = t - dt
    return 0.0 if abs(s) < tol else s


def _reverse_sweep(predictor: NoisePredictor, state: LatentState, steps,
                   z: np.ndarray, tol: float | None = None) -> LatentState:
    """Ancestral reverse steps of the given sizes from the state's time, one
    phase (_ancestral_phase) whose noise z is (steps, ..., dim); times land on
    0 within tol, by default the sweep's own rounding bound, and the state is
    checked once, after the last step."""
    times = [predictor.schedule.check_time(state.t)]
    tol = _time_tol(times[0], len(steps)) if tol is None else tol
    for dt in steps:
        times.append(_resolve_target_time(times[-1], float(dt), tol))
    if len(times) == 1:
        return LatentState(x=state.x, t=times[0])
    x = state.x
    out = np.empty(x.shape)
    _ancestral_phase(predictor, x, times, z, out,
                     np.empty((math.prod(x.shape[:-1]), predictor.world.dim)))
    return LatentState(x=out, t=times[-1])


def sample_base(predictor: NoisePredictor, rng: np.random.Generator,
                shape=None) -> LatentState:
    """Draw x_T ~ N(0, I) and integrate to t = 0 with ancestral reverse steps.

    Consumes exactly n_steps evaluations per trajectory; ``shape`` adds
    leading batch axes. x_T and the steps' noise are one draw, x_T its first slice.
    """
    times = predictor.schedule.step_times()
    z = rng.standard_normal((len(times), *(shape or ()), predictor.world.dim))
    return _reverse_sweep(predictor, LatentState(x=z[0], t=float(times[0])), -np.diff(times), z[1:])


def verifier_score(world: PatchWorld, state: LatentState) -> float | np.ndarray:
    """Mean per-patch log-density of a clean state; higher is better. Each
    term is scaled by 1/M before the sum (a mean divides after it: other bits)."""
    if abs(state.t) > _TIME_TOL:
        raise ValueError(f"verifier expects a state at t=0, got t={state.t}")
    m = world.n_patches
    per_patch = _oracle_terms(*_at_time(world, state.x, 1.0, 0.0))[1]
    per_patch = per_patch.reshape(*state.x.shape[:-1], m)
    total = np.sum(np.full(m, 1.0 / m) * per_patch, axis=-1)
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
    queries' in one fill_rows row, the same bits and generator state as one call each."""
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    m, features = world.n_patches, grid_query_features(world.grid)
    draws = np.empty((len(rngs), 3 * m + (features.size if noise_sd > 0 else 0)))
    fill_rows(rngs, draws)
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
