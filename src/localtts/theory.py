"""Patch-economy analysis of localized versus global resampling.

Closed forms for the expected selection statistics of an imperfect mask,
the per-trial and budget-normalized quality gains of the two strategies,
the dominance condition and its recall/precision thresholds, the
saturation curve of global best-of-N, and a failure-regime classifier.
``simulate_patch_economy`` is the brute-force oracle: it samples masks
achieving the requested recall/precision in expectation, applies Bernoulli
repair/harm events, and reports empirical means with standard errors so
every formula can be checked to Monte Carlo accuracy; seeding.run_chunks, the
runner of the experiments' trials, seeds its chunks and runs them on the workers.

Precision is the ratio-of-expectations E[TP]/E[|selected|]; the simulator's
clean-patch selection probability is derived to match it exactly, and
(recall, precision, defect count) combinations that would require a
selection probability above 1 are rejected as infeasible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import check
from .seeding import run_chunks

_CHUNK = 4096  # fixed simulation chunk so results never depend on worker count
_SLAB = 512  # rows per slab of per-patch uniforms, drawn and reduced while in cache


class InfeasibleParameterError(ValueError):
    """A parameter combination with no realizable sampling process."""


@dataclass(frozen=True)
class MaskStats:
    """Mask quality: recall in [0, 1], precision in (0, 1].

    Precision 0 is rejected: it would force either zero true positives or an
    unbounded expected selection size.
    """

    recall: float
    precision: float

    def __post_init__(self):
        check([
            (0.0 <= self.recall <= 1.0, "recall", f"must lie in [0, 1], got {self.recall}"),
            (0.0 < self.precision <= 1.0, "precision",
             f"must lie in (0, 1] (zero precision is the excluded degenerate case: "
             f"it forces zero true positives or an unbounded selection), "
             f"got {self.precision}"),
        ])


@dataclass(frozen=True)
class PatchEconomy:
    """Abstract repair economy over m_patches patches with ``defects`` bad ones.

    repair_gain / harm_loss are the mean weighted per-patch gain of a repair
    and loss of a harmed clean patch. repair_prob_global / repair_prob_local
    are the chances one trial repairs a touched defective patch;
    harm_prob_global / harm_prob_local the chances it harms a touched clean
    patch. cost_global / cost_local price one trial of each strategy and
    ``budget`` is the total compute available.
    """

    m_patches: int
    defects: int
    repair_gain: float
    harm_loss: float
    repair_prob_global: float
    repair_prob_local: float
    harm_prob_global: float
    harm_prob_local: float
    cost_global: float = 1.0
    cost_local: float = 1.0
    budget: float = 1.0

    def __post_init__(self):
        v = vars(self)
        check([
            (self.m_patches >= 1, "m_patches", f"must be at least 1, got {self.m_patches}"),
            (1 <= self.defects <= self.m_patches, "defects",
             f"must lie in [1, {self.m_patches}], got {self.defects}"),
            (self.harm_loss >= 0, "harm_loss", f"must be non-negative, got {self.harm_loss}"),
            *((0.0 <= v[n] <= 1.0, n, f"must lie in [0, 1], got {v[n]}")
              for n in ("repair_prob_global", "repair_prob_local",
                        "harm_prob_global", "harm_prob_local")),
            *((v[n] > 0, n, f"must be positive, got {v[n]}")
              for n in ("repair_gain", "cost_global", "cost_local", "budget")),
        ])


def expected_selection_stats(stats: MaskStats, defects: int) -> tuple[float, float, float]:
    """Expected (true positives, selection size, false positives).

    E[TP] = recall * s, E[|selected|] = recall * s / precision,
    E[FP] = recall * s * (1/precision - 1).
    """
    if defects < 1:
        raise ValueError(f"defect count must be at least 1, got {defects}")
    e_tp = stats.recall * defects
    e_sel = e_tp / stats.precision
    return e_tp, e_sel, e_sel - e_tp


def per_trial_gains(econ: PatchEconomy, stats: MaskStats) -> tuple[float, float]:
    """Expected quality change of one global trial and one localized trial.

    global: s * theta_g * gain - (M - s) * h_g * loss
    local:  rho s q * gain - rho s (1/pi - 1) * h_l * loss
    """
    clean = econ.m_patches - econ.defects
    gain_global = (econ.defects * econ.repair_prob_global * econ.repair_gain
                   - clean * econ.harm_prob_global * econ.harm_loss)
    e_tp, _, e_fp = expected_selection_stats(stats, econ.defects)
    gain_local = (e_tp * econ.repair_prob_local * econ.repair_gain
                  - e_fp * econ.harm_prob_local * econ.harm_loss)
    return gain_global, gain_local


def budget_gains(econ: PatchEconomy, stats: MaskStats) -> tuple[float, float]:
    """Per-trial gains scaled by the affordable trial counts B/C."""
    gain_global, gain_local = per_trial_gains(econ, stats)
    return (econ.budget / econ.cost_global * gain_global,
            econ.budget / econ.cost_local * gain_local)


def dominance_check(econ: PatchEconomy, stats: MaskStats) -> tuple[bool, float]:
    """Does localized resampling beat global per unit compute?

    Returns (holds, margin) with margin = local_gain/C_l - global_gain/C_g;
    dominance holds iff the margin is strictly positive.
    """
    gain_global, gain_local = per_trial_gains(econ, stats)
    margin = gain_local / econ.cost_local - gain_global / econ.cost_global
    return margin > 0.0, margin


@dataclass(frozen=True)
class RecallRequirement:
    """Recall threshold beyond which localized resampling dominates.

    ``raw`` may be negative (any positive recall suffices) or exceed 1
    (no recall can achieve dominance); ``clamped`` is raw restricted to
    [0, 1] for convenience.
    """

    raw: float
    clamped: float


def required_recall(econ: PatchEconomy, precision: float) -> RecallRequirement:
    """Solve the dominance condition for recall at the given precision.

    Raises when the per-patch net benefit (denominator) is non-positive: in
    that regime each selected patch loses value in expectation and no recall
    helps.
    """
    denom = (econ.repair_prob_local * econ.repair_gain
             - (1.0 / precision - 1.0) * econ.harm_prob_local * econ.harm_loss)
    if denom <= 0.0:
        raise InfeasibleParameterError(
            "per-patch net benefit non-positive: precision is below the floor "
            "at which selected patches pay for themselves"
        )
    numer = (econ.repair_prob_global * econ.repair_gain
             - (econ.m_patches / econ.defects - 1.0)
             * econ.harm_prob_global * econ.harm_loss)
    raw = (econ.cost_local / econ.cost_global) * numer / denom
    return RecallRequirement(raw=raw, clamped=min(max(raw, 0.0), 1.0))


def precision_floor(repair_prob_local: float, repair_gain: float,
                    harm_prob_local: float, harm_loss: float) -> float:
    """Precision above which each selected patch has positive expected value.

    pi* = 1 / (1 + q*gain / (h_l*loss)); zero when local edits are harmless.
    """
    harm, benefit = harm_prob_local * harm_loss, repair_prob_local * repair_gain
    if harm < 0:
        raise ValueError("harm term must be non-negative")
    if harm == 0.0:
        if benefit == 0.0:
            raise ValueError("precision floor undefined when both repair and harm terms vanish")
        return 0.0
    return 1.0 / (1.0 + benefit / harm)


def economy_precision_floor(econ: PatchEconomy) -> Optional[float]:
    """precision_floor of econ, None where local edits neither repair nor harm."""
    terms = econ.repair_prob_local, econ.repair_gain, econ.harm_prob_local, econ.harm_loss
    return None if terms[0] * terms[1] == 0.0 == terms[2] * terms[3] else precision_floor(*terms)


@dataclass(frozen=True)
class BonPoint:
    n: int
    repair_prob: float
    normalized_gain: float


@dataclass(frozen=True)
class BonCurve:
    """Best-of-N saturation curve.

    repair_prob(N) = 1 - (1 - theta_1)^N rises with diminishing increments
    while the per-compute prefactor shrinks like 1/N, so the normalized gain
    eventually decreases; ``first_decline`` is the first N where it does.
    """

    points: tuple[BonPoint, ...]
    first_decline: Optional[int]


# bon_curve keeps every point and a report writes a CSV row of each: about 320 B a point
MAX_BON_N = 10 ** 5


def bon_rules(repair_prob_one: float, n_max: int) -> list:
    """The (passed, name, message) rules of bon_curve's arguments: bon_curve raises
    through check, validate_config reports them at theory.bon_repair_prob_one and
    theory.bon_n_max."""
    return [(0.0 < repair_prob_one < 1.0, "repair_prob_one",
             f"must lie in (0, 1), got {repair_prob_one}"),
            (n_max >= 1, "n_max", f"must be at least 1, got {n_max}"),
            (n_max <= MAX_BON_N, "n_max", f"must be at most {MAX_BON_N}, got {n_max}")]


def bon_curve(repair_prob_one: float, econ: PatchEconomy, n_max: int) -> BonCurve:
    """Compute-normalized gain of global best-of-N for N = 1..n_max."""
    check(bon_rules(repair_prob_one, n_max))
    clean = econ.m_patches - econ.defects
    harm_term = clean * econ.harm_prob_global * econ.harm_loss
    points = []
    first_decline = None
    prev_gain = None
    for n in range(1, n_max + 1):
        theta_n = 1.0 - (1.0 - repair_prob_one) ** n
        gain = (theta_n * econ.defects * econ.repair_gain - harm_term) / (n * econ.cost_global)
        points.append(BonPoint(n=n, repair_prob=theta_n, normalized_gain=gain))
        if prev_gain is not None and gain < prev_gain and first_decline is None:
            first_decline = n
        prev_gain = gain
    return BonCurve(points=tuple(points), first_decline=first_decline)


@dataclass(frozen=True)
class RegimeFlags:
    """Independent failure-regime indicators for localized resampling."""

    dense_defects: bool
    low_precision: bool
    weak_local_repair: bool


def classify_regime(econ: PatchEconomy, stats: MaskStats) -> RegimeFlags:
    """Flag the three regimes in which localized resampling loses its edge:
    dense defects (more than half the patches), precision below the floor,
    and local repair strictly weaker than global (recall-weighted)."""
    floor = economy_precision_floor(econ)  # None: no precision is too low
    return RegimeFlags(
        dense_defects=econ.defects / econ.m_patches > 0.5,
        low_precision=floor is not None and stats.precision < floor,
        weak_local_repair=stats.recall * econ.repair_prob_local < econ.repair_prob_global,
    )


def sparse_dominance_approx(econ: PatchEconomy, stats: MaskStats) -> bool:
    """Simplified equal-cost dominance test for the sparse, benign-local regime:
    rho * q > theta_g - (M/s) * h_g * loss / gain.

    Obtained from the exact equal-cost condition by dropping the (small)
    local-harm term and rounding M/s - 1 up to M/s. Global resampling's harm
    scales with every clean patch, so the global-harm term is subtracted: it
    lowers the bar localized resampling has to clear.
    """
    threshold = (econ.repair_prob_global
                 - (econ.m_patches / econ.defects)
                 * econ.harm_prob_global * econ.harm_loss / econ.repair_gain)
    return stats.recall * econ.repair_prob_local > threshold


def clean_selection_probability(econ: PatchEconomy, stats: MaskStats) -> float:
    """Per-clean-patch selection probability that realizes the target
    precision in ratio-of-expectations form. Raises when no probability in
    [0, 1] can do so."""
    clean = econ.m_patches - econ.defects
    _, _, e_fp = expected_selection_stats(stats, econ.defects)
    if clean == 0:
        if e_fp > 1e-12:
            raise InfeasibleParameterError(
                "no clean patches available but the target precision implies "
                f"{e_fp:g} expected false positives"
            )
        return 0.0
    p_clean = e_fp / clean
    if p_clean > 1.0 + 1e-12:
        raise InfeasibleParameterError(
            f"(recall={stats.recall}, precision={stats.precision}, "
            f"defects={econ.defects}, m_patches={econ.m_patches}) implies a "
            f"clean-patch selection probability of {p_clean:g} > 1"
        )
    return min(p_clean, 1.0)


@dataclass(frozen=True)
class ValueDistribution:
    """Per-patch gain/loss values around the caller's mean, redrawn every trial.

    kind "constant" always yields the mean; "uniform" draws from
    [0, 2*mean]; "exponential" draws with the given mean. Means are
    preserved exactly, so the closed forms keep holding by linearity.
    """

    kind: str = "constant"

    def __post_init__(self):
        check([(self.kind in ("constant", "uniform", "exponential"), "kind",
                f"unknown value distribution kind {self.kind!r}")])

    def draw(self, rng: np.random.Generator, out: np.ndarray, mean: float) -> None:
        """Fill out in place, with the bits of numpy's uniform(0, 2*mean), which is
        0 + 2*mean*u, and exponential(mean), which is mean * standard_exponential."""
        if self.kind == "constant":
            out.fill(mean)
        elif self.kind == "uniform":
            np.multiply(rng.random(out=out), 2.0 * mean, out=out)
        else:
            np.multiply(rng.standard_exponential(out=out), mean, out=out)


@dataclass(frozen=True)
class EconomySimResult:
    """Empirical means and standard errors from the patch-economy simulator."""

    trials: int
    gain_global_mean: float
    gain_global_se: float
    gain_local_mean: float
    gain_local_se: float
    tp_mean: float
    tp_se: float
    selected_mean: float
    selected_se: float
    fp_mean: float
    fp_se: float


def _moments(values) -> tuple[int, float, float]:
    """Count, mean and M2, the sum of squared deviations from the mean."""
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    return values.size, float(mean), float(np.square(values - mean).sum())


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Chan-Golub-LeVeque parallel update of two (count, mean, M2) triples."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def _mean_se(n: int, mean: float, m2: float) -> tuple[float, float]:
    """Mean and standard error from a count, a mean and M2."""
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(m2 / (n - 1) / n)


def _simulate_chunk(econ: PatchEconomy, stats: MaskStats, p_clean: float,
                    n: int, rng: np.random.Generator,
                    repair_dist: ValueDistribution, harm_dist: ValueDistribution,
                    workspace: list):
    """Per trial of the chunk's n: true and false positives, local and global gains.

    With two constant value kinds every count is a binomial draw and the workspace
    goes unused. Otherwise each side (defective patches, clean patches) keeps its
    values and selections in the workspace's first n rows, and every other run of
    per-patch uniforms goes through a slab of scratch rows, reduced before the next
    slab is drawn. The runs keep their order (selections, values, local hits, global
    hits; defective side first), so the slab size changes no bit.
    """
    s = econ.defects
    clean = econ.m_patches - econ.defects
    if repair_dist.kind == "constant" and harm_dist.kind == "constant":
        tp = rng.binomial(s, stats.recall, size=n)
        fp = rng.binomial(clean, p_clean, size=n)
        repaired = rng.binomial(tp, econ.repair_prob_local)
        harmed = rng.binomial(fp, econ.harm_prob_local)
        local = econ.repair_gain * repaired - econ.harm_loss * harmed
        rep_g = rng.binomial(s, econ.repair_prob_global, size=n)
        harm_g = rng.binomial(clean, econ.harm_prob_global, size=n)
        global_ = econ.repair_gain * rep_g - econ.harm_loss * harm_g
        return tp, fp, local, global_
    defective, clean_side = workspace  # (values, selected, draws, hit) each
    step = len(defective[2])  # rows of the slab scratch
    slabs = [(slice(a, min(a + step, n)), min(step, n - a)) for a in range(0, n, step)]

    def select(side, prob):  # selections, and their row counts
        _, selected, draws, _ = side
        counts = np.empty(n, int)
        for rows, size in slabs:
            np.less(rng.random(out=draws[:size]), prob, out=selected[rows])
            selected[rows].sum(axis=1, out=counts[rows])
        return counts

    def hit_sums(side, prob, local):  # row sums of the values a Bernoulli(prob) hits
        values, selected, draws, hit = side
        sums = np.empty(n)
        for rows, size in slabs:
            u, h = draws[:size], hit[:size]
            np.less(rng.random(out=u), prob, out=h)
            if local:
                h &= selected[rows]
            np.multiply(values[rows], h, out=u).sum(axis=1, out=sums[rows])
        return sums

    tp = select(defective, stats.recall)
    fp = select(clean_side, p_clean)
    for side, dist, mean in ((defective, repair_dist, econ.repair_gain),
                             (clean_side, harm_dist, econ.harm_loss)):
        for rows, _ in slabs:
            dist.draw(rng, side[0][rows], mean)
    local = (hit_sums(defective, econ.repair_prob_local, True)
             - hit_sums(clean_side, econ.harm_prob_local, True))
    global_ = (hit_sums(defective, econ.repair_prob_global, False)
               - hit_sums(clean_side, econ.harm_prob_global, False))
    return tp, fp, local, global_


def _workspace(econ: PatchEconomy, rows: int) -> list:
    """Per side (defective, clean patches): [values, selected] of `rows` rows and
    [draws, hit] scratch of min(rows, _SLAB) rows, the arrays a chunk draws into."""
    slab = min(rows, _SLAB)
    return [[np.empty((rows, width), float), np.empty((rows, width), bool),
             np.empty((slab, width), float), np.empty((slab, width), bool)]
            for width in (econ.defects, econ.m_patches - econ.defects)]


def _simulate_chunks(payload: tuple, seeds: list) -> list:
    """Sufficient statistics (count, mean, M2 per stream) of the chunk each seed indexes (its
    last spawn key), in seed order, all drawn into one workspace (_workspace: chunk-sized values
    and selections, slab-sized scratch, or no rows on the binomial path); run_chunks's fn."""
    econ, stats, p_clean, repair_dist, harm_dist, trials = payload
    rows = 0 if repair_dist.kind == harm_dist.kind == "constant" else _CHUNK  # binomial: no rows
    workspace = _workspace(econ, rows)
    chunks = (_simulate_chunk(econ, stats, p_clean, min(_CHUNK, trials - seed.spawn_key[-1] * _CHUNK),
                              np.random.default_rng(seed), repair_dist, harm_dist, workspace)
              for seed in seeds)
    return [tuple(map(_moments, (tp, tp + fp, fp, local, global_)))
            for tp, fp, local, global_ in chunks]


def simulate_patch_economy(econ: PatchEconomy, stats: MaskStats, trials: int,
                           seed, repair_dist: Optional[ValueDistribution] = None,
                           harm_dist: Optional[ValueDistribution] = None,
                           workers: int = 1) -> EconomySimResult:
    """Brute-force oracle for the selection statistics and gain formulas.

    Per trial: each defective patch is selected with probability ``recall``
    and each clean patch with the probability that matches the target
    precision in expectation; selected patches then receive Bernoulli
    repair/harm events, and the global strategy touches every patch with
    its own probabilities. Chunk i of ``_CHUNK`` trials draws from child i
    of the seed (left unspawned) and the chunks merge in chunk order, so
    results are reproducible bit-for-bit regardless of the worker count.
    The chunks one process runs share one workspace: each chunk writes its
    draws in place, with the bits of numpy's uniform and exponential, and
    draws and reduces its per-patch uniforms in cache-sized slabs of rows
    (``_SLAB``) whose size changes no result.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    p_clean = clean_selection_probability(econ, stats)
    repair_dist = repair_dist or ValueDistribution()
    harm_dist = harm_dist or ValueDistribution()
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    payload = econ, stats, p_clean, repair_dist, harm_dist, trials
    streams, *rest = run_chunks(_simulate_chunks, payload, -(-trials // _CHUNK), base, workers)
    for parts in rest:  # in chunk order, so the bits do not depend on the workers
        streams = [_merge(*pair) for pair in zip(streams, parts)]
    tp, selected, fp, local, global_ = (_mean_se(*m) for m in streams)  # (mean, se) each
    return EconomySimResult(trials, *global_, *local, *tp, *selected, *fp)


def simulate_bon_repair_frequency(repair_prob_one: float, n: int, trials: int,
                                  seed) -> tuple[float, float]:
    """Monte Carlo frequency with which best-of-N repairs one defect: a
    defect counts as repaired when any of the N independent global draws
    repairs it. Returns (frequency, standard error)."""
    check(bon_rules(repair_prob_one, 1))  # one point: only the probability's rule can fail
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    rng = np.random.default_rng(seed)
    hits = rng.binomial(n, repair_prob_one, size=trials) > 0
    freq = float(hits.mean())
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    return freq, se
