"""Every rule on a kernel's argument that the config also reports is written once,
beside the kernel: the kernel's ValueError and the config error line carry the same
message, the config's at the key that sets the argument. Each best-of-N, Monte Carlo
and worker cap holds at its key and for API callers too, who are stopped before the
Monte Carlo allocates its workspace or the runner starts a pool."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from localtts import theory
from localtts.attention import QualityMap, mask_gen, threshold_mask
from localtts.cli import main as cli_main
from localtts.config import ConfigError, load_config, validate_config
from localtts.errors import FieldErrors
from localtts.search import attention_mask_source
from localtts.seeding import run_chunks
from localtts.theory import (MAX_BON_N, MAX_MC_PATCHES, MAX_MC_TRIALS, ValueDistribution,
                             bon_curve, simulate_bon_repair_frequency, simulate_patch_economy)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def loaded(config: str):
    return load_config(CONFIGS / config)[0]


def maskgen_with(**args):
    """mask_gen on maskgen_example's inputs, args replaced."""
    return mask_gen(**{**loaded("maskgen_example.json").maskgen, **args})


def engine_mask(**args):
    """One row of the testbed's attention masks, its mask arguments replaced."""
    settings = loaded("testbed_small.json").settings
    kwargs = {"gain_pos": settings.gain_pos, "gain_neg": settings.gain_neg,
              "noise_sd": settings.noise_sd, "weight": settings.mask_weight,
              "ratio": settings.mask_ratio, **args}
    return attention_mask_source(settings.world, **kwargs).rows([[0]],
                                                                [np.random.default_rng(0)])


def bon_with(repair_prob_one=0.5, n_max=10):
    return bon_curve(repair_prob_one, loaded("theory_worked.json").economy, n_max)


def monte_carlo_with(trials=100_000, repair_dist=None, **economy):
    """The Monte Carlo of theory_worked.json (100,000 trials), its economy's keys replaced."""
    cfg = loaded("theory_worked.json")
    return simulate_patch_economy(dataclasses.replace(cfg.economy, **economy), cfg.mask_stats,
                                  trials, 0, repair_dist)


def chunk_ran(payload, seeds):
    raise AssertionError("a chunk ran")


def reached(*args, **kwargs):
    raise AssertionError("allocated a workspace or started a pool")


# (shipped config, setting or settings, the key the config reports, a kernel call that
# breaks the rule)
SHARED_RULES = [
    ("maskgen_example.json", "maskgen.weight=-1", "maskgen.weight",
     lambda: maskgen_with(weight=-1.0)),
    ("maskgen_example.json", "maskgen.ratio=1.5", "maskgen.ratio",
     lambda: maskgen_with(ratio=1.5)),
    ("maskgen_example.json", "maskgen.queries=[[1.0, 0.0], [0.0, 1.0]]", "maskgen",
     lambda: maskgen_with(queries=np.eye(2))),
    ("testbed_small.json", "attention.weight=-1", "attention.weight",
     lambda: engine_mask(weight=-1.0)),
    ("scaling_default.json", "attention.ratio=0", "attention.ratio",
     lambda: engine_mask(ratio=0.0)),
    ("testbed_small.json", "attention.ratio=1", "attention.ratio",
     lambda: threshold_mask(QualityMap(values=np.ones(2), grid=(1, 2)), 1.0)),
    ("theory_worked.json", "theory.bon_repair_prob_one=1", "theory.bon_repair_prob_one",
     lambda: bon_with(repair_prob_one=1.0)),
    ("theory_worked.json", "theory.bon_repair_prob_one=0", "theory.bon_repair_prob_one",
     lambda: simulate_bon_repair_frequency(0.0, 3, 10, 0)),
    ("theory_worked.json", "theory.bon_n_max=0", "theory.bon_n_max", lambda: bon_with(n_max=0)),
    ("theory_worked.json", f"theory.bon_n_max={MAX_BON_N + 1}", "theory.bon_n_max",
     lambda: bon_with(n_max=MAX_BON_N + 1)),
    ("theory_worked.json", f"theory.mc_trials={MAX_MC_TRIALS + 1}", "theory.mc_trials",
     lambda: monte_carlo_with(trials=MAX_MC_TRIALS + 1)),
    *(("theory_worked.json", f"economy.{key}=1e300", f"economy.{key}",
       lambda key=key: monte_carlo_with(**{key: 1e300})) for key in ("repair_gain", "harm_loss")),
    ("theory_worked.json", "economy.budget=0", "economy.budget",
     lambda: dataclasses.replace(loaded("theory_worked.json").economy, budget=0.0)),
    ("theory_worked.json", "theory.repair_dist.kind=gamma", "theory.repair_dist.kind",
     lambda: ValueDistribution("gamma")),
    ("theory_worked.json", (f"economy.m_patches={MAX_MC_PATCHES + 1}",
                            'theory.repair_dist={"kind": "exponential"}'), "economy.m_patches",
     lambda: monte_carlo_with(m_patches=MAX_MC_PATCHES + 1,
                              repair_dist=ValueDistribution("exponential"))),
    # two indices: without the rule, 65 workers would start a pool of two processes
    *(("testbed_small.json", f"workers={workers}", "workers",
       lambda workers=workers: run_chunks(chunk_ran, None, 2, np.random.SeedSequence(0), workers))
      for workers in (0, 65)),
]


@pytest.mark.parametrize("config, setting, key, kernel", [
    pytest.param(*rule, id=rule[1] if isinstance(rule[1], str) else "+".join(rule[1]))
    for rule in SHARED_RULES])
def test_config_line_and_kernel_error_share_the_message(config, setting, key, kernel, tmp_path,
                                                        capsys, monkeypatch):
    monkeypatch.setattr(theory, "_workspace", reached)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", reached)
    with pytest.raises(ValueError) as raised:
        kernel()
    name, colon, message = str(raised.value).partition(": ")
    assert colon and name.isidentifier(), str(raised.value)  # "argument: message"
    kind = json.loads((CONFIGS / config).read_text())["kind"]
    settings = [setting] if isinstance(setting, str) else setting
    assert cli_main([kind, "--config", str(CONFIGS / config),
                     *(arg for item in settings for arg in ("--set", item)),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {key}: {message}\n"


@pytest.mark.parametrize("build, error", [
    (lambda: dataclasses.replace(loaded("theory_worked.json").economy, budget=0.0),
     "budget: must be positive, got 0.0"),
    (lambda: ValueDistribution("gamma"), "kind: unknown value distribution kind 'gamma'"),
])
def test_economy_and_value_rules_name_their_field(build, error):
    with pytest.raises(FieldErrors) as raised:
        build()
    assert raised.value.errors == [error]


def test_bon_curve_takes_points_up_to_its_cap():
    assert len(bon_with(n_max=MAX_BON_N).points) == MAX_BON_N


def theory_raw(m_patches: int, **theory) -> dict:
    """theory_worked.json with m_patches patches and the theory keys replaced."""
    raw = json.loads((CONFIGS / "theory_worked.json").read_text())
    raw["economy"]["m_patches"] = m_patches
    raw["theory"].update(theory)
    return raw


EXPONENTIAL = {"kind": "exponential"}


@pytest.mark.parametrize("m_patches, theory", [
    (10 ** 7, {}),  # the binomial path allocates no per-patch rows
    (10 ** 7, {"mc_trials": 0, "repair_dist": EXPONENTIAL}),  # no Monte Carlo
    (MAX_MC_PATCHES, {"harm_dist": {"kind": "uniform"}}),  # the cap itself
])
def test_patch_cap_holds_only_where_the_monte_carlo_draws_per_patch_values(m_patches, theory):
    assert validate_config(theory_raw(m_patches, **theory)).economy.m_patches == m_patches


@pytest.mark.parametrize("dist", ["repair_dist", "harm_dist"])
def test_patch_cap_is_reported_at_m_patches(dist):
    with pytest.raises(ConfigError) as raised:
        validate_config(theory_raw(10 ** 7, **{dist: EXPONENTIAL}))
    assert raised.value.errors == [f"economy.m_patches: must be at most {MAX_MC_PATCHES} when "
                                   "the Monte Carlo draws per-patch values, got 10000000"]
