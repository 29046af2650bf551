import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import localtts
from localtts import harness, search, theory
from localtts.cli import main as cli_main
from localtts.config import (_READS, _SCHEMA, DEFAULTS, RUNTIME_KEYS, ConfigError, load_config,
                              validate_config)
from localtts.harness import run_experiment, sign_test_p_greater
from localtts.testbed import NoisePredictor, PatchWorld

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {"theory": "theory_worked.json", "testbed": "testbed_small.json",
           "scaling": "scaling_default.json", "maskgen": "maskgen_example.json"}
# the largest repair_gain or harm_loss theory_worked.json's 100,000 Monte Carlo trials over 100
# patches accept: the span of a trial's value, under 45 * 100 means, squared and times 4,096 *
# 100,000 stays below the largest float
MC_MEAN_CAP = (sys.float_info.max / 100_000) ** 0.5 / (45 * 64) / 100


def theory_raw(**over):
    raw = {
        "kind": "theory",
        "master_seed": 7,
        "economy": {
            "m_patches": 100, "defects": 10, "repair_gain": 1.0, "harm_loss": 0.5,
            "repair_prob_global": 0.5, "repair_prob_local": 0.5,
            "harm_prob_global": 0.1, "harm_prob_local": 0.1,
            "cost_global": 1.0, "cost_local": 1.0, "budget": 1.0,
        },
        "mask_stats": {"recall": 0.8, "precision": 0.8},
        "theory": {"mc_trials": 20000, "bon_repair_prob_one": 0.5, "bon_n_max": 20},
    }
    raw.update(over)
    return raw


def make_testbed_raw(**over):
    raw = {
        "kind": "testbed",
        "master_seed": 11,
        "trials": 60,
        "world": {"grid": [4, 4], "patch_dim": 2,
                  "components": [{"weight": 1.0, "mean": 0.0, "variance": 0.09}]},
        "schedule": {"horizon": 1.0, "n_steps": 16},
        "resample": {"t0": 0.4, "t_g": 0.04, "n_refine": 8, "n_integrate": 2},
        "defects": {"count": 3, "magnitude": 0.6, "randomize": False},
        "attention": {"gain_pos": 0.3, "gain_neg": 0.3, "noise_sd": 0.2,
                      "weight": 0.5, "ratio": 0.25, "oracle_masks": False},
    }
    raw.update(over)
    return raw


class TestPaperDefaults:
    def test_hyperparameter_defaults(self):
        assert DEFAULTS["attention"]["weight"] == 0.5
        assert DEFAULTS["attention"]["ratio"] == 0.5
        assert DEFAULTS["search"]["refinements"] == 2
        assert DEFAULTS["search"]["seeds"] == 3


class TestValidateConfig:
    def test_handoff_after_renoise_time_reported_at_path(self):
        raw = make_testbed_raw()
        raw["resample"]["t_g"] = 0.5
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any(msg.startswith("resample.t_g") for msg in err.value.errors)

    def test_zero_precision_cites_degenerate_exclusion(self):
        raw = theory_raw()
        raw["mask_stats"]["precision"] = 0.0
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        messages = [m for m in err.value.errors if m.startswith("mask_stats.precision")]
        assert messages and "degenerate" in messages[0]

    @pytest.mark.parametrize("kind", sorted(SHIPPED))
    def test_resolved_holds_only_the_keys_its_kind_reads(self, kind):
        cfg = validate_config(json.loads((CONFIGS / SHIPPED[kind]).read_text()))
        assert sorted(cfg.resolved) == sorted(["kind", *_READS[kind]])
        assert (cfg.trials is None) == ("trials" not in _READS[kind])
        assert (cfg.master_seed is None) == ("master_seed" not in _READS[kind])

    def test_missing_master_seed_defaults_with_warning(self):
        raw = theory_raw()
        del raw["master_seed"]
        cfg = validate_config(raw)
        assert cfg.master_seed == 0
        assert any("master_seed" in w for w in cfg.warnings)

    def test_all_errors_collected_not_just_first(self):
        raw = make_testbed_raw()
        raw["resample"]["t_g"] = 0.9
        raw["schedule"]["n_steps"] = 0
        raw["defects"]["count"] = 99
        raw["attention"]["ratio"] = 1.5
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        joined = "\n".join(err.value.errors)
        for path in ("resample.t_g", "schedule.n_steps", "defects.count",
                     "attention.ratio"):
            assert path in joined

    def test_unknown_keys_rejected(self):
        raw = theory_raw()
        raw["economny"] = {}
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(raw)
        raw2 = theory_raw()
        raw2["economy"]["m_patchez"] = 5
        with pytest.raises(ConfigError, match="economy.m_patchez"):
            validate_config(raw2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"kind": "mystery"})

    def test_scaling_grid_must_split_evenly(self):
        raw = {
            "kind": "scaling", "master_seed": 0, "trials": 4,
            "search": {"n_grid": [1, 4], "refinements": 2},
        }
        with pytest.raises(ConfigError, match="n_grid"):
            validate_config(raw)

    def test_maskgen_requires_exactly_one_source(self):
        raw = {"kind": "maskgen", "maskgen": {"weight": 0.5, "ratio": 0.5}}
        with pytest.raises(ConfigError, match="exactly one attention source"):
            validate_config(raw)
        raw2 = {"kind": "maskgen", "maskgen": {
            "bundle": {}, "raw": {}}}
        with pytest.raises(ConfigError, match="exactly one attention source"):
            validate_config(raw2)

    @pytest.mark.parametrize("value", [True, 9.0, 4])
    def test_reference_n_must_be_an_integer_from_n_grid(self, value):
        # True == 1 and 9.0 == 9, but neither is a JSON integer
        with pytest.raises(ConfigError) as err:
            load_config(CONFIGS / "scaling_default.json",
                        [f"search.reference_n={json.dumps(value)}"])
        assert err.value.errors == [
            f"search.reference_n: must be a value from n_grid, got {value!r}"]


class TestLoadConfig:
    def test_overrides_apply_and_are_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(theory_raw()))
        cfg, applied = load_config(path, ["mask_stats.recall=0.9", "master_seed=5"])
        assert cfg.mask_stats.recall == 0.9
        assert applied == ["mask_stats.recall=0.9", "master_seed=5"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_missing_maskgen_document_fails_at_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "maskgen", "maskgen": {"bundle": "absent.json"}}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.errors == [f"maskgen.bundle: file not found: {tmp_path / 'absent.json'}"]

    def test_bad_override_syntax(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(theory_raw()))
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["trials"])

    @pytest.mark.parametrize("text, overrides, error", [
        pytest.param('{"kind": ', [], "config: cannot read JSON from <cfg>: Expecting value",
                     id="invalid-json"),
        # a --set value that is not JSON is kept as a string: here the file the bundle is in
        pytest.param(json.dumps({"kind": "maskgen"}), ["maskgen.bundle=bundle.json"], None,
                     id="set-value-not-json"),
        pytest.param(json.dumps(theory_raw()), ["economy.m_patches.x=1"],
                     "--set economy.m_patches.x: path collides with a scalar",
                     id="set-through-scalar"),
    ])
    def test_config_file_and_overrides(self, text, overrides, error, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        if error is None:  # the file is read beside the config
            (tmp_path / "bundle.json").write_text(json.dumps(BUNDLE["bundle"]))
            cfg, applied = load_config(path, overrides)
            assert cfg.resolved["maskgen"]["bundle"] == "bundle.json" and applied == overrides
            return
        with pytest.raises(ConfigError) as info:
            load_config(path, overrides)
        assert info.value.errors[0].startswith(error.replace("<cfg>", str(path)))


class TestTheoryExperiment:
    def test_worked_economy_report(self, tmp_path):
        cfg = validate_config(theory_raw())
        report = run_experiment(cfg, tmp_path)
        closed = report["results"]["closed_form"]
        assert closed["dominance_margin"] == pytest.approx(3.4)
        assert closed["required_recall"] == pytest.approx(0.10256410256, rel=1e-9)
        assert closed["precision_floor"] == pytest.approx(1 / 11)
        mc = report["results"]["monte_carlo"]
        assert abs(mc["gain_local_mean"] - 3.9) < 3 * mc["gain_local_se"]
        assert (tmp_path / "economy_mc.csv").exists()
        assert (tmp_path / "bon_curve.csv").exists()
        header = (tmp_path / "economy_mc.csv").read_text().splitlines()[0]
        assert header == "quantity,closed_form,estimate,stderr"

    def test_report_body_reproducible(self, tmp_path):
        cfg = validate_config(theory_raw())
        run_experiment(cfg, tmp_path / "a")
        cfg2 = validate_config(theory_raw())
        run_experiment(cfg2, tmp_path / "b")
        for name in ("report.json", "economy_mc.csv", "bon_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_below_floor_precision_reports_reason_not_crash(self, tmp_path):
        # precision 0.08 sits below the 1/11 floor, but the simulator stays
        # feasible at recall 0.5 (57.5 expected false positives < 90 clean)
        raw = theory_raw()
        raw["mask_stats"] = {"recall": 0.5, "precision": 0.08}
        raw["theory"]["mc_trials"] = 1000
        cfg = validate_config(raw)
        report = run_experiment(cfg, tmp_path)
        closed = report["results"]["closed_form"]
        assert closed["required_recall"] is None
        assert "net benefit" in closed["required_recall_error"]


    def test_non_finite_report_value_exit_two_before_writing(self, tmp_path, monkeypatch):
        # JSON has no Infinity: the report names the config and results values that hold one
        monkeypatch.setattr(harness, "run_theory", lambda cfg: ({"gain": math.inf}, {}))
        cfg = validate_config(theory_raw())
        cfg.resolved["economy"]["budget"] = math.nan
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg, tmp_path / "out")
        assert info.value.errors == [
            "config.economy.budget: nan (JSON has no NaN or Infinity)",
            "results.gain: inf (overflow: a config number is too large)"]
        assert not (tmp_path / "out").exists()


class TestTestbedExperiment:
    def test_trial_rows_and_summary(self, tmp_path):
        cfg = validate_config(make_testbed_raw())
        report = run_experiment(cfg, tmp_path)
        results = report["results"]
        assert results["trials"] == 60
        assert results["nfe_per_trial"] == 16 + 8 + 2
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == ("trial,anchor_score,refined_score,improvement,"
                            "mask_recall,mask_precision,nfe")
        assert len(lines) == 61

    def test_measured_nfe_off_analytic_raises(self, tmp_path, monkeypatch):
        trials = harness.testbed_trials

        def one_nfe_short(settings, seed_seqs):
            return [(*row, nfe - 1) for *row, nfe in trials(settings, seed_seqs)]

        monkeypatch.setattr(harness, "testbed_trials", one_nfe_short)
        cfg = validate_config(make_testbed_raw(trials=2))
        with pytest.raises(RuntimeError, match=r"measured NFE \[25\] differs from analytic 26"):
            run_experiment(cfg, tmp_path)

    def test_zero_magnitude_improvement_is_statistically_zero(self, tmp_path):
        raw = make_testbed_raw(trials=150)
        raw["defects"]["magnitude"] = 0.0
        raw["resample"] = {"t0": 0.4, "t_g": 0.04, "n_refine": 16, "n_integrate": 2}
        raw["schedule"]["n_steps"] = 32
        cfg = validate_config(raw)
        report = run_experiment(cfg, tmp_path)
        results = report["results"]
        assert abs(results["mean_improvement"]) < 3 * results["stderr_improvement"]

    def test_worker_counts_produce_identical_bytes(self, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            cfg = validate_config(make_testbed_raw(trials=24, workers=workers))
            out = tmp_path / f"w{workers}"
            run_experiment(cfg, out)
            blobs.append((out / "report.json").read_bytes()
                         + (out / "trials.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestRenderCsv:
    def test_numpy_scalars_print_as_python_scalars(self):
        floats = [0.1, 1 / 3, -7.0, 1e-30, 2.5e30, 5e-324, sys.float_info.max, math.pi]
        ints, bools = [0, -3, 2 ** 62], [True, False]
        header = ["c"] * (len(floats) + len(ints) + len(bools))
        numpy_row = ([np.float64(v) for v in floats] + [np.int64(v) for v in ints]
                     + [np.bool_(v) for v in bools])
        assert harness.render_csv(header, [numpy_row]) == \
            harness.render_csv(header, [floats + ints + bools])


def _first_draw(payload, seed_seq):
    """A trial's first draw from its own generator, times payload."""
    return payload * np.random.default_rng(seed_seq).random()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_trials_equals_its_trials_one_by_one(workers):
    # the entry point that perfbench's pool probe times: one call per trial seed, in order
    want = [_first_draw(3.0, harness.trial_seed(7, i)) for i in range(5)]
    assert harness.run_trials(_first_draw, 3.0, 5, 7, workers=workers) == want


K3 = json.dumps([{"weight": 0.3, "mean": -0.8, "variance": 0.09},
                 {"weight": 0.5, "mean": 0.4, "variance": 0.25},
                 {"weight": 0.2, "mean": 1.5, "variance": 0.04}])


@pytest.mark.parametrize("config, overrides", [
    # the testbed_k3 benchmark's world: 8 x 8 patches of dim 4, three components
    ("testbed_small.json", ["trials=4", "world.grid=[8,8]", "world.patch_dim=4",
                            f"world.components={K3}", "defects.count=6"]),
    ("scaling_default.json", ["trials=2"]),
    ("theory_worked.json", ['theory.repair_dist={"kind": "exponential"}',
                            'theory.harm_dist={"kind": "uniform"}', "theory.mc_trials=4609"]),
])
def test_report_bytes_do_not_depend_on_numpys_buffer(config, overrides, tmp_path):
    # each reverse phase sizes numpy's buffer to its rows; the ambient size, smaller or
    # larger, moves no byte of any output file
    cfg = load_config(CONFIGS / config, [*overrides, "workers=1"])[0]
    outputs = []
    for size in (16, 8192, 65536):
        with np.errstate():
            np.setbufsize(size)
            run_experiment(cfg, tmp_path / str(size))
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / str(size)).iterdir()})
    assert "report.json" in outputs[0] and outputs[1] == outputs[0] == outputs[2]


class TestSignTest:
    def test_matches_scipy_binomial_tail(self):
        # binomtest(k, n, 0.5, alternative="greater").pvalue is binom.sf(k - 1, n, 0.5);
        # the exact tail is correctly rounded, scipy's is off in the last bits
        for n in range(0, 301, 3):
            k = np.arange(n + 1)
            exact = [sign_test_p_greater(int(i), n) for i in k]
            np.testing.assert_allclose(exact, binom.sf(k - 1, n, 0.5), rtol=1e-12, atol=0)


class TestScalingExperiment:
    @staticmethod
    def scaling_raw(**over):
        raw = {
            "kind": "scaling", "master_seed": 5, "trials": 12,
            "world": {"grid": [4, 4], "patch_dim": 2,
                      "components": [{"weight": 1.0, "mean": 0.0, "variance": 0.09}]},
            "schedule": {"horizon": 1.0, "n_steps": 8},
            "resample": {"t0": 0.4, "t_g": 0.04, "n_refine": 4, "n_integrate": 1},
            "search": {"seeds": 3, "refinements": 2, "n_grid": [1, 3],
                       "bon_grid": [1, 2, 4], "reference_n": 3},
            "defects": {"count": 3, "magnitude": 0.6, "randomize": True},
            "attention": {"gain_pos": 0.3, "gain_neg": 0.3, "noise_sd": 0.2,
                          "weight": 0.5, "ratio": 0.25, "oracle_masks": False},
        }
        raw.update(over)
        return raw

    def test_rows_and_crossover(self, tmp_path):
        cfg = validate_config(self.scaling_raw())
        report = run_experiment(cfg, tmp_path)
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert lines[0] == "method,n,nfe,mean_score,stderr,trials"
        assert len(lines) == 1 + 2 + 3
        assert all(line.split(",")[-1] == "12" for line in lines[1:])
        crossover = report["results"]["crossover"]
        assert crossover["reference_n"] == 3
        assert crossover["reference_nfe"] == 8 + 2 * 5

    def test_localized_rows_report_mask_recall_and_precision(self, tmp_path):
        raw = self.scaling_raw()
        raw["defects"]["randomize"] = False
        raw["attention"]["oracle_masks"] = True
        rows = run_experiment(validate_config(raw), tmp_path)["results"]["rows"]
        masks = {(r["method"], r["n"]): (r["mask_recall"], r["mask_precision"]) for r in rows}
        # n = 1 is one plain sample and best-of-N refines nothing: no masks
        assert masks == {("localized", 1): (None, None), ("localized", 3): (1.0, 1.0),
                         ("best_of_n", 1): (None, None), ("best_of_n", 2): (None, None),
                         ("best_of_n", 4): (None, None)}
        lines = (tmp_path / "scaling.csv").read_text().splitlines()
        assert lines[0] == "method,n,nfe,mean_score,stderr,trials"

    def test_worker_counts_produce_identical_bytes(self, tmp_path):
        blobs = []
        for workers in (1, 4):
            cfg = validate_config(self.scaling_raw(workers=workers))
            out = tmp_path / f"w{workers}"
            run_experiment(cfg, out)
            blobs.append((out / "report.json").read_bytes()
                         + (out / "scaling.csv").read_bytes())
        assert blobs[0] == blobs[1]


    def test_oracle_batches_stay_within_one_block(self, tmp_path, monkeypatch):
        # 12 trials of 1 + 1 localized seeds and 160 best-of-N draws: 1,944
        # base rows of 8 + 1 noise draws at dim 32, more than one block holds
        raw = self.scaling_raw()
        raw["search"]["bon_grid"] = [1, 2, 160]
        block_rows = search._BLOCK_NOISE // (9 * 32)
        assert 12 * (2 + 160) > block_rows
        evaluate, rows = NoisePredictor.evaluate, []

        def counting(predictor, x, t, patches=None):
            rows.append(len(x))
            return evaluate(predictor, x, t, patches)

        monkeypatch.setattr(NoisePredictor, "evaluate", counting)
        run_experiment(validate_config(raw), tmp_path / "w1")
        monkeypatch.undo()
        # one block runs 8 base steps and 4 + 1 refinement steps: more ran
        assert len(rows) > 8 + 5 and max(rows) <= block_rows
        assert sum(rows) == 12 * (2 * 8 + 2 * 5 + 160 * 8)
        run_experiment(validate_config({**raw, "workers": 2}), tmp_path / "w2")
        names = sorted(path.name for path in (tmp_path / "w1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "w2").iterdir())
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


class TestMaskgenExperiment:
    def test_inline_bundle(self, tmp_path):
        raw = {
            "kind": "maskgen",
            "maskgen": {
                "bundle": {"grid": [1, 4], "orig": [1, 1, 1, 1],
                           "pos": [1, 0.2, 1, 1], "neg": [1, 1.4, 1, 1]},
                "weight": 0.5, "ratio": 0.25,
            },
        }
        cfg = validate_config(raw)
        report = run_experiment(cfg, tmp_path)
        mask = json.loads((tmp_path / "mask.json").read_text())
        assert mask["bits"] == [0, 1, 0, 0]
        assert report["results"]["selected"] == 1

    def test_raw_tensor_paths_and_queries(self, tmp_path):
        for name, bump in (("orig", 0.0), ("pos", -0.5), ("neg", 0.5)):
            values = [1.0, 1.0 + bump, 1.0, 1.0]
            doc = {"grid": [2, 2], "layers": 1, "heads": 1, "tokens": 1,
                   "data": values}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        queries = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
        raw = {
            "kind": "maskgen",
            "maskgen": {
                "raw": {"orig": "orig.json", "pos": "pos.json", "neg": "neg.json"},
                "queries": queries, "weight": 0.5, "ratio": 0.25,
            },
        }
        cfg = validate_config(raw, base_dir=tmp_path)
        report = run_experiment(cfg, tmp_path / "out")
        mask = json.loads((tmp_path / "out" / "mask.json").read_text())
        assert sum(mask["bits"]) == 1
        assert mask["bits"][1] == 1


    def test_file_form_writes_the_inline_form_mask(self, tmp_path):
        # each input read from its file, relative to the config's directory, gives the
        # mask.json of the same value written inline, byte for byte
        raw = {key: {"grid": [2, 3], "layers": layers, "heads": 2, "tokens": 1,
                     "data": [step * i % 5 / 3 for i in range(layers * 2 * 6)]}
               for key, layers, step in (("orig", 1, 1), ("pos", 2, 2), ("neg", 3, 3))}
        queries = [[0.0, 1.0], [3.0, 0.0], [1.0, 0.5], [0.0, -1.0], [3.0, 0.0], [2.0, 1.0]]
        (tmp_path / "docs").mkdir()
        for name, doc in (("bundle", BUNDLE["bundle"]), ("queries", queries), *raw.items()):
            (tmp_path / "docs" / f"{name}.json").write_text(json.dumps(doc))
        forms = {
            "bundle": {"bundle": BUNDLE["bundle"], "queries": queries},
            "bundle-file": {"bundle": "docs/bundle.json", "queries": "docs/queries.json"},
            "raw": {"raw": raw, "queries": queries},
            "raw-files": {"raw": {"orig": "docs/orig.json", "pos": raw["pos"],
                                  "neg": str(tmp_path / "docs" / "neg.json")},
                          "queries": "docs/queries.json"},
        }
        masks = {}
        for name, source in forms.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"kind": "maskgen", "maskgen": source}))
            assert cli_main(["maskgen", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0
            masks[name] = (tmp_path / name / "mask.json").read_bytes()
        assert masks["bundle-file"] == masks["bundle"]
        assert masks["raw-files"] == masks["raw"]
        assert masks["bundle"] != masks["raw"]  # the two pairs do not pass by one constant mask


def one_component(mean, variance) -> str:
    return f'world.components=[{{"weight": 1, "mean": {mean}, "variance": {variance}}}]'


def set_args(setting) -> list:
    """The --set arguments of one setting, or of each of a tuple of settings."""
    return [arg for one in ((setting,) if isinstance(setting, str) else setting)
            for arg in ("--set", one)]


# faults that ended in a traceback (a non-finite mask quality or state, cos(inf), or a
# reverse step from time 0), each with its one-line config error
MASK_AND_TIME_FAULTS = [
    ("attention.weight=1.7e308", "attention.weight: overflows the mask quality, got 1.7e+308"),
    # each key runs alone, the pair overflows
    (("attention.weight=1e200", "attention.noise_sd=5e152"),
     "attention.weight: overflows the mask quality, got 1e+200"),
    (("attention.weight=1e308", "attention.gain_neg=1e308"),
     "attention.weight: overflows the mask quality, got 1e+308"),
    ("schedule.horizon=1.7976931348623157e308",
     "schedule.horizon: overflows the phase 0.5 pi t, got 1.7976931348623157e+308"),
    ("schedule.horizon=1e200", "schedule.horizon: makes sigma(t)^2 underflow to 0 where the "
     "last reverse step starts, got 1e+200"),
    ("resample.t_g=1e-13",
     "resample.t_g: leaves the last reverse step starting within 1e-12 of 0, got 1e-13"),
    (("resample.t0=1e-11", "resample.t_g=0", "resample.n_integrate=0"),
     "resample.t0: leaves the last reverse step starting within 1e-12 of 0, got 1e-11"),
]


BUNDLE = {"bundle": {"grid": [2, 3], "orig": [1.0] * 6,
                     "pos": [0.9, 0.2, 0.8, 0.9, 0.8, 0.9], "neg": [0.9, 1.6, 0.8, 0.9, 0.8, 0.9]}}


# a small run of each shipped config: its overrides and the kind modules whose bodies it runs
RUN_MODULES = {
    "theory_worked.json": (["theory.mc_trials=1000"], ["theory"]),
    "maskgen_example.json": ([], ["attention"]),
    "testbed_small.json": (["trials=2"], ["attention", "resample", "search", "testbed"]),
    "scaling_default.json": (["trials=2"], ["attention", "resample", "search", "testbed"]),
}


class TestCli:
    def write(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, theory_raw(theory={"mc_trials": 500}))
        code = cli_main(["theory", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        raw = theory_raw()
        raw["mask_stats"]["precision"] = 0.0
        path = self.write(tmp_path, raw)
        code = cli_main(["theory", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mask_stats.precision" in capsys.readouterr().err

    def test_maskgen_ratio_out_of_range_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {
            "bundle": {"grid": [1, 2], "orig": [1, 1], "pos": [1, 0.2], "neg": [1, 1.4]},
            "weight": 0.5, "ratio": 1.5}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: maskgen.ratio: must lie strictly inside (0, 1), got 1.5\n" \
            in capsys.readouterr().err

    def test_kind_mismatch_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, theory_raw())
        assert cli_main(["testbed", "--config", path, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("out", ["taken", "taken/run"])
    def test_unusable_out_exits_two_before_the_run(self, out, tmp_path, capsys, monkeypatch):
        # --out an existing file, or a path under one, where no directory can be made: the
        # run stops before its runner starts and writes nothing
        def reached(*args, **kwargs):
            raise AssertionError("the runner ran")

        monkeypatch.setattr(harness, "run_theory", reached)
        (tmp_path / "taken").write_text("kept")
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"),
                         "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err == (f"config error: --out {tmp_path / out}: "
                                           f"{tmp_path / 'taken'} is not a directory\n")
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_text() == "kept"

    def test_infeasible_exit_three(self, tmp_path, capsys):
        raw = theory_raw()
        raw["economy"]["m_patches"] = 60
        raw["economy"]["defects"] = 50
        raw["mask_stats"] = {"recall": 1.0, "precision": 0.1}
        path = self.write(tmp_path, raw)
        code = cli_main(["theory", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_set_overrides_are_recorded_in_report(self, tmp_path, capsys):
        path = self.write(tmp_path, theory_raw(theory={"mc_trials": 500}))
        out = tmp_path / "out"
        code = cli_main(["theory", "--config", path, "--set",
                         "mask_stats.recall=0.9", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overrides"] == ["mask_stats.recall=0.9"]
        assert report["config"]["mask_stats"]["recall"] == 0.9

    def test_resolved_document_records_distribution_specs_as_run(self, tmp_path, capsys):
        path = self.write(tmp_path, theory_raw(theory={"mc_trials": 500}))
        out = tmp_path / "out"
        assert cli_main(["theory", "--config", path, "--set", "theory.repair_dist={}",
                         "--set", "theory.harm_dist=null", "--out", str(out)]) == 0
        theory = json.loads((out / "report.json").read_text())["config"]["theory"]
        assert theory["repair_dist"] == theory["harm_dist"] == {"kind": "constant"}

    def test_worker_count_leaves_every_output_file_unchanged(self, tmp_path, capsys):
        path = self.write(tmp_path, make_testbed_raw(trials=8))
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert cli_main(["testbed", "--config", path, "--set", f"workers={workers}",
                             "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_runs(self, name, tmp_path, capsys):
        kind = json.loads((CONFIGS / name).read_text())["kind"]
        trials = ["--set", "trials=2"] if kind in ("testbed", "scaling") else []
        assert cli_main([kind, "--config", str(CONFIGS / name), *trials,
                         "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["kind"] == kind

    @pytest.mark.parametrize("setting, error", [
        ("attention.noise_sd=Infinity", "attention.noise_sd: expected a number, got inf"),
        ("schedule.horizon=1e400", "schedule.horizon: expected a number, got inf"),
        ("schedule.n_steps=" + "9" * 400, "schedule.n_steps: expected an integer"),
        ("resample.t0=NaN", "resample.t0: expected a number, got nan"),
        ('world.components=[{"weight": 1, "mean": [0, Infinity], "variance": 1}]',
         "world.means: must be finite"),
        ('world.components=[{"weight": 1, "mean": ' + "9" * 400 + ', "variance": 1}]',
         "world: int too large to convert to float"),
        ('world.components=[{"weight": 1, "mean": {}, "variance": 1}]',
         "world.components[0].mean: expected a number or a list of numbers, got {}"),
        ('world.components=[{"weight": 1, "mean": true, "variance": 1}]',
         "world.components[0].mean: expected a number or a list of numbers, got True"),
        # PatchWorld owns the grid rule; the config layer reports it at world.grid
        ("world.grid=[0,4]", "world.grid: grid must be two positive integers, got (0, 4)"),
        ("world.grid=[4]", "world.grid: grid must be two positive integers, got (4,)"),
        ("world.grid=[2,3.7]", "world.grid: expected a list of integers, got [2, 3.7]"),
    ])
    def test_non_finite_or_oversized_number_exit_two(self, setting, error, tmp_path, capsys):
        path = self.write(tmp_path, make_testbed_raw(trials=2))
        assert cli_main(["testbed", "--config", path, "--set", setting,
                         "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("config, setting, errors", [
        ("testbed_small.json", "schedule.n_steps=1e300",
         ["schedule.n_steps: expected an integer, got 1e+300"]),
        ("testbed_small.json", "defects.magnitude=1e200",
         ["defects.magnitude: overflows the oracle, got 1e+200"]),
        ("testbed_small.json", "resample.n_refine=1000000000000",
         ["resample.n_refine: plus n_integrate must be at most 100000, got 1e+12"]),
        # the Monte Carlo's moments bound the mean first (see test_overflowing_closed_form_exit_two)
        ("theory_worked.json", "economy.repair_gain=1e308",
         [f"economy.repair_gain: must be at most {MC_MEAN_CAP!r} at 100 patches and 100000 "
          "Monte Carlo trials, got 1e+308"]),
        ("testbed_small.json", "schedule.n_steps=1000000",
         ["schedule.n_steps: must be at most 100000, got 1e+06"]),
        # search.seeds is ignored by the sweep, but still an integer
        ("scaling_default.json", "search.seeds=1e400",
         ["search.seeds: expected an integer, got inf"]),
    ])
    def test_overflowing_number_exit_two(self, config, setting, errors, tmp_path, capsys):
        # finite but huge numbers: a range rule in the owning type, or the report
        # writer refusing a non-finite result, instead of a traceback or invalid JSON
        kind = json.loads((CONFIGS / config).read_text())["kind"]
        assert cli_main([kind, "--config", str(CONFIGS / config), "--set", setting,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(f"config error: {error}" in err for error in errors), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", ["testbed_small.json", "scaling_default.json"])
    def test_defect_magnitude_past_the_score_cap_exit_two(self, config, tmp_path, capsys):
        # m^2 d / variance is finite at 1e80, but above PatchWorld.MAX_SCORE: the scores'
        # squared sums would overflow after every trial had run
        kind = json.loads((CONFIGS / config).read_text())["kind"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([kind, "--config", str(CONFIGS / config), "--set",
                             "defects.magnitude=1e80", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: defects.magnitude: overflows the oracle, got 1e+80\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_closed_form_exit_two(self, tmp_path, capsys):
        # no Monte Carlo: the report writer refuses the closed forms the mean overflowed
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"),
                         "--set", "economy.repair_gain=1e308", "--set", "theory.mc_trials=0",
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(f"config error: results.closed_form.{field}: {value} (overflow: a config "
                   "number is too large)" in err for field, value in (
                       ("per_trial_gain_global", "inf"), ("budget_gain_local", "inf"),
                       ("dominance_margin", "nan"))), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, hits", [
        ("economy.cost_local=1e-320", [("budget_gain_local", "inf"), ("dominance_margin", "inf")]),
        ("economy.cost_global=1e-320", [("budget_gain_global", "inf"),
                                        ("dominance_margin", "-inf"), ("required_recall", "inf")]),
        ("economy.budget=1e308", [("budget_gain_local", "inf")]),
    ])
    def test_overflowing_closed_form_stops_before_the_monte_carlo(self, setting, hits, tmp_path,
                                                                  capsys, monkeypatch):
        # each setting is valid, but a quotient of the closed forms overflows: the run stops
        # with the report writer's lines before a Monte Carlo trial runs
        def reached(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(theory, "simulate_patch_economy", reached)
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"),
                         "--set", setting, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "".join(
            f"config error: results.closed_form.{field}: {value} (overflow: a config number is "
            "too large)\n" for field, value in hits)
        assert not (tmp_path / "out").exists()

    def test_overflowing_bon_curve_stops_before_the_monte_carlo(self, tmp_path, capsys,
                                                                monkeypatch):
        # the closed forms are finite, but the best-of-N curve divides by n * cost_global:
        # its first non-finite point stops the run before a Monte Carlo trial runs
        def reached(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(theory, "simulate_patch_economy", reached)
        settings = ["cost_global=1e-310", "cost_local=1e-310", "budget=1e-10",
                    "repair_prob_global=1e-10", "harm_prob_global=0", "repair_prob_local=1e-10",
                    "harm_prob_local=0"]
        overrides = [arg for setting in settings for arg in ("--set", f"economy.{setting}")]
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"), *overrides,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: results.bon.curve.1.normalized_gain: "
                                           "inf (overflow: a config number is too large)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings, errors", [
        # at d = 2 one row of 2e6 coordinates and an S x S mask of 1e12 entries
        (["world.grid=[1000,1000]"],
         ["world.grid: must have at most 1024 patches, got 1000000",
          "world.patch_dim: times 1000000 patches must be at most 65536, got 2000000"]),
        # PatchWorld.uniform would build a mean array of at least 8 GB
        (["world.patch_dim=1000000000"],
         ["world.patch_dim: times 16 patches must be at most 65536, got 16000000000"]),
        # one row's noise in one phase
        (["world.patch_dim=64", "schedule.n_steps=5000"],
         ["schedule.n_steps: draws 5121024 noise coordinates a row at world dim 1024, "
          "more than 4194304"]),
        (["world.patch_dim=4096", "resample.n_refine=99000"],
         ["resample.n_refine: draws 6488326144 noise coordinates a row at world dim 65536, "
          "more than 4194304"]),
    ])
    def test_size_cap_exit_two_before_allocating(self, settings, errors, tmp_path, capsys):
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        tracemalloc.start()
        try:
            code = cli_main(["testbed", "--config", str(CONFIGS / "testbed_small.json"),
                             *overrides, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert all(f"config error: {error}" in err for error in errors), err
        assert peak < 1 << 22  # validation alone: no array of the world or a row was built
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, settings, errors", [
        # each value is one above its cap, so a missing cap costs time, not gigabytes.
        # A maskgen run reads no trials, so it rejects the key before any cap
        ("maskgen_example.json", ["trials=65537"], ["trials: not read by a maskgen run"]),
        # one Monte Carlo result per 4,096 trials, kept until the merge
        ("theory_worked.json", ["theory.mc_trials=100000001"],
         ["theory.mc_trials: must be at most 100000000, got 100000001"]),
        # a sweep's step grid and each row's base-step noise are materialised
        ("scaling_default.json", ["trials=2", "schedule.n_steps=100001"],
         ["schedule.n_steps: must be at most 100000, got 100001"]),
        # one seed's refinements share a block, so their noise is one buffer
        ("scaling_default.json", ["trials=2", "search.refinements=6554",
                                  "search.n_grid=[1,6555]", "search.reference_n=1"],
         ["search.refinements: draw 4194560 noise coordinates a seed at world dim 32, "
          "more than 4194304"]),
        # each worker is a process of its own
        ("maskgen_example.json", ["workers=65"], ["workers: must be at most 64, got 65"]),
        # bon_curve keeps every point, and the report writes a CSV row of each
        ("theory_worked.json", ["theory.mc_trials=0", "theory.bon_n_max=100001"],
         ["theory.bon_n_max: must be at most 100000, got 100001"]),
        # per-patch values: each process holds 4,608 rows of the patches. One trial, so a
        # missing cap reserves that workspace but writes one row of it
        ("theory_worked.json", ["theory.mc_trials=1", "economy.m_patches=25001",
                                'theory.repair_dist={"kind": "exponential"}'],
         ["economy.m_patches: must be at most 25000 when the Monte Carlo draws per-patch "
          "values, got 25001"]),
        # at one worker every trial's seed is built before the first trial
        ("testbed_small.json", ["trials=65537"], ["trials: must be at most 65536, got 65537"]),
    ])
    def test_count_cap_exit_two_before_allocating(self, config, settings, errors, tmp_path,
                                                  capsys):
        kind = json.loads((CONFIGS / config).read_text())["kind"]
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        tracemalloc.start()
        try:
            code = cli_main([kind, "--config", str(CONFIGS / config), *overrides,
                             "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert all(f"config error: {error}\n" in err for error in errors), err
        assert peak < 1 << 22  # validation alone: no seed, task list or search was built
        assert not (tmp_path / "out").exists()

    def test_search_budget_has_no_cap(self):
        # the sweep reduces each seed as the engine yields it, so a budget's memory is
        # one block's and no budget is too large to validate
        raw = json.loads((CONFIGS / "scaling_default.json").read_text())
        raw["search"]["bon_grid"] = [26215]
        assert validate_config(raw).settings.bon_grid == (26215,)

    def test_size_caps_admit_the_largest_worlds_in_use(self):
        # the caps themselves, S = 256 at d = 4, and the testbed_k3 workload's 8 x 8 at d = 4
        for grid, d in (((32, 32), 64), ((16, 16), 4), ((8, 8), 4)):
            assert PatchWorld.uniform(grid, d, [(1.0, 0.0, 0.09)]).dim == grid[0] * grid[1] * d

    @pytest.mark.parametrize("config, setting, error", [
        # 2.0 == 2 and true == 1, but neither is a JSON integer
        *((config, f"{key}={value}", f"{key}: expected an integer, got {shown}")
          for config, key in (("testbed_small.json", "trials"),
                              ("testbed_small.json", "schedule.n_steps"),
                              ("theory_worked.json", "economy.defects"),
                              ("scaling_default.json", "search.refinements"))
          for value, shown in (("2.0", "2.0"), ("true", "True"))),
        *(("scaling_default.json", f"search.n_grid=[1,3,6,{value}]",
           f"search.n_grid: expected a list of integers, got [1, 3, 6, {shown}]")
          for value, shown in (("9.0", "9.0"), ("true", "True"))),
        ("testbed_small.json", 'world.components=[{"weight": 1, "meen": 0.5, "variance": 0.09}]',
         "world.components[0].meen: unknown key"),
        # a section the kind does not read is reported, not dropped
        ("testbed_small.json", 'search.n_grid="junk"', "search: not read by a testbed run"),
        ("testbed_small.json", "economy.bogus=1", "economy: not read by a testbed run"),
        # the interchange documents reject unknown keys, as the config document does
        ("maskgen_example.json", "maskgen.bundle.note=NaN", "maskgen.bundle.note: unknown key"),
        # a maskgen input names its file under its own key: there is no second key for it
        ("maskgen_example.json", "maskgen.bundle_path=x", "maskgen.bundle_path: unknown key"),
    ])
    def test_wrong_json_shape_exit_two(self, config, setting, error, tmp_path, capsys):
        kind = json.loads((CONFIGS / config).read_text())["kind"]
        assert cli_main([kind, "--config", str(CONFIGS / config), "--set", setting,
                         "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in ("theory", "maskgen") for key in _SCHEMA
        if key not in ("kind", *RUNTIME_KEYS, *_READS[kind])])
    def test_unread_key_exit_two_with_one_line(self, kind, key, tmp_path, capsys):
        # an unread key is neither range-checked nor merged: a value out of its range or an
        # unknown key in an unread section adds no line of its own
        value = {"trials": "70000", "master_seed": "-1"}.get(key, '{"bogus": 1}')
        assert cli_main([kind, "--config", str(CONFIGS / SHIPPED[kind]), "--set",
                         f"{key}={value}", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: not read by a {kind} run\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["testbed", "scaling"])
    def test_testbed_and_scaling_read_trials_and_master_seed(self, kind, tmp_path, capsys):
        path = CONFIGS / SHIPPED[kind]
        cfg, _ = load_config(path, ["trials=3", "master_seed=5"])
        assert (cfg.trials, cfg.master_seed) == (3, 5)
        assert (cfg.resolved["trials"], cfg.resolved["master_seed"]) == (3, 5)
        assert cli_main([kind, "--config", str(path), "--set", "trials=70000", "--set",
                         "master_seed=-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: master_seed: must fit in 64 bits, got -1\n"
            "config error: trials: must be at most 65536, got 70000\n")

    def test_verifier_weights_exit_two_with_one_line(self, tmp_path, capsys):
        # the verifier is the patches' mean: a per-patch weight is an unknown key
        weights = json.dumps([1 / 16] * 16)
        assert cli_main(["testbed", "--config", str(CONFIGS / "testbed_small.json"), "--set",
                         f"world.verifier_weights={weights}", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: world.verifier_weights: unknown key\n"
        assert not (tmp_path / "out").exists()

    def test_document_not_an_object_exit_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert cli_main(["testbed", "--config", str(path), "--set", "x=1",
                         "--out", str(tmp_path / "out")]) == 2
        # the config file is read by the reader of every JSON file a config names
        assert f"config error: config[{path}]: expected an object, got []\n" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("spec, error", [
        ('{"kind": "uniform", "mean": 3}', "theory.repair_dist.mean: unknown key"),
        ('{"kind": "uniform", "bogus": 1}', "theory.repair_dist.bogus: unknown key"),
        ('"uniform"', "theory.repair_dist: expected an object, got str"),
    ])
    def test_value_distribution_spec_exit_two(self, spec, error, tmp_path, capsys):
        # a distribution is a kind only: its mean is the economy's
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"), "--set",
                         f"theory.repair_dist={spec}", "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("mean, dist", [("repair_gain", "repair_dist"),
                                            ("harm_loss", "harm_dist")])
    def test_uniform_of_overflowing_range_exit_two(self, mean, dist, tmp_path, capsys):
        # a uniform distribution draws from [0, 2 * mean]: 2e308 is no float, far above the
        # largest mean whose Monte Carlo moments stay finite
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"),
                         "--set", f"economy.{mean}=1e308",
                         "--set", f'theory.{dist}={{"kind": "uniform"}}',
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: economy.{mean}: must be at most {MC_MEAN_CAP!r} at 100 patches and "
            "100000 Monte Carlo trials, got 1e+308\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, dist", [
        ("repair_gain", "1e307", ("repair_dist", "exponential")),
        ("harm_loss", "8.9e307", ("harm_dist", "uniform")),
        ("repair_gain", "1e160", None),  # the shipped constant distribution
    ])
    def test_monte_carlo_overflowing_mean_exit_two(self, key, value, dist, tmp_path, capsys):
        # each key is legal alone; the Monte Carlo's squared deviations would overflow
        args = ["theory", "--config", str(CONFIGS / "theory_worked.json"),
                "--set", f"economy.{key}={value}", "--out", str(tmp_path / "out")]
        if dist:
            args += ["--set", f'theory.{dist[0]}={{"kind": "{dist[1]}"}}']
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(args) == 2
        assert not caught
        assert capsys.readouterr().err == (
            f"config error: economy.{key}: must be at most {MC_MEAN_CAP!r} at 100 patches and "
            f"100000 Monte Carlo trials, got {float(value):g}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["constant", "uniform", "exponential"])
    def test_largest_monte_carlo_mean_runs_clean(self, kind, tmp_path, capsys):
        cap = MC_MEAN_CAP
        args = ["theory", "--config", str(CONFIGS / "theory_worked.json"),
                "--set", f"economy.repair_gain={cap!r}", "--set", f"economy.harm_loss={cap!r}",
                "--set", f'theory.repair_dist={{"kind": "{kind}"}}',
                "--set", f'theory.harm_dist={{"kind": "{kind}"}}']
        above = [*args, "--set", f"economy.harm_loss={math.nextafter(cap, math.inf)!r}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([*args, "--out", str(tmp_path / "out")]) == 0
            assert cli_main([*above, "--out", str(tmp_path / "above")]) == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("config error: economy.harm_loss: must be at most") and (
            err.count("\n") == 1)
        mc = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["monte_carlo"]
        assert all(math.isfinite(v) for v in mc.values()) and mc["gain_global_se"] > 0

    @pytest.mark.parametrize("kind, setting, error", [
        ("testbed", "attention.noise_sd=1e200",
         "attention.noise_sd: overflows the query logits, got 1e+200"),
        ("scaling", "attention.noise_sd=1e200",
         "attention.noise_sd: overflows the query logits, got 1e+200"),
        *((kind, one_component(mean, 0.09), "world.components[0].mean: must be at most 1.54e+75 "
           f"in absolute value at variance 0.09, got {mean}")
          for kind, mean in (("testbed", "1e+200"), ("scaling", "1e+200"), ("testbed", "1e+150"))),
        ("testbed", one_component(0.0, 1e-300),
         "world.components[0].variance: must be at least 3.82e-152 at patch_dim 2, got 1e-300"),
        *((kind, setting, error) for kind in ("testbed", "scaling")
          for setting, error in MASK_AND_TIME_FAULTS),
    ])
    def test_oracle_overflow_exit_two(self, kind, setting, error, tmp_path, capsys):
        # each value overflowed the query logits, the oracle or the scores' squares, or is
        # one of MASK_AND_TIME_FAULTS
        config = {"testbed": "testbed_small.json", "scaling": "scaling_default.json"}[kind]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([kind, "--config", str(CONFIGS / config), "--set", "trials=3",
                             *set_args(setting), "--out", str(tmp_path / "out")]) == 2
        assert not caught
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "attention.noise_sd=1e150", one_component(1.5e75, 0.09), one_component(0.0, 4e-152),
        "attention.weight=1e300", "schedule.horizon=1e160",
        ("resample.t0=1e-11", "resample.t_g=3e-12"),
        ("resample.t0=1e-11", "resample.t_g=0", "resample.n_integrate=0", "resample.n_refine=5")])
    def test_largest_oracle_inputs_run_clean(self, setting, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["testbed", "--config", str(CONFIGS / "testbed_small.json"),
                             "--set", "trials=3", *set_args(setting),
                             "--out", str(tmp_path / "out")]) == 0
        assert not caught
        assert capsys.readouterr().err == ""
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert math.isfinite(results["stderr_improvement"])

    @pytest.mark.parametrize("horizon", [1e20, 1e50, 1e100])
    def test_a_scaled_horizon_moves_results_by_rounding_alone(self, horizon, tmp_path, capsys):
        # the schedule reads t / horizon. A resample pass lands within ulps of t0 off t_g,
        # and its global sweep as far off 0, which the pass's time tolerance absorbs
        def results(scale):
            out = tmp_path / f"out{scale:g}"
            assert cli_main(["testbed", "--config", str(CONFIGS / "testbed_small.json"),
                             "--set", "trials=3", "--set", f"schedule.horizon={scale!r}",
                             "--set", f"resample.t0={0.4 * scale!r}",
                             "--set", f"resample.t_g={0.04 * scale!r}", "--out", str(out)]) == 0
            return json.loads((out / "report.json").read_text())["results"]

        assert results(horizon) == pytest.approx(results(1.0), rel=1e-9)
        assert capsys.readouterr().err == ""

    def test_repeated_budget_exit_two(self, tmp_path, capsys):
        # a repeated budget would run twice and report two identical rows
        assert cli_main(["scaling", "--config", str(CONFIGS / "scaling_default.json"),
                         "--set", "search.n_grid=[3,3]", "--set", "search.bon_grid=[3,3]",
                         "--set", "search.reference_n=3", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: search.n_grid: must be a non-empty list of distinct budgets, " \
            "got [3, 3]" in err
        assert "config error: search.bon_grid: must be a non-empty list of distinct positive " \
            "integers" in err

    @pytest.mark.parametrize("source, error", [
        # <tmp> is the directory that holds the config and the files it names
        ({"raw": "raw.json"}, "maskgen.raw: expected an object, got 'raw.json'"),
        ({"bundle": "list.json"},
         "maskgen.bundle[<tmp>/list.json]: expected an object, got [1, 2]"),
        ({"bundle": 5}, "maskgen.bundle: expected an object or a file name, got 5"),
        ({"raw": [1]}, "maskgen.raw: expected an object, got [1]"),
        ({"raw": {"orig": 1, "pos": {}}}, "maskgen.raw: missing key 'neg'"),
        ({"raw": {}}, "maskgen.raw: missing key 'pos'"),
        ({**BUNDLE, "queries": 7}, "maskgen.queries: expected a list or a file name, got 7"),
        ({**BUNDLE, "queries": {"a": 1}},
         "maskgen.queries: expected a list or a file name, got {'a': 1}"),
        # the same value read from a file breaks the same rule
        ({**BUNDLE, "queries": "dict.json"},
         "maskgen.queries[<tmp>/dict.json]: expected a list, got {'a': 1}"),
        ({"bundle": {**BUNDLE["bundle"], "grid": 6}}, "maskgen.bundle.grid: 'int' object"),
        ({"bundle": {**BUNDLE["bundle"], "grid": {"a": 1}}},
         "maskgen.bundle.grid: grid must be two positive integers, got {'a': 1}"),
        ({"bundle": {**BUNDLE["bundle"], "grid": [2]}},
         "maskgen.bundle.grid: grid must be two positive integers, got [2]"),
        ({"bundle": {**BUNDLE["bundle"], "grid": [2, 3.7]}},
         "maskgen.bundle.grid: grid must be two positive integers, got [2, 3.7]"),
        ({"raw": {"orig": 1, "pos": {}}},
         "maskgen.raw.orig: expected an object or a file name, got 1"),
        ({"raw": {"orig": "list.json", "pos": "list.json", "neg": "list.json"}},
         "maskgen.raw.neg[<tmp>/list.json]: expected an object, got [1, 2]"),
        ({**BUNDLE, "queries": "none.json"}, "maskgen.queries: file not found: <tmp>/none.json"),
        ({**BUNDLE, "queries": "."}, "maskgen.queries: cannot read JSON from <tmp>: "),
        ({**BUNDLE, "queries": "bad.json"},
         "maskgen.queries: cannot read JSON from <tmp>/bad.json: "),
    ])
    def test_maskgen_source_of_wrong_type_exit_two(self, source, error, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "dict.json").write_text('{"a": 1}')
        (tmp_path / "bad.json").write_text("[1,")
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error.replace('<tmp>', str(tmp_path))}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, error", [
        ("maskgen.bundle.note=1", "maskgen.bundle.note: unknown key"),
        ('maskgen.bundle.orig=["1","1","1","1","1","1"]',
         "maskgen.bundle.orig: expected a list of numbers, got ['1', '1', '1', '1', '1', '1']"),
        ("maskgen.bundle.orig=[true,true,true,true,true,true]",
         "maskgen.bundle.orig: expected a list of numbers, got [True, True, True, True, True, True]"),
    ])
    def test_bundle_document_read_strictly_exit_two(self, setting, error, tmp_path, capsys):
        assert cli_main(["maskgen", "--config", str(CONFIGS / "maskgen_example.json"),
                         "--set", setting, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, error", [
        ({"layers": 2.7}, "layers: expected an integer, got 2.7"),
        ({"layers": "2"}, "layers: expected an integer, got '2'"),
        ({"layers": True}, "layers: expected an integer, got True"),
        ({"note": 1}, "note: unknown key"),
        ({"data": [0.0, 2.0, 4.0, None]},
         "data: expected a list of numbers, got [0.0, 2.0, 4.0, None]"),
    ])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_raw_document_read_strictly_exit_two(self, edit, error, from_file, tmp_path,
                                                 capsys):
        raw = {"grid": [1, 2], "layers": 2, "heads": 1, "tokens": 1,
               "data": [0.0, 2.0, 4.0, 6.0]}
        docs = {"orig": {**raw, **edit}, "pos": raw, "neg": raw}
        if from_file:  # each document in its own file, which the error names
            for key, doc in docs.items():
                (tmp_path / f"{key}.json").write_text(json.dumps(doc))
            source = {"raw": {key: f"{key}.json" for key in docs}}
            error = f"maskgen.raw.orig[{tmp_path / 'orig.json'}].{error}"
        else:
            source, error = {"raw": docs}, f"maskgen.raw.orig.{error}"
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {error}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_raw_document_value_errors_named_at_their_keys_exit_two(self, tmp_path, capsys):
        # each document's grid, count and data-length rules, gathered over all documents
        raw = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [0.5, 1.0]}
        docs = {"orig": {**raw, "data": [0.5, 1.0, 2.0]}, "pos": raw, "neg": {**raw, "layers": 0}}
        assert cli_main(["maskgen", "--config", str(CONFIGS / "maskgen_example.json"),
                         "--set", "maskgen.bundle=null", "--set", f"maskgen.raw={json.dumps(docs)}",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen.raw.orig.data: has 3 entries, expected 2\n"
            "config error: maskgen.raw.neg.layers: must be positive, got 0\n")
        docs = {"orig": {**raw, "grid": [0, 2]}, "pos": {**raw, "data": [-1.0, 1.0]},
                "neg": {**raw, "heads": 0, "tokens": 0}}
        assert cli_main(["maskgen", "--config", str(CONFIGS / "maskgen_example.json"),
                         "--set", "maskgen.bundle=null", "--set", f"maskgen.raw={json.dumps(docs)}",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen.raw.orig.grid: grid must be two positive integers, "
            "got [0, 2]\n"
            "config error: maskgen.raw.pos.data: raw attention must be non-negative\n"
            "config error: maskgen.raw.neg.heads: must be positive, got 0\n"
            "config error: maskgen.raw.neg.tokens: must be positive, got 0\n")
        assert not (tmp_path / "out").exists()

    def test_bundle_value_errors_named_at_their_keys_exit_two(self, tmp_path, capsys):
        # each field's length and sign rules, gathered over all fields
        assert cli_main(["maskgen", "--config", str(CONFIGS / "maskgen_example.json"),
                         "--set", "maskgen.bundle.orig=[1,1]",
                         "--set", "maskgen.bundle.neg=[-1,1,1,1,1,1]",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen.bundle.orig: attention field must be a flat vector of "
            "length 6 for grid (2, 3), got shape (2,)\n"
            "config error: maskgen.bundle.neg: attention field values must be non-negative\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("from_file", [False, True])
    def test_bundle_errors_reported_with_the_other_errors_exit_two(self, from_file, tmp_path,
                                                                  capsys):
        # the documents are read with the rest of the config: one pass shows every error
        bundle, where = {**BUNDLE["bundle"], "extra": 1}, "maskgen.bundle"
        if from_file:
            (tmp_path / "bundle.json").write_text(json.dumps(bundle))
            bundle, where = "bundle.json", f"{where}[{tmp_path / 'bundle.json'}]"
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {"bundle": bundle, "ratio": 2}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen.ratio: must lie strictly inside (0, 1), got 2.0\n"
            f"config error: {where}.extra: unknown key\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("queries, shown", [
        pytest.param([[True, False], [False, True]], "[[True, False], [False, True]]",
                     id="booleans"),
        pytest.param([["1", "0"], ["0", "1"]], "[['1', '0'], ['0', '1']]", id="strings"),
        pytest.param([[None, 1], [1, 0]], "[[None, 1], [1, 0]]", id="null"),
        pytest.param("queries.json", "[[1.0, 0.0], 1]", id="file-row-not-a-list"),
    ])
    def test_queries_read_strictly_exit_two(self, queries, shown, tmp_path, capsys):
        # every row a list, every entry a finite JSON number, inline or in a file
        (tmp_path / "queries.json").write_text("[[1.0, 0.0], 1]")
        where = "maskgen.queries" + (f"[{tmp_path / queries}]" if queries == "queries.json"
                                     else "")
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {
            "bundle": {"grid": [1, 2], "orig": [1, 1], "pos": [1, 0.2], "neg": [1, 1.4]},
            "queries": queries}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {where}: expected a list of lists of numbers, got {shown}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", [
        pytest.param({**BUNDLE, "queries": [[1e200, 0.0]] * 6}, id="queries-overflow"),
        pytest.param({"bundle": {**BUNDLE["bundle"], "orig": [1e308] * 6}, "weight": 10},
                     id="weighted-origin-overflow"),
    ])
    def test_huge_maskgen_input_is_one_error_line_exit_two(self, source, tmp_path, capsys):
        # each input is finite: only the kernel's arithmetic overflows, and numpy stays quiet
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert not caught
        assert capsys.readouterr().err == (
            "config error: maskgen: mask quality contains non-finite values\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source, error", [
        pytest.param({"raw": {key: {"grid": [1, cols], "layers": 1, "heads": 1, "tokens": 1,
                                    "data": [1.0] * cols}
                              for key, cols in (("orig", 2), ("pos", 3), ("neg", 2))}},
                     "maskgen: bundle fields must share one grid, got (1, 2), (1, 3), (1, 2)",
                     id="raw-grids-differ"),
        pytest.param({**BUNDLE, "queries": [[1.0, 0.0]] * 4},
                     "maskgen: propagation matrix size 4 does not match field size 6",
                     id="queries-size"),
    ])
    def test_inputs_that_disagree_exit_two(self, source, error, tmp_path, capsys):
        # each document is valid on its own: only the documents together break a rule
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, error", [
        ({**BUNDLE["bundle"], "note": 1}, ".note: unknown key"),
        ({**BUNDLE["bundle"], "neg": [1] * 5 + [False]},
         ".neg: expected a list of numbers, got [1, 1, 1, 1, 1, False]"),
        ([1, 2], ": expected an object, got [1, 2]"),
    ])
    def test_bundle_file_read_strictly_exit_two(self, document, error, tmp_path, capsys):
        (tmp_path / "bundle.json").write_text(json.dumps(document))
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {"bundle": "bundle.json"}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert (f"config error: maskgen.bundle[{tmp_path / 'bundle.json'}]{error}\n"
                in capsys.readouterr().err)

    def test_raw_document_set_unknown_key_exit_two(self, tmp_path, capsys):
        raw = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0, 2.0]}
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {
            "raw": {"orig": raw, "pos": raw, "neg": raw, "extra": raw}}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: maskgen.raw.extra: unknown key\n" in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_every_bad_raw_document_reported_exit_two(self, from_file, tmp_path, capsys):
        raw = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0, 2.0]}
        docs = {"orig": {**raw, "note": 1}, "pos": raw, "neg": {**raw, "extra": 2}}
        if from_file:
            for key, doc in docs.items():
                (tmp_path / f"{key}.json").write_text(json.dumps(doc))
            source = {"raw": {key: f"{key}.json" for key in docs}}
            where = {key: f"maskgen.raw.{key}[{tmp_path / f'{key}.json'}]" for key in docs}
        else:
            source, where = {"raw": docs}, {key: f"maskgen.raw.{key}" for key in docs}
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {where['orig']}.note: unknown key\n" in err
        assert f"config error: {where['neg']}.extra: unknown key\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source, error", [
        pytest.param({"bundle": {**BUNDLE["bundle"], "note": 1},
                      "raw": dict.fromkeys(("orig", "pos", "neg"), {
                          "grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0, 2.0]})},
                     "maskgen.bundle.note: unknown key", id="both-sources"),
        pytest.param({"queries": [[True]]},
                     "maskgen.queries: expected a list of lists of numbers, got [[True]]",
                     id="no-source"),
    ])
    def test_documents_read_whatever_the_source_count_exit_two(self, source, error, tmp_path,
                                                               capsys):
        # the source error and each document's own errors, in one pass
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": source})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen: exactly one attention source is required (bundle or raw)\n"
            f"config error: {error}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("queries, error", [
        pytest.param([[1, 0], [0]] * 3,
                     "<where>: expected rows of one positive length, got row lengths [1, 2]",
                     id="ragged-rows"),
        pytest.param([[]] * 6, "<where>: expected rows of one positive length, got row lengths [0]",
                     id="empty-rows"),
        pytest.param([[1.0, 0.0]] * 4,
                     "maskgen: propagation matrix size 4 does not match field size 6",
                     id="size-mismatch"),
    ])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_queries_shape_checked_with_the_other_errors_exit_two(self, queries, error, from_file,
                                                                  tmp_path, capsys):
        # a ratio out of range too: the queries' shape and size are read in the same pass
        where = "maskgen.queries"
        if from_file:
            (tmp_path / "queries.json").write_text(json.dumps(queries))
            queries, where = "queries.json", f"{where}[{tmp_path / 'queries.json'}]"
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {
            **BUNDLE, "queries": queries, "ratio": 2}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: maskgen.ratio: must lie strictly inside (0, 1), got 2.0\n"
            f"config error: {error.replace('<where>', where)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("from_file", [False, True])
    def test_raw_integer_no_float_holds_named_at_its_key_exit_two(self, from_file, tmp_path,
                                                                  capsys):
        raw = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0, 2.0]}
        docs = {"orig": {**raw, "data": [10 ** 320, 1]}, "pos": raw, "neg": raw}
        where = "maskgen.raw.orig"
        if from_file:
            (tmp_path / "orig.json").write_text(json.dumps(docs["orig"]))
            docs["orig"], where = "orig.json", f"{where}[{tmp_path / 'orig.json'}]"
        path = self.write(tmp_path, {"kind": "maskgen", "maskgen": {"raw": docs}})
        assert cli_main(["maskgen", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {where}.data: int too large to convert to float\n")
        assert not (tmp_path / "out").exists()

    def test_theory_with_inert_local_edits_runs(self, tmp_path):
        # no local repair and no local harm: no precision floor, so no precision is low
        assert cli_main(["theory", "--config", str(CONFIGS / "theory_worked.json"),
                         "--set", "economy.repair_prob_local=0",
                         "--set", "economy.harm_prob_local=0",
                         "--out", str(tmp_path / "out")]) == 0
        closed = json.loads((tmp_path / "out" / "report.json").read_text())["results"][
            "closed_form"]
        assert closed["precision_floor"] is None
        assert closed["regime_flags"]["low_precision"] is False

    @pytest.mark.parametrize("seeds", [-5, 0])
    def test_search_seeds_range_exit_two(self, seeds, tmp_path, capsys):
        # the sweep ignores search.seeds, but it holds SearchConfig's rule
        assert cli_main(["scaling", "--config", str(CONFIGS / "scaling_default.json"),
                         "--set", "trials=2", "--set", f"search.seeds={seeds}",
                         "--out", str(tmp_path / "out")]) == 2
        assert (f"config error: search.seeds: must be at least 1, got {seeds}\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def fresh_interpreter(code: str) -> str:
        """stdout of code run in a new interpreter that imports this localtts."""
        src = str(Path(localtts.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        return result.stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.fresh_interpreter(
            "import sys, localtts.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"

    def test_a_module_import_loads_only_what_it_needs(self):
        # the package binds no names, so importing it or one module loads no other module
        code = ("import sys, importlib\n"
                "for name in ('localtts', 'localtts.theory'):\n"
                "    importlib.import_module(name)\n"
                "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'localtts'))")
        assert self.fresh_interpreter(code).splitlines() == [
            "['localtts']",
            "['localtts', 'localtts.errors', 'localtts.seeding', 'localtts.theory']"]

    def test_cli_import_registers_every_module(self):
        # perfbench/spans.py finds the modules it wraps in sys.modules after this import
        package = Path(localtts.__file__).parent
        code = ("import sys, localtts.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'localtts'))")
        assert self.fresh_interpreter(code) == str(sorted(
            ["localtts"] + [f"localtts.{path.stem}" for path in package.glob("*.py")
                            if path.stem != "__init__"]))

    @pytest.mark.parametrize("name", sorted(RUN_MODULES))
    def test_a_run_executes_only_its_kinds_modules(self, name, tmp_path):
        # the audit hook sees each module body's exec: the CLI registers the kind modules
        # at import and runs a body when a run first reads a name from it
        overrides, kind_modules = RUN_MODULES[name]
        path = CONFIGS / name
        args = [json.loads(path.read_text())["kind"], "--config", str(path),
                "--out", str(tmp_path / "out"),
                *(arg for setting in [*overrides, "workers=1"] for arg in ("--set", setting))]
        code = ("import sys\n"
                "from pathlib import Path\n"
                "bodies = []\n"
                "sys.addaudithook(lambda event, args: event == 'exec' and "
                "bodies.append(getattr(args[0], 'co_filename', '')))\n"
                "from localtts.cli import main\n"
                f"code = main({args!r})\n"
                "print(code, sorted(Path(f).stem for f in bodies "
                "if Path(f).parent.name == 'localtts'))")
        core = ["__init__", "cli", "config", "errors", "harness", "seeding"]
        assert self.fresh_interpreter(code).splitlines()[-1] == \
            f"0 {sorted(core + kind_modules)}"

    def test_one_worker_run_leaves_the_pool_unloaded(self, tmp_path):
        # trials and the theory's Monte Carlo chunks go through one runner
        runs = [("testbed_small.json", ["trials=3", "workers=1"]),
                ("theory_worked.json", ["workers=1"])]
        code = ("import sys, localtts.cli\n"
                "from localtts.config import load_config\n"
                "from localtts.harness import run_experiment\n"
                + "".join(f"cfg, _ = load_config({str(CONFIGS / name)!r}, {overrides!r})\n"
                          f"run_experiment(cfg, {str(tmp_path / name)!r})\n"
                          for name, overrides in runs)
                + "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
                "if m in sys.modules))")
        assert self.fresh_interpreter(code) == "[]"
        assert all((tmp_path / name / "report.json").exists() for name, _ in runs)

    def test_only_a_split_fill_starts_a_thread(self, tmp_path):
        # a theory run fills no rows; a testbed run's first split fill starts fill_rows'
        # helper, a plain thread, so concurrent.futures stays unloaded
        runs = [("theory_worked.json", ["workers=1"]), ("testbed_small.json", ["workers=1"])]
        code = ("import sys, threading, localtts.cli\n"
                "from localtts.config import load_config\n"
                "from localtts.harness import run_experiment\n"
                + "".join(f"cfg, _ = load_config({str(CONFIGS / name)!r}, {overrides!r})\n"
                          f"run_experiment(cfg, {str(tmp_path / name)!r})\n"
                          "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
                          for name, overrides in runs))
        assert self.fresh_interpreter(code).splitlines() == ["1 False", "2 False"]


class TestWorldConfig:
    def test_bad_verifier_weights_rejected(self):
        raw = make_testbed_raw()
        raw["world"]["verifier_weights"] = [1.0, 1.0]
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.errors == ["world.verifier_weights: unknown key"]

    def test_multi_component_world(self):
        raw = make_testbed_raw()
        raw["world"]["components"] = [
            {"weight": 0.5, "mean": [-0.5, 0.0], "variance": 0.04},
            {"weight": 0.5, "mean": [0.5, 0.0], "variance": 0.04},
        ]
        cfg = validate_config(raw)
        assert cfg.settings.world.weights.shape == (16, 2)
        np.testing.assert_allclose(cfg.settings.world.means[0, 0], [-0.5, 0.0])
