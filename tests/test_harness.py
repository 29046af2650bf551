import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import localtts
from localtts import harness
from localtts.cli import main as cli_main
from localtts.config import DEFAULTS, ConfigError, load_config, validate_config
from localtts.harness import run_experiment, sign_test_p_greater


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
            "bundle": {}, "bundle_path": "x.json"}}
        with pytest.raises(ConfigError, match="exactly one attention source"):
            validate_config(raw2)


class TestLoadConfig:
    def test_overrides_apply_and_are_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(theory_raw()))
        cfg, applied = load_config(path, ["mask_stats.recall=0.9", "trials=5"])
        assert cfg.mask_stats.recall == 0.9
        assert applied == ["mask_stats.recall=0.9", "trials=5"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_bad_override_syntax(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(theory_raw()))
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["trials"])


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
        trial = harness.testbed_trial

        def one_nfe_short(settings, seed_seq):
            *row, nfe = trial(settings, seed_seq)
            return (*row, nfe - 1)

        monkeypatch.setattr(harness, "testbed_trial", one_nfe_short)
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
        crossover = report["results"]["crossover"]
        assert crossover["reference_n"] == 3
        assert crossover["reference_nfe"] == 8 + 2 * 5

    def test_worker_counts_produce_identical_bytes(self, tmp_path):
        blobs = []
        for workers in (1, 4):
            cfg = validate_config(self.scaling_raw(workers=workers))
            out = tmp_path / f"w{workers}"
            run_experiment(cfg, out)
            blobs.append((out / "report.json").read_bytes()
                         + (out / "scaling.csv").read_bytes())
        assert blobs[0] == blobs[1]


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
                "raw_paths": {"orig": "orig.json", "pos": "pos.json",
                              "neg": "neg.json"},
                "queries": queries, "weight": 0.5, "ratio": 0.25,
            },
        }
        cfg = validate_config(raw)
        report = run_experiment(cfg, tmp_path / "out", base_dir=tmp_path)
        mask = json.loads((tmp_path / "out" / "mask.json").read_text())
        assert sum(mask["bits"]) == 1
        assert mask["bits"][1] == 1


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
        assert "ratio must lie strictly inside (0, 1)" in capsys.readouterr().err

    def test_kind_mismatch_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, theory_raw())
        assert cli_main(["testbed", "--config", path, "--out", str(tmp_path / "out")]) == 2

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

    def test_worker_count_leaves_every_output_file_unchanged(self, tmp_path, capsys):
        path = self.write(tmp_path, make_testbed_raw(trials=8))
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert cli_main(["testbed", "--config", path, "--set", f"workers={workers}",
                             "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(localtts.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, localtts.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestWorldConfig:
    def test_verifier_weights_flow_through(self):
        raw = make_testbed_raw()
        weights = [0.5] + [0.5 / 15] * 15
        raw["world"]["verifier_weights"] = weights
        cfg = validate_config(raw)
        assert cfg.settings.world.verifier_weights[0] == pytest.approx(0.5)

    def test_bad_verifier_weights_rejected(self):
        raw = make_testbed_raw()
        raw["world"]["verifier_weights"] = [1.0, 1.0]
        with pytest.raises(ConfigError, match="world"):
            validate_config(raw)

    def test_multi_component_world(self):
        raw = make_testbed_raw()
        raw["world"]["components"] = [
            {"weight": 0.5, "mean": [-0.5, 0.0], "variance": 0.04},
            {"weight": 0.5, "mean": [0.5, 0.0], "variance": 0.04},
        ]
        cfg = validate_config(raw)
        assert cfg.settings.world.weights.shape == (16, 2)
        np.testing.assert_allclose(cfg.settings.world.means[0, 0], [-0.5, 0.0])
