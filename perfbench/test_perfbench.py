"""Tests of the benchmark's own code: checker, tail percentile, tracer, spec."""
import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import check_operation, operation_nfe, read_csv  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, operation_config  # noqa: E402

SMALL = {
    "scaling": {"schedule.n_steps": 4, "resample.n_refine": 2, "resample.n_integrate": 1,
                "search.n_grid": [1, 3], "search.bon_grid": [1, 2, 3],
                "search.reference_n": 3},
    "testbed_k3": {"trials": 3, "schedule.n_steps": 4, "resample.n_refine": 2,
                   "resample.n_integrate": 1},
    "theory_mc": {"workers": 1, "theory.mc_trials": 20_000},
}


def small_config(name: str, index: int = 0) -> dict:
    workload = WORKLOADS[name]
    workload = dataclasses.replace(workload, edits={**workload.edits, **SMALL[name]})
    return operation_config(workload.base_config(HERE.parent), seed=3, index=index)


def run_op(raw: dict, out_dir: Path) -> Path:
    from localtts.config import validate_config
    from localtts.harness import run_experiment

    run_experiment(validate_config(raw), out_dir)
    return out_dir


def rewrite_csv(path: Path, column: str, row_index: int, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    col = header.index(column)
    cells[col] = edit(cells[col])
    lines[row_index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_accepts_real_output(name, tmp_path):
    raw = small_config(name)
    assert check_operation(raw, run_op(raw, tmp_path)) == []


def test_checker_rejects_scaling_nfe_off_by_one(tmp_path):
    raw = small_config("scaling")
    out = run_op(raw, tmp_path)
    rewrite_csv(out / "scaling.csv", "nfe", 1, lambda cell: str(int(cell) + 1))
    problems = check_operation(raw, out)
    assert any("analytic" in p for p in problems)


def test_checker_rejects_testbed_nfe_off_by_one(tmp_path):
    raw = small_config("testbed_k3")
    out = run_op(raw, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["results"]["nfe_per_trial"] -= 1
    (out / "report.json").write_text(json.dumps(report))
    assert any("nfe_per_trial" in p for p in check_operation(raw, out))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_checker_rejects_non_finite_score(bad, tmp_path):
    raw = small_config("testbed_k3")
    out = run_op(raw, tmp_path)
    rewrite_csv(out / "trials.csv", "refined_score", 2, lambda cell: bad)
    assert any("non-finite score" in p for p in check_operation(raw, out))


def test_checker_rejects_monte_carlo_mean_far_from_closed_form(tmp_path):
    raw = small_config("theory_mc")
    out = run_op(raw, tmp_path)
    report = json.loads((out / "report.json").read_text())
    mc = report["results"]["monte_carlo"]
    mc["tp_mean"] += 6 * mc["tp_se"]
    (out / "report.json").write_text(json.dumps(report))
    assert any(p.startswith("monte_carlo.tp") for p in check_operation(raw, out))


def test_checker_rejects_wrong_columns(tmp_path):
    raw = small_config("scaling")
    out = run_op(raw, tmp_path)
    text = (out / "scaling.csv").read_text()
    (out / "scaling.csv").write_text(text.replace("mean_score", "score", 1))
    assert any("malformed" in p for p in check_operation(raw, out))
    with pytest.raises(ValueError):
        read_csv(out / "scaling.csv", ["method"])


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(run.TAIL_BEYOND + 1, 400):
        samples = [float(i) for i in range(n)]
        random.Random(n).shuffle(samples)
        percentile, value, beyond = run.tail_percentile(samples)
        assert beyond >= 10
        assert sum(s > value for s in samples) == beyond
        # one percentile higher would leave fewer than ten beyond it
        assert n - math.ceil((percentile + 1) * n / 100) < 10
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_durations_scale_spans_by_their_operation_factor():
    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 4.0, None, 1), ("inner", 1.0, 2.0, 0, 1),
                    ("outer", 10.0, 12.0, None, 2)]
    busy, own, calls = tracer.durations({1: 0.5})
    assert busy == {"outer": 4.0, "inner": 0.5} and calls == {"outer": 2, "inner": 1}
    assert own == {"outer": 3.5, "inner": 0.5}


@pytest.mark.parametrize("name", ["scaling", "testbed_k3"])
def test_tracer_sees_every_oracle_evaluation(name, tmp_path):
    import localtts.search as search
    import localtts.testbed as testbed

    originals = (testbed.NoisePredictor.evaluate, search.sample_base, search.mask_gen)
    raw = small_config(name)
    tracer = Tracer()
    patched = tracer.install()
    try:
        run_op(raw, tmp_path)
    finally:
        tracer.uninstall()
    assert (testbed.NoisePredictor.evaluate, search.sample_base, search.mask_gen) == originals
    assert {"localtts.search", "localtts.testbed"} <= set(patched["testbed.sample_base"])
    assert tracer.counts["testbed.evaluate.states"] == operation_nfe(raw) > 0
    busy, own, calls = tracer.durations()
    assert calls["harness.run_experiment"] == 1
    assert 0 <= own["harness.run_experiment"] <= busy["harness.run_experiment"]
    assert calls["attention.mask_gen"] == tracer.counts["attention.masks"] > 0


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert any(m["name"] == "setup_s" and m["bound"] == max(n["bound"] for n in spec["end_to_end"])
               for m in spec["end_to_end"])
