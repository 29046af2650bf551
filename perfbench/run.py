"""Closed-loop benchmark of localtts experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N --seconds S --trace 0|1]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``. One caller runs one experiment at a
time (a closed loop with one client): an operation is ``validate_config`` +
``run_experiment`` on the workload's config, with a master seed derived from
--seed and the operation index, into a fresh output directory. The next
operation starts only after the previous one has finished and its output
has passed the correctness check in ``check.py``.

Times are reported in reference seconds (see hostclock.py): every operation
and set-up probe is bracketed by a calibration loop, and its measured time
is multiplied by the host factor the two loops give. The measured values
and factors are printed and kept in the run record.

--trace 0 times operations for --seconds and reports the end-to-end metrics.
--trace 1 alternates untraced and traced runs of each operation at one
worker for --seconds and reports per-layer metrics from the spans, per
traced operation, with the tracing overhead against the untraced twins.
Both modes repeat the first operation at the end and require byte-identical
output files (theory also at the other worker count). Each run writes a
record with its environment to ``.perfbench_out/``. The last line of stdout
is the JSON result; METRICS.md defines every metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_operation, operation_nfe  # noqa: E402
from hostclock import calibrate, host_factor  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import POOL_WORKERS, WORKLOADS, operation_config, trials_of  # noqa: E402

SETUP_REPEATS = 5        # fresh interpreters per run for setup_s
TRACE_SETUP_REPEATS = 3  # fresh interpreters per traced run
POOL_REPEATS = 5         # no-op pool starts per traced run
TAIL_BEYOND = 10         # samples op_s_tail must leave beyond its percentile
MIN_OPS = TAIL_BEYOND + 1
MIN_TRACED = 3

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("trials_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("testbed.evaluate.calls", "count", "lower"),
    ("testbed.evaluate.states", "count", "lower"),
    ("testbed.evaluate.busy_s", "s", "lower"),
    ("testbed.evaluate.us_per_state", "us", "lower"),
    ("testbed.evaluate.states_per_call", "count", "higher"),
    ("testbed.evaluate.errors", "count", "lower"),
    ("testbed.sample_base.calls", "count", "lower"),
    ("testbed.sample_base.busy_s", "s", "lower"),
    ("testbed.sample_base.errors", "count", "lower"),
    ("testbed.verifier_score.calls", "count", "lower"),
    ("testbed.verifier_score.states", "count", "lower"),
    ("testbed.verifier_score.busy_s", "s", "lower"),
    ("testbed.verifier_score.errors", "count", "lower"),
    ("search.sweep_trial.calls", "count", "lower"),
    ("search.sweep_trial.busy_s", "s", "lower"),
    ("search.sweep_trial.errors", "count", "lower"),
    ("search.dfs_search.calls", "count", "lower"),
    ("search.dfs_search.busy_s", "s", "lower"),
    ("search.dfs_search.errors", "count", "lower"),
    ("search.refinement_win_frac", "fraction", "higher"),
    ("resample.localized_resample.calls", "count", "lower"),
    ("resample.localized_resample.busy_s", "s", "lower"),
    ("resample.localized_resample.ms_per_call", "ms", "lower"),
    ("resample.localized_resample.errors", "count", "lower"),
    ("resample.improved_frac", "fraction", "higher"),
    ("attention.mask_gen.calls", "count", "lower"),
    ("attention.mask_gen.busy_s", "s", "lower"),
    ("attention.mask_gen.us_per_call", "us", "lower"),
    ("attention.mask_gen.errors", "count", "lower"),
    ("attention.mask_recall", "fraction", "higher"),
    ("attention.mask_precision", "fraction", "higher"),
    ("theory.simulate_patch_economy.calls", "count", "lower"),
    ("theory.simulate_patch_economy.busy_s", "s", "lower"),
    ("theory.simulate_patch_economy.trials_per_s", "1/s", "higher"),
    ("theory.simulate_patch_economy.errors", "count", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.run_experiment.errors", "count", "lower"),
    ("harness.run_trials.calls", "count", "lower"),
    ("harness.run_trials.busy_s", "s", "lower"),
    ("harness.run_trials.errors", "count", "lower"),
    ("harness.report_bytes", "B", "lower"),
    ("harness.pool_start_s", "s", "lower"),
    ("config.load_config.busy_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """Highest whole percentile whose nearest-rank value has at least
    ``beyond`` samples ranked above it: (percentile, value, samples beyond)."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    percentile = 100 * (n - beyond) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, sorted(samples)[rank - 1], n - rank


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class OpResult:
    raw: dict
    out_dir: Path
    seconds: float   # measured wall time
    factor: float    # host factor: seconds * factor is the time in reference seconds
    correct: bool
    report_bytes: int


@dataclass
class Operations:
    """Runs and checks operations; counts attempted and failed ones."""

    base: dict
    seed: int
    work_dir: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    factors: list = field(default_factory=list)

    def run(self, index: int, workers: int | None = None,
            tracer: Tracer | None = None) -> OpResult:
        import localtts.harness as harness
        from localtts.config import validate_config

        raw = operation_config(self.base, self.seed, index, workers)
        out_dir = Path(tempfile.mkdtemp(prefix=f"op{index}-", dir=self.work_dir))
        self.attempted += 1
        if tracer is not None:
            tracer.op = index
        completed = True
        before = calibrate()
        start = perf_counter()
        try:
            harness.run_experiment(validate_config(raw), out_dir)
        except Exception:
            completed = False
            traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - start
        factor = host_factor(before, calibrate())
        self.factors.append(factor)
        problems = check_operation(raw, out_dir) if completed else ["operation raised"]
        self.note(index, problems)
        size = sum(p.stat().st_size for p in out_dir.iterdir())
        return OpResult(raw, out_dir, seconds, factor, not problems, size)

    def note(self, index: int, problems: list[str]):
        if problems:
            self.failed += 1
            self.problems.append({"op": index, "problems": problems})
            for problem in problems:
                print(f"operation {index}: {problem}", file=sys.stderr)

    def discard(self, result: OpResult):
        shutil.rmtree(result.out_dir)

    def determinism_probe(self, first: OpResult, workers: list[int | None]):
        """Repeat the first operation and require the same bytes in every file."""
        expected = _read_files(first.out_dir)
        for count in workers:
            again = self.run(0, workers=count)
            if again.correct and _read_files(again.out_dir) != expected:
                self.note(0, [f"determinism probe: output at workers={again.raw['workers']} "
                              f"differs from workers={first.raw['workers']}"])
            self.discard(again)

    def measure_setup(self, repeats: int) -> list[dict]:
        """Fresh-interpreter import and load_config times of the workload config,
        each with the host factor measured in that interpreter."""
        config_path = self.work_dir / "setup_config.json"
        config_path.write_text(json.dumps(operation_config(self.base, self.seed, 0)))
        samples = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"),
                 str(config_path)],
                capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return samples


def _read_files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def probe_workers(base: dict) -> list[int | None]:
    """Same worker count again; theory also at the other count (1 <-> 2)."""
    if base["kind"] != "theory":
        return [None]
    return [None, 1 if base["workers"] != 1 else POOL_WORKERS]


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _noop(payload, seed_seq):
    return None


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions,
            "cpu_model": cpu, "loadavg": list(os.getloadavg())}


def end_to_end(op_seconds: list[float], trials: int, setup_seconds: list[float],
               rss: float) -> tuple[dict, int, int]:
    """End-to-end metrics from operation and set-up times; also the tail's
    percentile and the samples beyond it."""
    percentile, tail, beyond = tail_percentile(op_seconds)
    metrics = {
        "trials_per_s": trials / sum(op_seconds),
        "op_s_p50": statistics.median(op_seconds),
        "op_s_tail": tail,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rss,
    }
    return metrics, percentile, beyond


def timed_run(ops: Operations, seconds: float) -> tuple[dict, dict]:
    first = ops.run(0)  # warm-up, untimed; the determinism probe repeats it
    timed, trials = [], 0
    index = 1
    start = perf_counter()
    while perf_counter() - start < seconds or len(timed) < MIN_OPS:
        result = ops.run(index)
        timed.append(result)
        trials += trials_of(result.raw) if result.correct else 0
        ops.discard(result)
        index += 1
    ops.determinism_probe(first, probe_workers(ops.base))
    ops.discard(first)
    rss = peak_rss_mb()
    setup = [(s["import_s"] + s["load_s"], s["factor"]) for s in ops.measure_setup(SETUP_REPEATS)]
    metrics, percentile, beyond = end_to_end(
        [r.seconds * r.factor for r in timed], trials, [t * f for t, f in setup], rss)
    measured, _, _ = end_to_end(
        [r.seconds for r in timed], trials, [t for t, _ in setup], rss)
    info = {"timed_ops": len(timed), "trials_per_op": trials_of(first.raw),
            "op_s_tail_percentile": percentile, "op_s_tail_beyond": beyond,
            "op_seconds": [r.seconds for r in timed], "op_factors": [r.factor for r in timed],
            "setup_seconds": [t for t, _ in setup], "setup_factors": [f for _, f in setup],
            "measured_metrics": measured}
    notes = {"op_s_tail": f"p{percentile} of {len(timed)} operations, {beyond} beyond",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters"}
    return metrics, {**info, "notes": notes}


def traced_run(ops: Operations, seconds: float) -> tuple[dict, dict]:
    import localtts.harness as harness

    ops.base["workers"] = 1  # spans are recorded in this process only
    first = ops.run(0)
    tracer = Tracer()
    plain_s, traced_s, traced_trials, expected_nfe, report_bytes = 0.0, 0.0, 0, 0, 0
    factors = {}
    patched = {}
    index = 1
    start = perf_counter()
    while perf_counter() - start < seconds or len(factors) < MIN_TRACED:
        plain = ops.run(index)
        ops.discard(plain)
        patched = tracer.install()
        try:
            result = ops.run(index, tracer=tracer)
        finally:
            tracer.uninstall()
        ops.discard(result)
        plain_s += plain.seconds * plain.factor
        traced_s += result.seconds * result.factor
        factors[index] = result.factor
        traced_trials += trials_of(result.raw)
        expected_nfe += operation_nfe(result.raw)
        report_bytes += result.report_bytes
        index += 1
    ops.determinism_probe(first, probe_workers(ops.base))
    ops.discard(first)

    pool = []
    for _ in range(POOL_REPEATS):
        begin = perf_counter()
        harness.run_trials(_noop, None, POOL_WORKERS, 0, workers=POOL_WORKERS)
        pool.append(perf_counter() - begin)
    pool_factor = statistics.median(ops.factors)
    setup = ops.measure_setup(TRACE_SETUP_REPEATS)

    traced = len(factors)
    busy, own, calls = tracer.durations(factors)
    counts = tracer.counts
    measured_nfe = int(counts["testbed.evaluate.states"])
    metrics = {}
    for name in ("testbed.evaluate", "testbed.sample_base", "testbed.verifier_score",
                 "search.sweep_trial", "search.dfs_search", "resample.localized_resample",
                 "attention.mask_gen", "theory.simulate_patch_economy", "harness.run_trials"):
        metrics[f"{name}.calls"] = calls[name] / traced
        metrics[f"{name}.busy_s"] = busy[name] / traced
        metrics[f"{name}.errors"] = counts[f"{name}.errors"]
    for name in ("testbed.evaluate", "testbed.verifier_score"):
        metrics[f"{name}.states"] = counts[f"{name}.states"] / traced
    metrics.update({
        "testbed.evaluate.us_per_state": 1e6 * _ratio(busy["testbed.evaluate"],
                                                      counts["testbed.evaluate.states"]),
        "testbed.evaluate.states_per_call": _ratio(counts["testbed.evaluate.states"],
                                                   calls["testbed.evaluate"]),
        "search.refinement_win_frac": _ratio(counts["search.dfs_search.refinement_wins"],
                                             calls["search.dfs_search"]),
        "resample.localized_resample.ms_per_call": 1e3 * _ratio(
            busy["resample.localized_resample"], calls["resample.localized_resample"]),
        "resample.improved_frac": _ratio(counts["resample.localized_resample.improved"],
                                         calls["resample.localized_resample"]),
        "attention.mask_gen.us_per_call": 1e6 * _ratio(busy["attention.mask_gen"],
                                                       calls["attention.mask_gen"]),
        "attention.mask_recall": _ratio(counts["attention.recall_sum"], counts["attention.masks"]),
        "attention.mask_precision": _ratio(counts["attention.precision_sum"],
                                           counts["attention.masks"]),
        "theory.simulate_patch_economy.trials_per_s": _ratio(
            counts["theory.simulate_patch_economy.trials"], busy["theory.simulate_patch_economy"]),
        "harness.run_experiment.self_s": own["harness.run_experiment"] / traced,
        "harness.run_experiment.errors": counts["harness.run_experiment.errors"],
        "harness.report_bytes": report_bytes / traced,
        "harness.pool_start_s": statistics.median(pool) * pool_factor,
        "config.load_config.busy_s": statistics.median(s["load_s"] * s["factor"] for s in setup),
        "cli.import_s": statistics.median(s["import_s"] * s["factor"] for s in setup),
        "trace.ops": traced,
        "trace.overhead_frac": 1.0 - plain_s / traced_s,
    })
    info = {"traced_ops": traced, "analytic_nfe": expected_nfe, "measured_nfe": measured_nfe,
            "untraced_trials_per_s": traced_trials / plain_s,
            "traced_trials_per_s": traced_trials / traced_s,
            "patched_namespaces": patched, "spans": len(tracer.spans)}
    notes = {"trace.overhead_frac": (
        f"traced {traced_trials / traced_s:.4g} vs untraced {traced_trials / plain_s:.4g} "
        f"trials/s over the same {traced} operations at workers=1"),
        "testbed.evaluate.states": f"measured NFE {measured_nfe}, analytic {expected_nfe}"}
    if measured_nfe != expected_nfe:
        ops.problems.append({"op": None, "problems": [
            f"NFE cross-check: wrapped evaluate saw {measured_nfe} states, "
            f"analytic NFE is {expected_nfe}: a call site escaped the wrappers"]})
        print(ops.problems[-1]["problems"][0], file=sys.stderr)
    return metrics, {**info, "notes": notes, "tracer": tracer}


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import localtts

    if Path(localtts.__file__).resolve().parent != ROOT / "src" / "localtts":
        print(f"perfbench: imported localtts from {localtts.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env_start = environment()
    out_root = ROOT / ".perfbench_out"
    work_root = ROOT / ".perfbench_work"
    out_root.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    ops = Operations(base=workload.base_config(ROOT), seed=args.seed, work_dir=work_dir)
    try:
        run = traced_run if args.trace else timed_run
        metrics, info = run(ops, args.seconds)
    finally:
        shutil.rmtree(work_dir)
    tracer = info.pop("tracer", None)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_root / f"{stem}-spans.jsonl")
    correct = ops.failed == 0 and not ops.problems
    specs = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in specs}}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment_start": env_start,
              "environment_end": environment(), "info": info, "problems": ops.problems,
              "result": result}
    (out_root / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    measured = info.get("measured_metrics", {})
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{ops.attempted} operations, {ops.failed} failed; "
          f"nproc={env_start['nproc']} load {env_start['loadavg'][0]:.2f}; median host factor "
          f"{statistics.median(ops.factors):.4f} (times in reference seconds)")
    for name, unit, _ in specs:
        notes = [info["notes"].get(name)]
        if name in measured and measured[name] != metrics[name]:
            notes.insert(0, f"measured {measured[name]:.6g} {unit}")
        note = "; ".join(n for n in notes if n)
        print(f"  {name} = {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    if not args.trace:
        print(f"  failed_frac = {ops.failed / ops.attempted:.6g} fraction  "
              f"({ops.failed} of {ops.attempted} operations)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own interpreter and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "localtts" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no localtts sources (src/localtts) or configs/",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
