"""Print the sha256 of every output file of a fixed set of CLI runs.

    PYTHONPATH=src python scripts/output_hashes.py > hashes.txt

One line per output file: workers, config label, file name and sha256. The
runs are the shipped configs in ``configs/``, the ``testbed_k3`` and
``theory_mc`` benchmark workload configs (read from
``perfbench/workloads.py``), and probes of paths no shipped config takes:
noiseless attention, a resample with ``t_g = 0``, a resample of one refinement
step, oracle masks (some of them empty, in the testbed and in the sweep), a sweep
in which no seed refines, a nine-component world of ``patch_dim``
1, worlds of ``patch_dim`` 9, a world of two identical components (every lane of
the oracle's log-sum-exp ties, so it divides by its count of maxima), maskgen
with queries, maskgen from inline raw attention documents, maskgen reading its
bundle and queries from files and its raw documents from files (each written
beside its config in the temporary directory), best-of-N searches that each
span two engine blocks, and
Monte Carlo runs with the value distributions no shipped config draws (a
uniform repair, an exponential pair whose last chunk ends one row past a slab,
a mixed constant/uniform pair, an economy with no clean patches). Each runs at
workers 1 and 2. Outputs go to a temporary directory that is removed afterwards.

Then one line per search API probe: its label, the number of candidates
``collect`` gathered and the sha256 of each candidate's state bytes, score
``repr``, lineage, NFE, defect set and mask bits, dtype and ratio. The probes
run ``dfs_search`` with attention masks, with oracle masks (some of them
empty) and with a per-row source that has no ``rows`` (the form perfbench's
tracer wraps), each over two refinement blocks, and ``best_of_n`` over two
base blocks.

Then one line per kernel probe: its label and the sha256 of its arrays. The probes
call, each on a generator of its own, the kernels no CLI run reaches that way:
``sample_base`` on a batch, ``localized_resample`` at ``t_g = 0`` and ``t_g > 0`` on
one row and on a batch, and ``gmm_score``, ``posterior_mean`` and ``log_density`` at
one interior time (see ``kernel_probes``).

Then one line per error probe: its label, the CLI's exit code and the sha256 of its
stderr, the probe's temporary directory written as ``<tmp>``. Each maskgen probe is a
maskgen config with broken inputs, written with the files it names into a temporary
directory of its own: the documents of the maskgen error tests in
``tests/test_harness.py``, documents with several broken keys of different kinds (so a
change in the order of the errors shows), and configs whose errors the config reader
once missed or left unlocated (labels ``found-*``). The rule probes that follow set
one broken value on a shipped config: the mask weight and ratio of a testbed and a
scaling run, the best-of-N repair probability and point count, the caps (labels
``cap-*``), each past its bound: ``theory.bon_n_max``, ``economy.m_patches`` with
per-patch values, ``theory.mc_trials``, ``workers`` (0 and 65) and the value means
``economy.repair_gain`` and ``economy.harm_loss`` (1e300), a defect magnitude of 1e80
on a testbed and a scaling run, the economies whose closed forms overflow (a cost of
1e-320 and a budget of 1e308; labels ``overflow-*``) and one whose best-of-N curve
overflows (``overflow-bon-curve``), a zero budget, an unknown value distribution kind, and
a key the run's kind does not read (``trials`` on a theory run, ``master_seed`` on maskgen).
The ``out-*`` probes run ``theory_worked.json`` with an ``--out`` where no directory can be
made: an existing file, and a path under that file.

Last, one line per output file of the pool probe: ``pool<step>-w<workers>``, the label, file
name and sha256. It runs ``theory_worked+uniform,exponential`` and ``testbed_small`` at
workers 2, 3 and 2 again in this interpreter, so the runs reuse the worker pool the runs above
left, then one of another size, then a new one of the first size; each digest equals the
run's line at workers 1.

A change that must leave every report byte and error text alone is checked by
running this script on the parent and on the change (same script, ``PYTHONPATH``
pointing at each ``src``) and diffing the two outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench.workloads

import numpy as np  # noqa: E402

from localtts.cli import main as cli_main  # noqa: E402
from localtts.attention import mask_from_indices  # noqa: E402
from localtts.config import load_config, validate_config  # noqa: E402
from localtts.resample import ResampleConfig, localized_resample  # noqa: E402
from localtts.search import SearchConfig, best_of_n, dfs_search  # noqa: E402
from localtts.testbed import (  # noqa: E402
    LatentState,
    NoisePredictor,
    PatchWorld,
    gmm_score,
    log_density,
    posterior_mean,
    sample_base,
    verifier_score,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

# one query per position of maskgen_example's 2 x 3 grid; positions 1 and 4 alike,
# so the mask is [0, 1, 0, 0, 1, 0], not the unsmoothed [1, 1, 0, 0, 0, 0]
QUERY_ROWS = [[0.0, 1.0], [3.0, 0.0], [1.0, 0.5], [0.0, -1.0], [3.0, 0.0], [2.0, 1.0]]
QUERIES = json.dumps(QUERY_ROWS)

# raw attention documents for the same grid, each field with its own layers, heads and
# tokens: (layers, heads, tokens, step of the data's pattern)
RAW_DOCS = {key: {"grid": [2, 3], "layers": layers, "heads": heads, "tokens": tokens,
                  "data": [step * i % 7 / 4 for i in range(layers * heads * tokens * 6)]}
            for key, (layers, heads, tokens, step) in {
                "orig": (1, 2, 1, 3), "pos": (2, 1, 3, 2), "neg": (1, 3, 2, 5)}.items()}
RAW = json.dumps(RAW_DOCS)

# maskgen configs whose documents are files beside them, each named relative to the
# config's directory: config name -> {file name: JSON document}, the config included
FILE_CONFIGS = {
    "maskgen_bundle_files": {
        "bundle.json": json.loads((ROOT / "configs" / "maskgen_example.json").read_text())[
            "maskgen"]["bundle"],
        "queries.json": QUERY_ROWS,
        "maskgen_bundle_files.json": {"kind": "maskgen", "maskgen": {
            "bundle": "bundle.json", "queries": "queries.json", "ratio": 0.3}}},
    "maskgen_raw_files": {
        **{f"{key}.json": doc for key, doc in RAW_DOCS.items()},
        "maskgen_raw_files.json": {"kind": "maskgen", "maskgen": {
            "raw": {key: f"{key}.json" for key in RAW_DOCS}, "ratio": 0.4}}},
}

# nine components on one coordinate: the oracle's pairwise sums for d = 1 and K >= 8
K9 = json.dumps([{"weight": w, "mean": mu, "variance": v} for w, mu, v in zip(
    [0.2] + [0.1] * 8, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
    [0.05, 0.3, 0.1, 0.2, 0.09, 0.15, 0.25, 0.06, 0.12])])

# two identical components: every lane of the oracle's log-sum-exp has a tied maximum
TWINS = json.dumps([{"weight": 0.5, "mean": 0.0, "variance": 0.09}] * 2)

UNIFORM, EXPONENTIAL = ('{"kind": "uniform"}', '{"kind": "exponential"}')

# (label, config, overrides); a config is a shipped file name, a workload name or a
# FILE_CONFIGS name
RUNS = [
    *((path.stem, path.name, []) for path in sorted((ROOT / "configs").glob("*.json"))),
    *((f"workload_{name}", name, []) for name in ("testbed_k3", "theory_mc")),
    *((f"{stem}+noise_sd=0", f"{stem}.json", ["attention.noise_sd=0"])
      for stem in ("testbed_small", "scaling_default")),
    *((f"{stem}+t_g=0", f"{stem}.json", ["resample.t_g=0", "resample.n_integrate=0"])
      for stem in ("testbed_small", "scaling_default")),
    # one masked refinement step: the refinement loop's one-step case
    *((f"{stem}+n_refine=1", f"{stem}.json", ["resample.n_refine=1"])
      for stem in ("testbed_small", "scaling_default")),
    # the randomized defect counts leave some oracle masks empty
    *((f"{stem}+oracle_masks", f"{stem}.json", ["attention.oracle_masks=true"])
      for stem in ("testbed_small", "scaling_default")),
    # no seed refines, so no engine block has a mask or a refinement row
    ("scaling_default+refinements=0", "scaling_default.json", ["search.refinements=0"]),
    ("testbed_small+K=9,d=1", "testbed_small.json",
     ["world.patch_dim=1", f"world.components={K9}"]),
    ("testbed_small+twin_components", "testbed_small.json", [f"world.components={TWINS}"]),
    # nine coordinates a patch: the oracle's pairwise sums over d
    *((f"{stem}+patch_dim=9", f"{stem}.json", ["trials=2", "world.patch_dim=9"])
      for stem in ("testbed_small", "scaling_default")),
    ("maskgen_example+queries", "maskgen_example.json", [f"maskgen.queries={QUERIES}"]),
    ("maskgen_example+raw", "maskgen_example.json", ["maskgen.bundle=null", f"maskgen.raw={RAW}"]),
    *((name, name, []) for name in FILE_CONFIGS),
    # 600 draws a search, and an engine block holds 496 rows at dim 32 and 32 steps: the
    # running best-of-N maximum carries across blocks
    ("scaling_default+bon_grid=1,600", "scaling_default.json",
     ["trials=2", "search.bon_grid=[1,600]"]),
    ("theory_worked+uniform,exponential", "theory_worked.json",
     [f"theory.repair_dist={UNIFORM}", f"theory.harm_dist={EXPONENTIAL}"]),
    # 4,096 + 512 + 1 trials: the second chunk ends one row past a 512-row slab
    ("theory_worked+exponential,exponential", "theory_worked.json",
     [f"theory.repair_dist={EXPONENTIAL}", f"theory.harm_dist={EXPONENTIAL}",
      "theory.mc_trials=4609"]),
    # one distribution constant: the mixed pair takes the per-patch array path
    ("theory_worked+constant,uniform", "theory_worked.json", [f"theory.harm_dist={UNIFORM}"]),
    # every patch defective, so the clean-patch draws are empty
    ("theory_worked+no_clean_patches", "theory_worked.json",
     ["economy.m_patches=10", "economy.defects=10", "mask_stats.precision=1",
      f"theory.repair_dist={UNIFORM}", f"theory.harm_dist={UNIFORM}"]),
]


# maskgen_example's bundle, and raw attention documents of a 1 x 2 grid
BUNDLE = json.loads((ROOT / "configs" / "maskgen_example.json").read_text())["maskgen"]["bundle"]
RAW_2 = {"grid": [1, 2], "layers": 2, "heads": 1, "tokens": 1, "data": [0.0, 2.0, 4.0, 6.0]}
RAW_1 = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [0.5, 1.0]}
# the files an error probe's config may name: a JSON value, or a string written as is
PROBE_FILES = {"list.json": [1, 2], "dict.json": {"a": 1}, "bad.json": "[1,",
               "queries.json": "[[1.0, 0.0], 1]"}


def raw_probes(label: str, docs: dict, **section) -> list:
    """A raw-document error probe with its documents inline, and one with each in a file."""
    return [(label, {"raw": docs, **section}, {}),
            (f"{label}+files", {"raw": {key: f"{key}.json" for key in docs}, **section},
             {f"{key}.json": doc for key, doc in docs.items()})]


# (label, maskgen section, {file name: document}); PROBE_FILES are written for each
ERROR_PROBES = [
    *((f"source:{json.dumps(source)}", source, {}) for source in [
        {"raw": "raw.json"}, {"bundle": "list.json"}, {"bundle": 5}, {"raw": [1]},
        {"raw": {"orig": 1, "pos": {}}}, {"raw": {}}, {"bundle": BUNDLE, "queries": 7},
        {"bundle": BUNDLE, "queries": {"a": 1}}, {"bundle": BUNDLE, "queries": "dict.json"},
        *({"bundle": {**BUNDLE, "grid": grid}} for grid in (6, {"a": 1}, [2], [2, 3.7])),
        {"raw": dict.fromkeys(("orig", "pos", "neg"), "list.json")},
        *({"bundle": BUNDLE, "queries": name} for name in ("none.json", ".", "bad.json")),
        {"bundle": "absent.json"}, {"weight": 0.5, "ratio": 0.5}, {"bundle": {}, "raw": {}},
        {"raw": {**dict.fromkeys(("orig", "pos", "neg"), RAW_1), "extra": RAW_1}}]),
    *((f"bundle:{json.dumps(edit)}", {"bundle": {**BUNDLE, **edit}, "ratio": 0.2}, {})
      for edit in [{"note": 1}, {"orig": ["1"] * 6}, {"orig": [True] * 6},
                   {"orig": [1, 1], "neg": [-1, 1, 1, 1, 1, 1]}, {"neg": [1] * 5 + [False]}]),
    *(probe for edit in [{"layers": 2.7}, {"layers": "2"}, {"layers": True}, {"note": 1},
                         {"data": [0.0, 2.0, 4.0, None]}]
      for probe in raw_probes(f"raw:{json.dumps(edit)}", {"orig": {**RAW_2, **edit}, "pos": RAW_2,
                                                          "neg": RAW_2})),
    *raw_probes("raw:length,layers", {"orig": {**RAW_1, "data": [0.5, 1.0, 2.0]}, "pos": RAW_1,
                                      "neg": {**RAW_1, "layers": 0}}),
    *raw_probes("raw:grid,sign,counts", {"orig": {**RAW_1, "grid": [0, 2]},
                                         "pos": {**RAW_1, "data": [-1.0, 1.0]},
                                         "neg": {**RAW_1, "heads": 0, "tokens": 0}}),
    *raw_probes("raw:unknown_keys", {"orig": {**RAW_1, "note": 1}, "pos": RAW_1,
                                     "neg": {**RAW_1, "extra": 2}}),
    *raw_probes("raw:grids_differ", {key: {"grid": [1, cols], "layers": 1, "heads": 1, "tokens": 1,
                                           "data": [1.0] * cols}
                                     for key, cols in (("orig", 2), ("pos", 3), ("neg", 2))}),
    ("bundle:extra,ratio", {"bundle": {**BUNDLE, "extra": 1}, "ratio": 2}, {}),
    ("bundle:extra,ratio+file", {"bundle": "bundle.json", "ratio": 2},
     {"bundle.json": {**BUNDLE, "extra": 1}}),
    *((f"bundle_file:{json.dumps(doc)[:40]}", {"bundle": "bundle.json"}, {"bundle.json": doc})
      for doc in [{**BUNDLE, "note": 1}, {**BUNDLE, "neg": [1] * 5 + [False]}, [1, 2]]),
    *((f"queries:{json.dumps(queries)}", {"bundle": BUNDLE, "queries": queries}, {})
      for queries in [[[True, False], [False, True]], [["1", "0"], ["0", "1"]],
                      [[None, 1], [1, 0]], "queries.json", [[1.0, 0.0]] * 4]),
    ("overflow:queries", {"bundle": BUNDLE, "queries": [[1e200, 0.0]] * 6}, {}),
    ("overflow:weighted_origin", {"bundle": {**BUNDLE, "orig": [1e308] * 6}, "weight": 10}, {}),
    # several broken keys of different kinds in one document each
    *raw_probes("several:raw", {"orig": {"grid": [1, 2], "layers": 2.5, "heads": True,
                                         "tokens": 1, "note": 1}, "pos": RAW_1, "neg": RAW_1}),
    ("several:bundle", {"bundle": {"grid": [2, 3], "orig": "x", "neg": [True], "extra": 1}}, {}),
    # every document read whatever the source count, the queries' shape, a located overflow
    ("found-both_sources", {"bundle": {**BUNDLE, "note": 1}, "raw": dict.fromkeys(
        ("orig", "pos", "neg"), RAW_1)}, {}),
    ("found-no_source,queries", {"queries": [[True]]}, {}),
    ("found-ragged_queries", {"bundle": BUNDLE, "queries": [[1, 0], [0]] * 3}, {}),
    ("found-ragged_queries+file", {"bundle": BUNDLE, "queries": "ragged.json"},
     {"ragged.json": [[1, 0], [0]] * 3}),
    ("found-empty_queries", {"bundle": BUNDLE, "queries": [[]] * 6}, {}),
    ("found-queries_size,ratio", {"bundle": BUNDLE, "queries": [[1.0, 0.0]] * 4, "ratio": 2}, {}),
    *raw_probes("found-huge_integer", {"orig": {**RAW_1, "data": [10 ** 320, 1]}, "pos": RAW_1,
                                       "neg": RAW_1}),
]


# (label, shipped config, overrides): one broken value each, outside maskgen
RULE_PROBES = [
    *((f"{stem}:attention.{key}={value}", f"{stem}.json", [f"attention.{key}={value}"])
      for stem in ("testbed_small", "scaling_default")
      for key, value in (("weight", -1), ("ratio", 1.5))),
    *((f"theory_worked:theory.{key}={value}", "theory_worked.json", [f"theory.{key}={value}"])
      for key, value in (("bon_repair_prob_one", 1), ("bon_n_max", 0))),
    # one past each cap: at most 100,000 best-of-N points, and 25,000 patches when the
    # Monte Carlo draws per-patch values (one trial, so the run is short where no cap holds)
    ("cap-bon_n_max", "theory_worked.json", ["theory.mc_trials=0", "theory.bon_n_max=100001"]),
    ("cap-m_patches", "theory_worked.json", ["theory.mc_trials=1", "economy.m_patches=25001",
                                             f"theory.repair_dist={EXPONENTIAL}"]),
    # the Monte Carlo's trial cap and value-mean caps, and the worker cap at both ends
    ("cap-mc_trials", "theory_worked.json", ["theory.mc_trials=100000001"]),
    *((f"cap-workers={workers}", "testbed_small.json", [f"workers={workers}"])
      for workers in (0, 65)),
    *((f"cap-{key}", "theory_worked.json", [f"economy.{key}=1e300"])
      for key in ("repair_gain", "harm_loss")),
    # a defect whose verifier term is finite but above the world's score cap
    *((f"{stem}:defects.magnitude=1e80", f"{stem}.json", ["defects.magnitude=1e80"])
      for stem in ("testbed_small", "scaling_default")),
    # economies whose closed forms overflow, reported before the Monte Carlo runs
    *((f"overflow-{key}", "theory_worked.json", [f"economy.{key}={value}"])
      for key, value in (("cost_local", 1e-320), ("cost_global", 1e-320), ("budget", 1e308))),
    # finite closed forms, but a best-of-N curve that divides by n * cost_global overflows
    ("overflow-bon-curve", "theory_worked.json", [f"economy.{key}={value}" for key, value in (
        ("cost_global", 1e-310), ("cost_local", 1e-310), ("budget", 1e-10),
        ("repair_prob_global", 1e-10), ("harm_prob_global", 0), ("repair_prob_local", 1e-10),
        ("harm_prob_local", 0))]),
    ("theory_worked:economy.budget=0", "theory_worked.json", ["economy.budget=0"]),
    ("theory_worked:theory.repair_dist.kind=gamma", "theory_worked.json",
     ["theory.repair_dist.kind=gamma"]),
    # a key the run's kind does not read, at a value its range rule would reject
    ("theory_worked:trials=70000", "theory_worked.json", ["trials=70000"]),
    ("maskgen_example:master_seed=-1", "maskgen_example.json", ["master_seed=-1"]),
]


# (label, --out under the probe's directory, which holds a file named taken)
OUT_PROBES = [("out-existing-file", "taken"), ("out-under-file", "taken/run")]

# runs that share this interpreter's worker pools: the pool of 2 from the runs above, then one
# of 3 in its place, then a new one of 2, each used by a theory run that draws per-patch values
# (so a worker fills a workspace) and by a testbed run; each file equals its RUNS line at 1 worker
POOL_WORKERS = (2, 3, 2)
POOL_RUNS = [run for run in RUNS if run[0] in ("theory_worked+uniform,exponential",
                                               "testbed_small")]


def cli_probe(args: list, tmp: Path, out: str = "out") -> tuple[int, str]:
    """The exit code and stderr digest of the CLI on args, writing its output under tmp."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main([*args, "--out", str(tmp / out)])
    return code, hashlib.sha256(err.getvalue().replace(str(tmp), "<tmp>").encode()).hexdigest()


def error_probe(section: dict, files: dict, tmp: Path) -> tuple[int, str]:
    """The exit code and stderr digest of the maskgen CLI on one broken config."""
    for name, doc in {**PROBE_FILES, **files}.items():
        (tmp / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    (tmp / "cfg.json").write_text(json.dumps({"kind": "maskgen", "maskgen": section}))
    return cli_probe(["maskgen", "--config", str(tmp / "cfg.json")], tmp)


def rule_probe(config: str, overrides: list, tmp: Path) -> tuple[int, str]:
    """The exit code and stderr digest of the CLI on a shipped config with overrides."""
    path = ROOT / "configs" / config
    args = [json.loads(path.read_text())["kind"], "--config", str(path)]
    for setting in overrides:
        args += ["--set", setting]
    return cli_probe(args, tmp)


def per_row(source):
    """source without its rows method: the engine calls it once per refining seed."""
    return lambda state, true_set, rng: source(state, true_set, rng)


# (label, config, overrides, mask source of the settings or None for best_of_n, seed);
# 300 seeds of 3 refinements are two refinement blocks at dim 32 and 18 refinement steps,
# and 600 best-of-N draws two base blocks at 32 steps
API_PROBES = [
    ("dfs_search+attention", "testbed_small.json", [], lambda source: source, 1),
    ("dfs_search+oracle_masks", "testbed_small.json", ["attention.oracle_masks=true"],
     lambda source: source, 2),
    ("dfs_search+per_row_source", "testbed_small.json", [], per_row, 3),
    ("best_of_n=600", "scaling_default.json", [], None, 4),
]


def candidate_bytes(cand) -> bytes:
    """A candidate's time, score repr, lineage, NFE and mask ratio and grid, then the
    dtype, shape and bytes of its state, defect set and mask bits."""
    fields, arrays = [cand.state.t, cand.score, cand.lineage, cand.nfe_cost], [cand.state.x]
    if cand.defects is not None:
        arrays.append(cand.defects)
    if cand.mask is not None:
        fields += [cand.mask.ratio, cand.mask.grid]
        arrays.append(cand.mask.bits)
    return (repr(fields + [(a.dtype.str, a.shape) for a in arrays]).encode()
            + b"".join(a.tobytes() for a in arrays))


def api_probe(config: str, overrides: list, wrap, seed: int) -> tuple[int, str]:
    """The candidate count and digest of one search probe."""
    settings = load_config(ROOT / "configs" / config, overrides)[0].settings
    predictor = NoisePredictor(world=settings.world, schedule=settings.schedule)
    rng, collected = np.random.default_rng(seed), []
    if wrap is None:
        best_of_n(predictor, 600, rng, settings.sampler(), collect=collected)
    else:
        dfs_search(predictor, wrap(settings.mask_source()), SearchConfig(seeds=300, refinements=3),
                   settings.resample, rng, settings.sampler(), collect=collected)
    digest = hashlib.sha256()
    for cand in collected:
        digest.update(candidate_bytes(cand))
    return len(collected), digest.hexdigest()


def kernel_probes() -> list:
    """(label, arrays) of the kernels no CLI run calls on a generator of its own:
    sample_base on a batch, localized_resample at t_g = 0 and t_g > 0 on one row and on
    a batch (its state, score and the generator's next draw), and the oracle's score,
    posterior mean and log-density at one interior time. They run on the testbed_k3
    world and on a copy whose last patch has its own first variance (label
    ``+per_patch``), so the oracle keeps one column of constants, then one a patch."""
    settings = validate_config(WORKLOADS["testbed_k3"].base_config(ROOT)).settings
    shared, schedule = settings.world, settings.schedule
    variances = shared.variances.copy()
    variances[-1, 0] += 0.01
    per_patch = PatchWorld(grid=shared.grid, patch_dim=shared.patch_dim, weights=shared.weights,
                           means=shared.means, variances=variances,
                           verifier_weights=shared.verifier_weights)
    mask, probes = mask_from_indices(shared.grid, [1, 9, 10, 40]), []
    for suffix, world in (("", shared), ("+per_patch", per_patch)):
        predictor = NoisePredictor(world=world, schedule=schedule)
        drawn = sample_base(predictor, np.random.default_rng(5), shape=(6,)).x
        probes.append((f"sample_base{suffix}", [drawn]))
        for cfg in (ResampleConfig(t0=0.5, t_g=0.0, n_refine=5, n_integrate=0),
                    settings.resample):
            for rows, anchor in (("row", drawn[0]), ("batch", drawn)):
                rng = np.random.default_rng(7)
                state, score = localized_resample(
                    predictor, LatentState(x=anchor, t=0.0), mask, cfg,
                    lambda state: verifier_score(world, state), rng)
                probes.append((f"localized_resample+t_g={cfg.t_g:g}+{rows}{suffix}",
                               [state.x, np.asarray(score), rng.standard_normal(1)]))
        probes += [(f"{fn.__name__}{suffix}", [fn(world, schedule, drawn, 0.37)])
                   for fn in (gmm_score, posterior_mean, log_density)]
    return probes


def config_path(config: str, tmp: Path) -> Path:
    """A shipped config's path, or a workload's config or a FILE_CONFIGS config and its
    documents written under tmp."""
    if config.endswith(".json"):
        return ROOT / "configs" / config
    for name, doc in FILE_CONFIGS.get(config, {}).items():
        (tmp / name).write_text(json.dumps(doc))
    path = tmp / f"{config}.json"
    if config in WORKLOADS:
        path.write_text(json.dumps(WORKLOADS[config].base_config(ROOT)))
    return path


def run_lines(prefix: str, label: str, config: str, overrides: list, workers: int,
              tmp: Path) -> list | None:
    """'prefix label file sha256' for each output file of one CLI run, or None if it failed."""
    path = config_path(config, tmp)
    out = tmp / f"{prefix}-{label}"
    args = [json.loads(path.read_text())["kind"], "--config", str(path), "--out", str(out)]
    for setting in [*overrides, f"workers={workers}"]:
        args += ["--set", setting]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    if code != 0:
        print(f"{label} at workers={workers} exited {code}", file=sys.stderr)
        return None
    return [f"{prefix} {label} {file.name} {hashlib.sha256(file.read_bytes()).hexdigest()}"
            for file in sorted(out.iterdir())]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_text:
        for label, config, overrides in RUNS:
            for workers in (1, 2):
                lines = run_lines(str(workers), label, config, overrides, workers, Path(tmp_text))
                if lines is None:
                    return 1
                print(*lines, sep="\n")
    for label, config, overrides, wrap, seed in API_PROBES:
        count, digest = api_probe(config, overrides, wrap, seed)
        print(f"api {label} {count} {digest}")
    for label, arrays in kernel_probes():
        print(f"kernel {label} {hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest()}")
    for label, section, files in ERROR_PROBES:
        with tempfile.TemporaryDirectory() as tmp_text:
            code, digest = error_probe(section, files, Path(tmp_text))
        print(f"error {label.replace(' ', '')} {code} {digest}")
    for label, config, overrides in RULE_PROBES:
        with tempfile.TemporaryDirectory() as tmp_text:
            code, digest = rule_probe(config, overrides, Path(tmp_text))
        print(f"error {label} {code} {digest}")
    theory_args = ["theory", "--config", str(ROOT / "configs" / "theory_worked.json")]
    for label, out in OUT_PROBES:
        with tempfile.TemporaryDirectory() as tmp_text:
            (Path(tmp_text) / "taken").write_text("")
            code, digest = cli_probe(theory_args, Path(tmp_text), out)
        print(f"error {label} {code} {digest}")
    with tempfile.TemporaryDirectory() as tmp_text:
        for step, workers in enumerate(POOL_WORKERS):
            for label, config, overrides in POOL_RUNS:
                lines = run_lines(f"pool{step}-w{workers}", label, config, overrides, workers,
                                  Path(tmp_text))
                if lines is None:
                    return 1
                print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
