"""Print the sha256 of every output file of a fixed set of CLI runs.

    PYTHONPATH=src python scripts/output_hashes.py > hashes.txt

One line per output file: workers, config label, file name and sha256. The
runs are the shipped configs in ``configs/``, the ``testbed_k3`` and
``theory_mc`` benchmark workload configs (read from
``perfbench/workloads.py``), and probes of paths no shipped config takes:
noiseless attention, a resample with ``t_g = 0``, a resample of one refinement
step, oracle masks (some of them empty), a nine-component world of ``patch_dim``
1, maskgen with queries, maskgen from inline raw attention documents, best-of-N
searches that each span two engine blocks, and Monte Carlo runs with the value
distributions no shipped config draws (a uniform repair, a mixed
constant/uniform pair, an economy with no clean patches). Each runs at workers
1 and 2. Outputs go to a temporary directory that is removed afterwards.

A change that must leave every report byte alone is checked by running this
script on the parent and on the change (same script, ``PYTHONPATH`` pointing
at each ``src``) and diffing the two outputs.
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

from localtts.cli import main as cli_main  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# one query per position of maskgen_example's 2 x 3 grid; positions 1 and 4 alike,
# so the mask is [0, 1, 0, 0, 1, 0], not the unsmoothed [1, 1, 0, 0, 0, 0]
QUERIES = json.dumps([[0.0, 1.0], [3.0, 0.0], [1.0, 0.5], [0.0, -1.0], [3.0, 0.0], [2.0, 1.0]])

# inline raw attention documents for the same grid, each field with its own layers, heads and
# tokens: (layers, heads, tokens, step of the data's pattern)
RAW = json.dumps({key: {"grid": [2, 3], "layers": layers, "heads": heads, "tokens": tokens,
                        "data": [step * i % 7 / 4 for i in range(layers * heads * tokens * 6)]}
                  for key, (layers, heads, tokens, step) in {
                      "orig": (1, 2, 1, 3), "pos": (2, 1, 3, 2), "neg": (1, 3, 2, 5)}.items()})

# nine components on one coordinate: the oracle's pairwise sums for d = 1 and K >= 8
K9 = json.dumps([{"weight": w, "mean": mu, "variance": v} for w, mu, v in zip(
    [0.2] + [0.1] * 8, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
    [0.05, 0.3, 0.1, 0.2, 0.09, 0.15, 0.25, 0.06, 0.12])])

UNIFORM, EXPONENTIAL = ('{"kind": "uniform"}', '{"kind": "exponential"}')

# (label, config, overrides); a config is a shipped file name or a workload name
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
    ("testbed_small+oracle_masks", "testbed_small.json", ["attention.oracle_masks=true"]),
    ("testbed_small+K=9,d=1", "testbed_small.json",
     ["world.patch_dim=1", f"world.components={K9}"]),
    ("maskgen_example+queries", "maskgen_example.json", [f"maskgen.queries={QUERIES}"]),
    ("maskgen_example+raw", "maskgen_example.json", ["maskgen.bundle=null", f"maskgen.raw={RAW}"]),
    # 600 draws a search, and an engine block holds 496 rows at dim 32 and 32 steps: the
    # running best-of-N maximum carries across blocks
    ("scaling_default+bon_grid=1,600", "scaling_default.json",
     ["trials=2", "search.bon_grid=[1,600]"]),
    ("theory_worked+uniform,exponential", "theory_worked.json",
     [f"theory.repair_dist={UNIFORM}", f"theory.harm_dist={EXPONENTIAL}"]),
    # one distribution constant: the mixed pair takes the per-patch array path
    ("theory_worked+constant,uniform", "theory_worked.json", [f"theory.harm_dist={UNIFORM}"]),
    # every patch defective, so the clean-patch draws are empty
    ("theory_worked+no_clean_patches", "theory_worked.json",
     ["economy.m_patches=10", "economy.defects=10", "mask_stats.precision=1",
      f"theory.repair_dist={UNIFORM}", f"theory.harm_dist={UNIFORM}"]),
]


def config_path(config: str, tmp: Path) -> Path:
    """A shipped config's path, or a workload's config written under tmp."""
    if config.endswith(".json"):
        return ROOT / "configs" / config
    path = tmp / f"{config}.json"
    path.write_text(json.dumps(WORKLOADS[config].base_config(ROOT)))
    return path


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_text:
        tmp = Path(tmp_text)
        for label, config, overrides in RUNS:
            path = config_path(config, tmp)
            kind = json.loads(path.read_text())["kind"]
            for workers in (1, 2):
                out = tmp / f"{label}-w{workers}"
                args = [kind, "--config", str(path), "--out", str(out)]
                for setting in [*overrides, f"workers={workers}"]:
                    args += ["--set", setting]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(args)
                if code != 0:
                    print(f"{label} at workers={workers} exited {code}", file=sys.stderr)
                    return 1
                for file in sorted(out.iterdir()):
                    digest = hashlib.sha256(file.read_bytes()).hexdigest()
                    print(f"{workers} {label} {file.name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
