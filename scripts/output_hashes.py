"""Print the sha256 of every output file of a fixed set of CLI runs.

    PYTHONPATH=src python scripts/output_hashes.py > hashes.txt

One line per output file: workers, config label, file name and sha256. The
runs are the shipped configs in ``configs/``, the ``testbed_k3`` and
``theory_mc`` benchmark workload configs (read from
``perfbench/workloads.py``), and probes of paths no shipped config takes:
noiseless attention, a resample with ``t_g = 0``, and maskgen with queries.
Each runs at workers 1 and 2. Outputs go to a temporary directory that is
removed afterwards.

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

# (label, config, overrides); a config is a shipped file name or a workload name
RUNS = [
    *((path.stem, path.name, []) for path in sorted((ROOT / "configs").glob("*.json"))),
    *((f"workload_{name}", name, []) for name in ("testbed_k3", "theory_mc")),
    *((f"{stem}+noise_sd=0", f"{stem}.json", ["attention.noise_sd=0"])
      for stem in ("testbed_small", "scaling_default")),
    *((f"{stem}+t_g=0", f"{stem}.json", ["resample.t_g=0", "resample.n_integrate=0"])
      for stem in ("testbed_small", "scaling_default")),
    ("maskgen_example+queries", "maskgen_example.json", [f"maskgen.queries={QUERIES}"]),
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
