"""The benchmark's workloads: the experiment config one operation runs.

Each workload starts from a shipped config in ``configs/`` and fixes the
per-operation work, so an operation takes about half a second to a second on
a 2-core machine and a run holds enough operations for a tail percentile.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# nproc of the reference machine; the pool workloads never ask for more.
POOL_WORKERS = 2

# Criterion 06's three-component mixture: the K > 1 oracle path.
K3_COMPONENTS = [
    {"weight": 0.3, "mean": -0.8, "variance": 0.09},
    {"weight": 0.5, "mean": 0.4, "variance": 0.25},
    {"weight": 0.2, "mean": 1.5, "variance": 0.04},
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config_file: str
    edits: dict

    def base_config(self, root: Path) -> dict:
        """The shipped config with this workload's edits applied."""
        raw = json.loads((root / "configs" / self.config_file).read_text())
        for dotted, value in self.edits.items():
            target = raw
            *parents, leaf = dotted.split(".")
            for key in parents:
                target = target[key]
            target[leaf] = copy.deepcopy(value)
        return raw


WORKLOADS = {w.name: w for w in (
    Workload(
        name="scaling",
        why="search layer: ~1,880 unbatched oracle calls per trial, most time in "
            "sample_base; lockstep batching and a cheaper oracle show here first",
        config_file="scaling_default.json",
        edits={"trials": 2, "workers": 1},
    ),
    Workload(
        name="testbed_k3",
        why="no search layer: 8x8 grid, d=4, K=3 mixture, resample and S=64 mask_gen; "
            "a K=1-only oracle shortcut cannot pass as a general gain",
        config_file="testbed_small.json",
        edits={"trials": 25, "workers": 1, "world.grid": [8, 8], "world.patch_dim": 4,
               "world.components": K3_COMPONENTS, "defects.count": 6},
    ),
    Workload(
        name="theory_mc",
        why="theory Monte Carlo through the process pool, no oracle calls; "
            "accumulator and pool changes show here, testbed or search changes must not",
        config_file="theory_worked.json",
        edits={"workers": POOL_WORKERS, "theory.mc_trials": 200_000,
               "theory.repair_dist": {"kind": "exponential"},
               "theory.harm_dist": {"kind": "uniform"}},
    ),
)}


def operation_config(base: dict, seed: int, index: int, workers: int | None = None) -> dict:
    """Config of operation ``index`` of a run seeded with ``seed``.

    The master seed depends only on (seed, index), so repeating an operation
    repeats its input exactly.
    """
    raw = copy.deepcopy(base)
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    raw["master_seed"] = int.from_bytes(digest[:8], "little")
    if workers is not None:
        raw["workers"] = workers
    return raw


def trials_of(raw: dict) -> int:
    """Trials one operation completes: Monte Carlo trials for theory."""
    return raw["theory"]["mc_trials"] if raw["kind"] == "theory" else raw["trials"]
