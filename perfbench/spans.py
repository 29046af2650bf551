"""Span tracing of localtts from outside the package.

``install`` replaces each traced public function with a wrapper in every
localtts module namespace that holds it, because callers look functions up
in their own module's globals (``sample_base`` is called through both
``testbed`` and ``search``). ``NoisePredictor.evaluate`` is wrapped on the
class. Each wrapper records a span (name, start, end, parent span,
operation id) in memory, plus the counts its layer's ratios need; nothing
in ``src/`` changes, and ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _states(x) -> int:
    """Oracle states in an array of shape (..., dim), as the NFE counter counts them."""
    shape = getattr(x, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent span index, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._open: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs outside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._open[-1] if tracer._open else None
            tracer._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{name}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> dict[str, list[str]]:
        """Wrap every traced function; returns the namespaces patched per span."""
        import localtts.cli  # noqa: F401  (imports every module the CLI can reach)
        import localtts.testbed as testbed

        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "localtts" or key.startswith("localtts.")}
        verifier_score = testbed.verifier_score
        counts = self.counts

        def count_states(key):
            def after(args, result):  # args[1] is an array or a LatentState
                counts[key] += _states(getattr(args[1], "x", args[1]))
            return after

        def dfs_after(args, best):
            counts["search.dfs_search.refinement_wins"] += best.lineage[1] is not None

        def resample_after(args, result):
            predictor, anchor = args[0], args[1]
            counts["resample.localized_resample.improved"] += (
                float(result[1]) > float(verifier_score(predictor.world, anchor)))

        def simulate_after(args, result):
            counts["theory.simulate_patch_economy.trials"] += result.trials

        def mask_source_factory(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                source = factory(*args, **kwargs)

                def traced_source(state, true_set, rng):
                    mask = source(state, true_set, rng)
                    selected = set(mask.selected.tolist())
                    truth = {int(j) for j in true_set}
                    hits = len(selected & truth)
                    counts["attention.masks"] += 1
                    counts["attention.recall_sum"] += hits / len(truth) if truth else 1.0
                    counts["attention.precision_sum"] += hits / len(selected) if selected else 0.0
                    return mask
                return traced_source
            return make

        # span name = <module>.<function>, the function's home module in localtts
        targets = [
            ("testbed.sample_base", None),
            ("testbed.verifier_score", count_states("testbed.verifier_score.states")),
            ("search.sweep_trial", None),
            ("search.dfs_search", dfs_after),
            ("resample.localized_resample", resample_after),
            ("attention.mask_gen", None),
            ("theory.simulate_patch_economy", simulate_after),
            ("harness.run_experiment", None),
            ("harness.run_trials", None),
        ]
        patched = {}
        evaluate = testbed.NoisePredictor.evaluate
        testbed.NoisePredictor.evaluate = self.wrap(
            "testbed.evaluate", evaluate, count_states("testbed.evaluate.states"))
        self._restore.append((testbed.NoisePredictor, "evaluate", evaluate))
        patched["testbed.evaluate"] = ["localtts.testbed.NoisePredictor"]
        for span, after in targets:
            home, attr = span.split(".")
            original = getattr(modules[f"localtts.{home}"], attr)
            patched[span] = self._replace(modules, original, self.wrap(span, original, after))
        factory = modules["localtts.search"].attention_mask_source
        patched["attention.mask_source"] = self._replace(
            modules, factory, mask_source_factory(factory))
        return patched

    def _replace(self, modules: dict, original, replacement) -> list[str]:
        names = []
        for key, module in sorted(modules.items()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))
                    names.append(key)
        return names

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def durations(self, factors: dict | None = None
                  ) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Busy time, self time and call count per span name.

        Self time is a span's duration minus the time its child spans cover.
        ``factors`` maps an operation id to the factor its spans' durations
        are multiplied by (1 for operations it does not name).
        """
        factors = factors or {}
        lengths = [(end - start) * factors.get(op, 1.0) for _, start, end, _, op in self.spans]
        child_time = defaultdict(float)
        for (_, _, _, parent, _), length in zip(self.spans, lengths):
            if parent is not None:
                child_time[parent] += length
        busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for index, ((name, *_), length) in enumerate(zip(self.spans, lengths)):
            busy[name] += length
            own[name] += length - child_time[index]
            calls[name] += 1
        return busy, own, calls

    def write(self, path: Path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
