"""Outside-in span tracing of ringseg's public functions.

`Tracer.install()` replaces each target function at every binding inside
the loaded `ringseg.*` modules that refers to it, so calls made from
`pipeline` and `cli`, and nested calls such as `enlarge_and_merge` ->
`merge_candidates`, all pass through a timer. Spans are kept in memory as
(phase, frame, name, start, end, parent, counts) and written out once, at
the end of the run. Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

FRAME_SPAN = "pipeline"


def _rings(args, result):
    return {"rings_found": int(result.ring_ids.max()) + 1 if len(result) else 0}


def _ground(args, result):
    mask, planes = result
    return {"ground_points": int(mask.sum()), "points": int(mask.size),
            "degenerate_segments": sum(p is None for p in planes)}


def _filter(args, result):
    return {"kept": len(result[0]), "candidates": len(args[0].clusters)}


# (module, function, layer, counter of (args, result) -> {name: number})
TARGETS = (
    ("ringseg.cloud", "load_point_cloud", "cloud.load", None),
    ("ringseg.cloud", "load_labels", "cloud.load", None),
    ("ringseg.cloud", "assign_rings", "cloud.assign_rings", _rings),
    ("ringseg.ground", "split_segments", "ground.fit", None),
    ("ringseg.ground", "ground_plane_fit", "ground.fit", _ground),
    ("ringseg.clustering", "cluster_ring_based", "clustering.cluster",
     lambda a, r: {"clusters": len(r.clusters)}),
    ("ringseg.kernels", "cluster_scan", "clustering.scan",
     lambda a, r: {"points_in": len(a[0])}),
    ("ringseg.clustering", "resolve_labels", "clustering.resolve", None),
    ("ringseg.refine", "min_oriented_bbox", "refine.boxfit",
     lambda a, r: {"boxfits": 1}),
    ("ringseg.refine", "filter_proposals", "refine.filter", _filter),
    ("ringseg.refine", "enlarge_bbox", "refine.merge", None),
    ("ringseg.refine", "merge_candidates", "refine.merge",
     lambda a, r: {"absorbed_points": int(r.size)}),
    ("ringseg.refine", "enlarge_and_merge", "refine.merge", None),
    ("ringseg.pipeline", "run_stage1", FRAME_SPAN, None),
    ("ringseg.samples", "canonical_transform", "samples.canonical", None),
    ("ringseg.samples", "augment_eightfold", "samples.augment", None),
    ("ringseg.samples", "resample_points", "samples.resample", None),
    ("ringseg.samples", "export_samples", "samples.export",
     lambda a, r: {"written": len(a[0])}),
    ("ringseg.metrics", "proposal_recall", "metrics.recall", None),
    ("ringseg.cli", "cmd_segment", "cli.segment", None),
    ("ringseg.cli", "cmd_prepare", "cli.prepare", None),
    ("ringseg.cli", "cmd_eval", "cli.eval", None),
)


class Tracer:
    """Records nested spans while installed; `phase` and `frame` are set by
    the caller and stamped on every span."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = ""
        self.frame = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [self.phase, self.frame, layer, 0.0, 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    span[6] = count(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass  # a changed return shape shows as a zero count
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ringseg" or name.startswith("ringseg.")]
        self.missing = []
        for mod_name, fn_name, layer, count in TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(original, layer, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self, phase: str) -> list[tuple[int, str, float, dict | None]]:
        """(frame, layer, self seconds, counts) per span of `phase`: its
        duration minus the time its direct children cover."""
        child = defaultdict(float)
        for _, _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(frame, layer, end - start - child[i], counts)
                for i, (ph, frame, layer, start, end, _, counts) in enumerate(self.spans)
                if ph == phase]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
