"""Spans recorded from outside the program, around the calls into each layer.

Each layer is timed by replacing a public function under the name its caller
binds (for example ``nf_aliaser.runner.partial_image``) with a wrapper that
records a span: name, start, end, parent, call id, process CPU seconds, and
counts derived from the arguments or result. Spans stay in memory until the
run ends. A layer whose function can no longer be found is reported as
missing, never as 0, so that a refactor shows up instead of zeroing a layer.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from pathlib import Path


def _stat_bytes(args, result):
    return Path(args["path"]).stat().st_size


def _partial_image_cells(args, result):
    return args["array"].num_elements * args["grid"].num_cells


def _mask_cells(args, result):
    return (args["tx"].num_elements + args["rx"].num_elements) * args["grid"].num_cells


def _manifest_bytes(args, result):
    return sum(p["bytes"] for p in result["products"])


# (module, attribute path under which the caller finds it, span name, counters)
LAYERS = [
    ("nf_aliaser.cli", "load_config", "config.load_config", {}),
    ("nf_aliaser.cli", "run", "runner", {}),
    ("nf_aliaser.cli", "sweep", "runner", {}),
    ("nf_aliaser.geometry", "EvalGrid.cell_centers", "geometry.cell_centers",
     {"bytes": lambda args, result: result.nbytes}),
    ("nf_aliaser.runner", "partial_image", "imaging.partial_image",
     {"element_cells": _partial_image_cells}),
    ("nf_aliaser.runner", "bistatic_image", "imaging.bistatic_image", {}),
    ("nf_aliaser.runner", "aliasing_mask", "chirp.aliasing_mask",
     {"element_cells": _mask_cells}),
    ("nf_aliaser.runner", "sample_chirp_along_axis", "spectral.sample_chirp_along_axis",
     {"samples": lambda args, result: len(result)}),
    ("nf_aliaser.runner", "spectral_support", "spectral.spectral_support", {}),
    ("nf_aliaser.runner", "write_field_csv", "outputs.write_field_csv", {"bytes": _stat_bytes}),
    ("nf_aliaser.runner", "write_field_pgm", "outputs.write_field_pgm", {}),
    ("nf_aliaser.runner", "write_mask_csv", "outputs.write_mask_csv", {"bytes": _stat_bytes}),
    ("nf_aliaser.runner", "write_mask_pgm", "outputs.write_mask_pgm", {}),
    ("nf_aliaser.runner", "write_spectrum_csv", "outputs.write_spectrum_csv", {}),
    ("nf_aliaser.runner", "write_sweep_csv", "outputs.write_sweep_csv", {}),
    ("nf_aliaser.runner", "write_manifest", "outputs.write_manifest",
     {"bytes_hashed": _manifest_bytes}),
]

ROOT_SPAN = "cli"


class Tracer:
    """Wraps the layer functions while installed and keeps every span in memory."""

    def __init__(self):
        self.spans = []
        self.missing = set()  # span names none of whose functions were found
        self._stack = []
        self._call_id = None

    def _wrap(self, name, fn, counters):
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._call_id is None:
                return fn(*args, **kwargs)
            span = {"name": name, "call": tracer._call_id, "id": len(tracer.spans),
                    "parent": tracer._stack[-1]["id"], "counts": {}}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["cpu_start"] = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_end"] = time.process_time()
                tracer._stack.pop()
            bound = signature.bind(*args, **kwargs).arguments
            for key, count in counters.items():
                try:
                    span["counts"][key] = count(bound, result)
                except (KeyError, AttributeError, TypeError, OSError):
                    span["counts"][key] = None  # reported as missing
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every layer function by its wrapper; restore them on exit."""
        restore = []
        found = set()
        try:
            for module_name, attr, name, counters in LAYERS:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    continue
                found.add(name)
                restore.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(name, fn, counters))
            self.missing = {name for _, _, name, _ in LAYERS} - found
            yield self
        finally:
            for owner, leaf, fn in reversed(restore):
                setattr(owner, leaf, fn)

    @contextlib.contextmanager
    def call(self, call_id: int):
        """Root span around one CLI call; layer spans are recorded only inside it."""
        span = {"name": ROOT_SPAN, "call": call_id, "id": len(self.spans), "parent": None,
                "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        self._call_id = call_id
        span["cpu_start"] = time.process_time()
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["cpu_end"] = time.process_time()
            self._call_id = None
            self._stack.pop()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def per_call_layers(spans) -> dict:
    """{call id: {span name: totals}} with self seconds, CPU/wall and counts.

    A span's self time is its duration minus the part of it that its child
    spans cover, so the self times of one call sum to its root span.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    calls = {}
    for s in spans:
        wall = s["end"] - s["start"]
        self_s = wall - _covered(children.get(s["id"]) or [])
        agg = calls.setdefault(s["call"], {}).setdefault(
            s["name"], {"calls": 0, "s": 0.0, "wall_s": 0.0, "cpu_s": 0.0})
        agg["calls"] += 1
        agg["s"] += self_s
        agg["wall_s"] += wall
        agg["cpu_s"] += s["cpu_end"] - s["cpu_start"]
        for key, value in s["counts"].items():
            known = agg.get(key, 0)
            agg[key] = None if value is None or known is None else known + value
    return calls
