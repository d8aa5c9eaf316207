"""Benchmark of `nf-aliaser run`/`sweep`, end to end and per layer.

    python3 perfbench/run.py --workload fig1_run --seed 0 --seconds 20 --trace 0

Generates the workload's config.json from --seed, then starts fresh child
processes: one that makes an untimed warm-up call followed by timed calls of
``nf_aliaser.cli.main`` for --seconds seconds, one caller at a time, checking
the products after every call outside the timed region; then a few that only
import the package and load the config (set-up time). With --trace 1 every
other call is traced and the per-layer metrics are reported instead of the
end-to-end ones. The last line of output is one JSON object.

Only the standard library is imported here; the program is imported from the
``src`` directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ROOT_SPAN, per_call_layers
from workloads import WORKLOADS, make_config, nominal_element_cells

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # set-up-only processes, besides the workload process itself
TIME_LIMIT_S = 170

UNITS = {"calls": "count", "s": "s", "element_cells": "count",
         "element_cells_per_s": "1/s", "cpu_per_wall": "ratio", "bytes": "B",
         "mb_per_s": "MB/s", "bytes_hashed": "B", "samples": "count"}
KERNEL_FIELDS = ["calls", "s", "element_cells", "element_cells_per_s", "cpu_per_wall"]
# (metric name, span name, field); "s" is the span's self time per CLI call.
PER_LAYER = (
    [(f"imaging.partial_image.{f}", "imaging.partial_image", f) for f in KERNEL_FIELDS]
    + [(f"chirp.aliasing_mask.{f}", "chirp.aliasing_mask", f) for f in KERNEL_FIELDS]
    + [(f"outputs.write_field_csv.{f}", "outputs.write_field_csv", f)
       for f in ("s", "bytes", "mb_per_s")]
    + [("outputs.write_field_pgm.s", "outputs.write_field_pgm", "s"),
       ("outputs.write_mask_csv.s", "outputs.write_mask_csv", "s"),
       ("outputs.write_mask_csv.bytes", "outputs.write_mask_csv", "bytes"),
       ("outputs.write_mask_pgm.s", "outputs.write_mask_pgm", "s"),
       ("outputs.write_spectrum_csv.s", "outputs.write_spectrum_csv", "s"),
       ("outputs.write_sweep_csv.s", "outputs.write_sweep_csv", "s"),
       ("outputs.write_manifest.s", "outputs.write_manifest", "s"),
       ("outputs.write_manifest.bytes_hashed", "outputs.write_manifest", "bytes_hashed"),
       ("imaging.bistatic_image.s", "imaging.bistatic_image", "s"),
       ("spectral.sample_chirp_along_axis.s", "spectral.sample_chirp_along_axis", "s"),
       ("spectral.spectral_support.s", "spectral.spectral_support", "s"),
       ("spectral.samples", "spectral.sample_chirp_along_axis", "samples"),
       ("geometry.cell_centers.calls", "geometry.cell_centers", "calls"),
       ("geometry.cell_centers.bytes", "geometry.cell_centers", "bytes"),
       ("geometry.cell_centers.s", "geometry.cell_centers", "s"),
       ("config.load_config.s", "config.load_config", "s"),
       ("runner.self_s", "runner", "s"),
       ("cli.self_s", ROOT_SPAN, "s")]
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="summed duration of the timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child(args: list, deadline: float) -> dict:
    """Run worker.py with `args` and return the JSON object on its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _layer_value(agg, field: str):
    if agg is None:
        return 0 if field in ("calls", "element_cells", "bytes", "bytes_hashed",
                              "samples") else 0.0
    if field == "element_cells_per_s":
        return agg["element_cells"] / agg["s"] if agg["element_cells"] else 0.0
    if field == "cpu_per_wall":
        return agg["cpu_s"] / agg["wall_s"]
    if field == "mb_per_s":
        return agg["bytes"] / 1e6 / agg["s"] if agg["bytes"] else 0.0
    return agg.get(field)


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics, each the median over the traced calls.

    A layer that is not called counts 0; a layer whose function is no longer
    found is reported with value null and "missing": true.
    """
    per_call = per_call_layers(result["spans"]).values()
    metrics = {}
    for name, span, field in PER_LAYER:
        entry = {"value": None, "unit": UNITS[field]}
        values = [_layer_value(layers.get(span), field) for layers in per_call]
        if span in result["missing"] or any(v is None for v in values):
            entry["missing"] = True
        elif all(isinstance(v, int) for v in values):
            entry["value"] = statistics.median_low(values)
        else:
            entry["value"] = statistics.median(values)
        metrics[name] = entry
    traced = statistics.median(result["traced_walls"])
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced - statistics.median(result["walls"]), "unit": "s"}
    return metrics


def end_to_end_metrics(result: dict, setups: list, nominal: int) -> dict:
    wall = statistics.median(result["walls"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "element_cells_per_s": {"value": nominal / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def _report(args, result, setups, nominal, metrics) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {result['numpy']}")
    print(f"nominal element-cells per call: {nominal}")
    for label, values in (("wall_s", result["walls"]), ("setup_s", setups),
                          ("traced wall_s", result["traced_walls"])):
        if values:
            q1, q2, q3 = _quartiles(values)
            print(f"{label}: median {q2:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n {len(values)}")
    print(f"failed_fraction: {result['failed'] / result['attempted']:.4f} fraction "
          f"({result['failed']} of {result['attempted']} calls)")
    for problem in result["problems"]:
        print(f"failed: {problem}")
    if args.seed == 0:
        for name, digest in sorted(result["products"].items()):
            print(f"product sha256 {name} {digest}")
    for name, m in metrics.items():
        value = "missing" if m.get("missing") else f"{m['value']:.6g}"
        print(f"{name}: {value} {m['unit']}")
    if args.trace:
        wall = metrics["trace.wall_s"]["value"]
        selfs = [(n, m["value"]) for n, m in metrics.items()
                 if (n.endswith(".s") or n.endswith(".self_s")) and not m.get("missing")]
        for name, value in sorted(selfs, key=lambda item: -item[1]):
            print(f"share of traced wall_s: {name} {value / wall:.1%}")
        print(f"median self times sum to {sum(v for _, v in selfs) / wall:.1%} "
              f"of the median traced wall_s")


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "nf_aliaser" / "__init__.py").is_file():
        print(f"no nf_aliaser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench_dir = ROOT / ".bench_build" / "perfbench"
    work = bench_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = make_config(args.workload, args.seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        result = _child(["--config", str(config_path), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", str(work / "out")], deadline)
        setups = [result["setup_s"]] + [
            _child(["--setup-only", "--config", str(config_path)], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nominal = nominal_element_cells(config)
    if args.trace:
        metrics = layer_metrics(result)
        spans_path = bench_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(result["spans"]))
    else:
        metrics = end_to_end_metrics(result, setups, nominal)
    _report(args, result, setups, nominal, metrics)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
