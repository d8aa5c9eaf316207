#!/usr/bin/env python3
"""Time the two per-cell kernels in process on 1 and on 2 threads.

Builds a benchmark workload's seed geometry from perfbench/workloads.py (for
a sweep workload, one geometry per sweep value), then times the transmit
array's `partial_image` and the `aliasing_mask` of both arrays at --threads 1
and 2, alternating which thread count runs first from round to round after
one untimed warm-up call of each. Prints one JSON object: per geometry,
kernel and thread count the median and quartiles of the rounds in seconds,
the median in ns per element-cell (seconds x 1e9 / (elements x cells), the
elements being the transmit array's for the partial image and both arrays'
for the mask), and whether the two thread counts gave identical values,
excluded flags and mask layers.

    python scripts/kernel_threads.py --workload planar_sweep --rounds 7
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from nf_aliaser import aliasing_mask, partial_image, resolve_config
from nf_aliaser.imaging import default_threads
from nf_aliaser.runner import _sweep_variant

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

THREADS = (1, 2)


def geometries(workload: str, seed: int, resolution: int | None) -> dict:
    """(tx, rx, scene, wave, grid) by label: the workload's own, or one per sweep value."""
    data = make_config(workload, seed)
    if resolution is not None:
        data["grid"]["resolution"] = [resolution] * len(data["grid"]["resolution"])
    config = resolve_config(data)
    if config.sweep_param is None:
        return {"run": (config.tx, config.rx, config.scene, config.wave, config.grid)}
    result = {}
    for value in config.sweep_values:
        tx, rx, scene, label = _sweep_variant(config, config.sweep_param, value)
        result[label] = (tx, rx, scene, config.wave, config.grid)
    return result


# name -> (call(tx, rx, scene, wave, grid, threads), elements per cell(tx, rx, ...)).
KERNELS = {
    "partial_image": (lambda tx, rx, scene, wave, grid, threads:
                      partial_image(tx, scene, wave, grid, threads=threads),
                      lambda tx, rx, *_: tx.num_elements),
    "aliasing_mask": (lambda tx, rx, scene, wave, grid, threads:
                      aliasing_mask(tx, rx, scene, wave, grid, threads=threads),
                      lambda tx, rx, *_: tx.num_elements + rx.num_elements),
}


def _same(a, b) -> bool:
    if not np.array_equal(a.excluded, b.excluded):
        return False
    if hasattr(a, "values"):
        return a.values.tobytes() == b.values.tobytes()
    return all(x.axis_index == y.axis_index and np.array_equal(x.free, y.free)
               for x, y in zip(a.layers, b.layers, strict=True))


def _quartiles(times: list, element_cells: int) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median": round(float(median), 4),
            "ns_per_element_cell": round(float(median) * 1e9 / element_cells, 3),
            "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def time_kernel(call, rounds: int, element_cells: int) -> dict:
    """Medians and quartiles per thread count, the median per element-cell,
    and whether the products match."""
    first = {threads: call(threads) for threads in THREADS}  # warm-up
    times = {threads: [] for threads in THREADS}
    for r in range(rounds):
        for threads in (THREADS if r % 2 == 0 else THREADS[::-1]):
            start = time.perf_counter()
            call(threads)
            times[threads].append(time.perf_counter() - start)
    result = {f"threads_{threads}": _quartiles(times[threads], element_cells)
              for threads in THREADS}
    result["identical"] = _same(*first.values())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="planar_sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--resolution", type=int,
                        help="cells per grid axis in place of the workload's")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    if args.resolution is not None and args.resolution < 2:
        # An evaluation grid needs at least 2 cells per axis.
        parser.error(f"--resolution must be at least 2, got {args.resolution}")

    report = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "cpus": default_threads(), "python": platform.python_version(),
              "numpy": np.__version__, "geometries": {}}
    for label, geometry in geometries(args.workload, args.seed, args.resolution).items():
        grid = geometry[-1]
        report["geometries"][label] = {
            "cells": grid.num_cells,
            "elements": {"tx": geometry[0].num_elements, "rx": geometry[1].num_elements},
            **{name: time_kernel(lambda threads: kernel(*geometry, threads), args.rounds,
                                 elements(*geometry) * grid.num_cells)
               for name, (kernel, elements) in KERNELS.items()},
        }
    print(json.dumps(report, indent=1))
    identical = all(k["identical"] for g in report["geometries"].values()
                    for k in g.values() if isinstance(k, dict) and "identical" in k)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
