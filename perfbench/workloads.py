"""Seeded workload definitions: the config.json each workload loads and its CLI call.

Standard library only, so the parent process can generate inputs without
importing the program. For every seed the work size is fixed; only the
scatterer position moves. Seed 0 reproduces the geometry each workload is
named after.
"""

from __future__ import annotations

import json
import random


def _centered_linear(center, axis, n: int, spacing: float) -> dict:
    """One lattice axis of n elements with the given spacing, centered on `center`."""
    origin = [c - (n - 1) / 2.0 * spacing * a for c, a in zip(center, axis)]
    return {"origin": origin, "axes": [list(axis)], "counts": [n],
            "spacings_lambda": [spacing]}


def _scatterer(seed: int, default, lo: float, hi: float) -> list:
    if seed == 0:
        return list(default)
    rng = random.Random(seed)
    return [rng.uniform(lo, hi), rng.uniform(lo, hi)]


def fig1_run(seed: int) -> dict:
    # The fig1 preset: 64 elements over 500 wavelengths on each axis.
    return {
        "wave": {"lambda": 1.0},
        "tx": _centered_linear([500.0, 0.0], [1.0, 0.0], 64, 500.0 / 64),
        "rx": _centered_linear([0.0, 500.0], [0.0, 1.0], 64, 500.0 / 64),
        "scene": {"scatterer": _scatterer(seed, (1000.0, 1000.0), 800.0, 1200.0),
                  "reflectivity_re": 1.0, "reflectivity_im": 0.0},
        "grid": {"min": [150.0, 150.0], "max": [1850.0, 1850.0],
                 "resolution": [255, 255]},
        "outputs": ["partial_tx", "partial_rx", "image", "mask"],
    }


def planar_sweep(seed: int) -> dict:
    # The fig2c geometry with 32 instead of 64 elements per lattice axis;
    # the dimensionality sweep turns each linear array into a 32 x 32 plane.
    return {
        "wave": {"lambda": 1.0},
        "tx": _centered_linear([500.0, 0.0], [1.0, 0.0], 32, 500.0 / 32),
        "rx": _centered_linear([0.0, 500.0], [0.0, 1.0], 32, 500.0 / 32),
        "scene": {"scatterer": _scatterer(seed, (500.0, 500.0), 350.0, 650.0),
                  "reflectivity_re": 1.0, "reflectivity_im": 0.0},
        "grid": {"min": [0.0, 0.0], "max": [1000.0, 1000.0],
                 "resolution": [255, 255]},
        "outputs": ["sweep"],
        "sweep": {"param": "dimensionality", "values": [1, 2]},
    }


def long_array_mask(seed: int) -> dict:
    # Spacing 2 wavelengths (> lambda/2) keeps the mask non-trivial; at
    # 500 wavelengths over 1024 elements every cell would be free.
    return {
        "wave": {"lambda": 1.0},
        "tx": _centered_linear([1000.0, 0.0], [1.0, 0.0], 1024, 2.0),
        "rx": _centered_linear([0.0, 1000.0], [0.0, 1.0], 1024, 2.0),
        "scene": {"scatterer": _scatterer(seed, (1000.0, 1000.0), 800.0, 1200.0),
                  "reflectivity_re": 1.0, "reflectivity_im": 0.0},
        "grid": {"min": [100.0, 100.0], "max": [1900.0, 1900.0],
                 "resolution": [383, 383]},
        "outputs": ["mask", "spectrum"],
    }


# name -> (config factory, --threads)
WORKLOADS = {
    "fig1_run": (fig1_run, 1),
    "planar_sweep": (planar_sweep, 2),
    "long_array_mask": (long_array_mask, 1),
}


def cli_args(name: str, config: dict, config_path: str, out_dir: str) -> list:
    """Arguments for nf_aliaser.cli.main for one call of the workload."""
    tail = ["--out", out_dir, "--threads", str(WORKLOADS[name][1])]
    if "sweep" in config:
        sweep = config["sweep"]
        return ["sweep", config_path, "--param", sweep["param"],
                "--values", json.dumps(sweep["values"]), *tail]
    return ["run", config_path, *tail]


def _num_elements(array: dict) -> int:
    n = 1
    for c in array["counts"]:
        n *= c
    return n


def nominal_element_cells(config: dict) -> int:
    """Element-cell evaluations one CLI call stands for, computed from the inputs.

    Sum of elements x cells over each partial image and each array's mask.
    An algorithm that does less work still scores against this count.
    """
    cells = 1
    for r in config["grid"]["resolution"]:
        cells *= r
    n_tx = _num_elements(config["tx"])
    n_rx = _num_elements(config["rx"])
    if "sweep" in config:
        # Each dimensionality value v turns an n-element line into n**v elements;
        # every value costs both partial images and both masks.
        if config["sweep"]["param"] != "dimensionality":
            raise ValueError("only dimensionality sweeps have a nominal count")
        return sum(2 * (n_tx ** v + n_rx ** v) * cells for v in config["sweep"]["values"])
    outputs = config["outputs"]
    total = 0
    if "partial_tx" in outputs or "image" in outputs:
        total += n_tx * cells
    if "partial_rx" in outputs or "image" in outputs:
        total += n_rx * cells
    if "mask" in outputs:
        total += (n_tx + n_rx) * cells
    return total


def make_config(name: str, seed: int) -> dict:
    """The workload's config for `seed`; its work size is the same for every seed."""
    factory, _ = WORKLOADS[name]
    config = factory(seed)
    if nominal_element_cells(config) != nominal_element_cells(factory(0)):
        raise RuntimeError(f"{name}: work size depends on the seed")
    return config
