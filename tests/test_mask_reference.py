"""A mask reference that shares no code with the mask kernels.

For each sampled lattice axis j of an array, a cell is aliasing-free when
the largest |local_wavenumber(e, c, s) . u_j| over the elements e is at most
2 pi / d_j. The reference evaluates that predicate through the public
local_wavenumber alone (broadcast over elements, a chunk of cells at a time),
and the test compares it with every layer of aliasing_mask away from a
relative tie band of 1e-9 around the bound. Exclusion is checked the same
way, from exhaustive element distances.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from nf_aliaser import aliasing_mask, local_wavenumber, resolve_config
from nf_aliaser.presets import PRESETS, preset_config
from nf_aliaser.runner import _sweep_variant

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))["WORKLOADS"]

TIE = 1e-9
CHUNK = 256  # cells per local_wavenumber call
BUDGET = 3e6  # element-cells per row: every stride-th cell in row-major order is checked


def _linear_rows():
    """(label, config, tx, rx, scene) of every preset row whose arrays are
    linear, and of the long_array_mask geometry at seed 0."""
    for name in PRESETS:
        config = resolve_config(preset_config(name))
        if config.sweep_param is None:
            rows = [(config.tx, config.rx, config.scene, "run")]
        else:
            rows = [_sweep_variant(config, config.sweep_param, value)
                    for value in config.sweep_values]
        for tx, rx, scene, label in rows:
            if tx.n_axes == rx.n_axes == 1 and config.grid.ndim == 2:
                yield f"{name}-{label}", config, tx, rx, scene
    config = resolve_config(WORKLOADS["long_array_mask"][0](0))
    yield "long_array_mask-0", config, config.tx, config.rx, config.scene


def _reference_kmax(array, cells, scene, wave, eps) -> dict:
    """Sampled axis -> max over elements of |local_wavenumber . u_j| per cell."""
    elements = array.element_positions()[:, None, :]
    kmax = {j: np.empty(len(cells)) for j in array.sampled_axes()}
    for lo in range(0, len(cells), CHUNK):
        kvec = local_wavenumber(elements, cells[None, lo:lo + CHUNK], scene.scatterer, wave,
                                epsilon=eps)
        for j, out in kmax.items():
            out[lo:lo + CHUNK] = np.max(np.abs(kvec @ array.axes[j]), axis=0)
    return kmax


@pytest.mark.parametrize("row", list(_linear_rows()), ids=lambda row: row[0])
def test_layers_match_the_public_reference(row):
    _, config, tx, rx, scene = row
    wave, grid = config.wave, config.grid
    eps = config.thresholds.epsilon(wave)
    mask = aliasing_mask(tx, rx, scene, wave, grid, epsilon=eps)
    stride = int(np.ceil((tx.num_elements + rx.num_elements) * grid.num_cells / BUDGET))
    picked = np.arange(0, grid.num_cells, stride)
    cells = grid.cell_centers()[picked]

    nearest = np.min([np.linalg.norm(cells[:, None] - a.element_positions(), axis=-1).min(axis=1)
                      for a in (tx, rx)], axis=0)
    tie = np.abs(nearest - eps) <= TIE * eps
    np.testing.assert_array_equal(mask.excluded.ravel()[picked][~tie], (nearest <= eps)[~tie])
    usable = nearest > eps * (1.0 + TIE)
    cells, picked = cells[usable], picked[usable]

    kmax = {label: _reference_kmax(array, cells, scene, wave, eps)
            for label, array in (("tx", tx), ("rx", rx))}
    assert [(layer.array_label, layer.axis_index) for layer in mask.layers] == [
        (label, j) for label in ("tx", "rx") for j in kmax[label]]
    compared = 0
    for layer in mask.layers:
        array = tx if layer.array_label == "tx" else rx
        bound = 2.0 * np.pi / array.spacings[layer.axis_index]
        k_ref = kmax[layer.array_label][layer.axis_index]
        away = np.abs(k_ref - bound) > TIE * bound
        np.testing.assert_array_equal(layer.free.ravel()[picked][away], (k_ref <= bound)[away])
        compared += int(away.sum())
        assert 0 < np.sum(k_ref <= bound) < len(k_ref)
    assert compared >= 0.99 * len(mask.layers) * len(cells) > 0
