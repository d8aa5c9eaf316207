"""Run orchestration: compute requested products and write deterministic artifacts."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__
from .chirp import AliasingMask, aliasing_mask
from .config import RunConfig, SWEEP_PARAMS, _as_int, _sweep_param
from .errors import ConfigError
from .geometry import ArrayGeometry, Scene
from .imaging import bistatic_image, default_threads, partial_image
from .outputs import (
    write_field_csv,
    write_field_pgm,
    write_manifest,
    write_mask_csv,
    write_mask_pgm,
    write_spectrum_csv,
    write_sweep_csv,
)
from .spectral import sample_chirp_along_axis, spectral_support


def _perp_axis(axis: np.ndarray, used: list) -> np.ndarray:
    """Deterministic unit vector orthogonal to all vectors in `used`."""
    d = axis.shape[0]
    if d == 2:
        return np.array([-axis[1], axis[0]])
    for candidate in np.eye(d):
        v = candidate.copy()
        for u in used:
            v -= (v @ u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm
    raise ConfigError("no orthogonal direction available for dimensionality sweep")


def _recentered(array: ArrayGeometry, axes: np.ndarray, counts: tuple,
                spacings: np.ndarray) -> ArrayGeometry:
    center = array.center
    offs = [(c - 1) / 2.0 * s for c, s in zip(counts, spacings)]
    origin = center - np.asarray(offs) @ axes
    return ArrayGeometry(origin=origin, axes=axes, counts=counts,
                         spacings=spacings, role_tag=array.role_tag)


def _sweep_variant(config: RunConfig, param: str, value):
    """Derived (tx, rx, scene, label) for one sweep value.

    Spacing and length sweeps leave lattice axes with a single element as
    they are. A dimensionality sweep keeps the leading axes an array already
    has; only added axes copy axis 0's count and spacing.
    """
    tx, rx, scene = config.tx, config.rx, config.scene
    wl = config.wave.wavelength

    if param == "spacing":
        n = _as_int(value, "sweep spacing value")
        if n < 2:
            raise ConfigError(f"sweep spacing value must be >= 2 antennas, got {value!r}")

        def rebuild(a: ArrayGeometry) -> ArrayGeometry:
            counts, spacings = list(a.counts), list(a.spacings)
            for j in a.sampled_axes():
                counts[j], spacings[j] = n, a.counts[j] * a.spacings[j] / n
            return _recentered(a, a.axes, tuple(counts), np.asarray(spacings))

        return rebuild(tx), rebuild(rx), scene, f"N{n}"

    if param == "length":
        if isinstance(value, dict):
            try:
                length = float(value["length_lambda"]) * wl
                count = value["count"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"sweep length value needs length_lambda and count, got {value!r}") from exc
            n = _as_int(count, "sweep length count")
        else:
            length = float(value) * wl
            n = None

        def rebuild(a: ArrayGeometry) -> ArrayGeometry:
            counts, spacings = list(a.counts), list(a.spacings)
            for j in a.sampled_axes():
                counts[j] = n if n is not None else max(int(round(length / spacings[j])), 2)
                spacings[j] = length / counts[j]
            return _recentered(a, a.axes, tuple(counts), np.asarray(spacings))

        label = f"L{length / wl:g}_N{n}" if n is not None else f"L{length / wl:g}"
        return rebuild(tx), rebuild(rx), scene, label

    if param == "range":
        pos = np.asarray(value, dtype=float)
        if pos.ndim != 1 or pos.shape[0] != scene.scatterer.shape[0]:
            raise ConfigError(f"sweep range value must be a scatterer position, got {value!r}")
        new_scene = Scene(scatterer=pos * wl, reflectivity=scene.reflectivity)
        label = "pos" + "_".join(f"{v:g}" for v in pos)
        return tx, rx, new_scene, label

    if param == "dimensionality":
        v = _as_int(value, "sweep dimensionality value")

        def rebuild(a: ArrayGeometry) -> ArrayGeometry:
            if v < 1 or v > min(3, a.ndim):
                raise ConfigError(
                    f"dimensionality {v} not representable in {a.ndim}D space")
            axes, counts, spacings = list(a.axes[:v]), list(a.counts[:v]), list(a.spacings[:v])
            while len(axes) < v:
                axes.append(_perp_axis(axes[0], axes))
                counts.append(a.counts[0])
                spacings.append(a.spacings[0])
            return _recentered(a, np.vstack(axes), tuple(counts), np.asarray(spacings))

        return rebuild(tx), rebuild(rx), scene, f"{v}d"

    raise ConfigError(f"unknown sweep parameter {param!r}; expected one of {SWEEP_PARAMS}")


def _compute(config: RunConfig, tx: ArrayGeometry, rx: ArrayGeometry, scene: Scene,
             outputs, threads: int) -> dict:
    """The fields and the aliasing mask named in `outputs`, by product name.

    The partial images are also computed when only the image needs them, but
    are returned only when they are requested.
    """
    eps = config.thresholds.epsilon(config.wave)
    result = {}
    if "mask" in outputs:
        result["mask"] = aliasing_mask(tx, rx, scene, config.wave, config.grid, epsilon=eps,
                                       threads=threads)
    for name, array in (("partial_tx", tx), ("partial_rx", rx)):
        if name in outputs or "image" in outputs:
            result[name] = partial_image(array, scene, config.wave, config.grid, epsilon=eps,
                                         threads=threads)
    if "image" in outputs:
        result["image"] = bistatic_image(result["partial_tx"], result["partial_rx"],
                                         scene.reflectivity)
    return {name: product for name, product in result.items() if name in outputs}


def _peak_summary(config: RunConfig, computed: dict) -> dict:
    """Mask size, image peak, and peak-to-artifact ratio outside the mask."""
    image, mask = computed["image"], computed["mask"]
    mag = np.abs(image.values)
    usable = ~image.excluded
    search = np.where(usable, mag, -1.0)
    peak_flat = int(np.argmax(search))
    peak_cell = np.unravel_index(peak_flat, config.grid.resolution)
    centers = [config.grid.axis_centers(j)[i] for j, i in enumerate(peak_cell)]
    outside = usable & ~mask.combined
    peak_val = mag[peak_cell]
    if outside.any() and mag[outside].max() > 0 and peak_val > 0:
        ratio_db = 20.0 * np.log10(peak_val / mag[outside].max())
    else:
        ratio_db = np.inf
    return {
        "mask_cells": int(mask.combined.sum()),
        "peak_cell": tuple(int(i) for i in peak_cell),
        "peak_position_lambda": tuple(c / config.wave.wavelength for c in centers),
        "peak_to_artifact_db": float(ratio_db),
    }


def _emit(files: dict, out: Path, name: str, product, config: RunConfig) -> None:
    """Write name.csv, plus name.pgm on a 2D grid, and record both in files."""
    is_mask = isinstance(product, AliasingMask)
    csv_path = out / f"{name}.csv"
    if is_mask:
        write_mask_csv(csv_path, name, product.combined, config.grid, config.wave.wavelength)
    else:
        write_field_csv(csv_path, name, product, config.wave.wavelength)
    files[csv_path.name] = csv_path
    if config.grid.ndim == 2:
        pgm_path = out / f"{name}.pgm"
        if is_mask:
            write_mask_pgm(pgm_path, name, product.combined)
        else:
            write_field_pgm(pgm_path, name, product, config.thresholds.floor_db)
        files[pgm_path.name] = pgm_path


def _sweep_products(config: RunConfig, param, values, out_dir, threads: int):
    param = param or config.sweep_param
    values = values if values is not None else config.sweep_values
    if param is None or values is None:
        raise ConfigError("sweep requires a parameter and a list of values")
    param = _sweep_param(param, "sweep.param")

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    rows = []
    files = {}
    for value in values:
        tx, rx, scene, label = _sweep_variant(config, param, value)
        computed = _compute(config, tx, rx, scene, ("image", "mask"), threads)
        rows.append({"value": label, **_peak_summary(config, computed)})
        if out is not None:
            _emit(files, out, f"mask_{label}", computed["mask"], config)
    if out is not None:
        summary = out / "sweep_summary.csv"
        write_sweep_csv(summary, rows)
        files["sweep_summary.csv"] = summary
    return rows, files


def sweep(config: RunConfig, param: str | None = None, values=None,
          out_dir=None, threads: int | None = None) -> list:
    """Evaluate mask/image statistics across a parameter sweep.

    Returns one summary row per value; when out_dir is given, also writes the
    per-value mask products and the summary CSV. threads defaults to
    default_threads().
    """
    threads = default_threads() if threads is None else threads
    rows, _ = _sweep_products(config, param, values, out_dir, threads)
    return rows


def run(config: RunConfig, out_dir, threads: int | None = None) -> dict:
    """Compute every requested product, write artifacts, and return the manifest.

    threads defaults to default_threads(); the products do not depend on it.
    """
    threads = default_threads() if threads is None else threads
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = config.thresholds.epsilon(config.wave)
    wl = config.wave.wavelength
    products = {}

    computed = _compute(config, config.tx, config.rx, config.scene, config.outputs, threads)
    for name, product in computed.items():
        _emit(products, out, name, product, config)

    if "spectrum" in config.outputs:
        # Sampled at the grid center as a representative off-match point.
        point = (config.grid.corner_min + config.grid.corner_max) / 2.0
        oversample = config.thresholds.oversample
        for label, array in (("tx", config.tx), ("rx", config.rx)):
            for axis in array.sampled_axes():
                samples = sample_chirp_along_axis(array, point, config.scene.scatterer,
                                                  config.wave, axis, oversample,
                                                  epsilon=eps)
                support = spectral_support(samples, array.spacings[axis] / oversample,
                                           config.thresholds.support_db,
                                           window="hann", axis_index=axis)
                name = f"spectrum_{label}_ax{axis}"
                path = out / f"{name}.csv"
                write_spectrum_csv(path, name, support, wl)
                products[f"{name}.csv"] = path

    if "sweep" in config.outputs:
        _, sweep_files = _sweep_products(config, None, None, out, threads)
        products.update(sweep_files)

    manifest_path = out / "manifest.json"
    return write_manifest(manifest_path, __version__, config.resolved, products)
