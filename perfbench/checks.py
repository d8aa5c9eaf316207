"""Correctness checks on the products of one CLI call, run outside the timed region.

Run as a script, it answers one JSON job ``[config, out_dir, seed, call]`` per
line of standard input with one JSON line ``[hashes, problems]``.

Tolerances are stated against the data, so a faster kernel that changes the
last bits of a product still passes while a wrong one fails:

- every manifest entry's sha256 and size match its file, and the products are
  identical across the calls of one run;
- at a seeded sample of non-excluded cells, the partial images match
  ``imaging.partial_image_at`` within 1e-9 of the field peak, and the image
  equals reflectivity x tx x rx within 1e-9 of its peak;
- at a seeded sample of free and of aliased cells, mask bits match
  ``chirp.aliasing_free`` for both arrays; cells whose maximum spatial
  frequency lies within 1e-9 relative of 2 pi / d are skipped.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from nf_aliaser import Scene, WaveParams, build_uniform_array
from nf_aliaser.chirp import aliasing_free, max_spatial_frequency
from nf_aliaser.imaging import partial_image_at

# The program's default exclusion radius, in wavelengths; the configs set none.
EPSILON_LAMBDA = 0.1
FIELD_TOL = 1e-9
THRESHOLD_TOL = 1e-9
SAMPLE = 48


def product_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _array(section: dict, role: str):
    return build_uniform_array(section["origin"], section["axes"], section["counts"],
                               section["spacings_lambda"], role)


def _planar(section: dict, role: str):
    """The dimensionality-2 variant of a linear array: the same line repeated
    along the in-plane perpendicular, recentered on the array's center."""
    (ux, uy), n, s = section["axes"][0], section["counts"][0], section["spacings_lambda"][0]
    half = (n - 1) / 2.0 * s
    center = [section["origin"][0] + half * ux, section["origin"][1] + half * uy]
    perp = [-uy, ux]
    origin = [center[i] - half * (ux, uy)[i] - half * perp[i] for i in range(2)]
    return build_uniform_array(origin, [[ux, uy], perp], [n, n], [s, s], role)


def _cell_centers(grid: dict) -> np.ndarray:
    lo, hi, res = grid["min"], grid["max"], grid["resolution"]
    axes = [lo[j] + (np.arange(res[j]) + 0.5) * (hi[j] - lo[j]) / res[j]
            for j in range(len(res))]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _excluded(array, cells: np.ndarray) -> np.ndarray:
    """Cells within the exclusion radius of an element.

    The lattice axes are orthonormal, so the nearest element is found by
    rounding each axis coordinate to the nearest index inside the lattice.
    """
    rel = cells - array.origin
    coords = rel @ array.axes.T
    steps = np.clip(np.rint(coords / array.spacings), 0, np.asarray(array.counts) - 1)
    diff = rel - (steps * array.spacings) @ array.axes
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= EPSILON_LAMBDA


def _read_field(path: Path) -> np.ndarray:
    re_im = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return re_im[:, 0] + 1j * re_im[:, 1]


def _sample(rng, candidates: np.ndarray, k: int = SAMPLE) -> np.ndarray:
    idx = np.flatnonzero(candidates)
    return rng.choice(idx, size=min(k, len(idx)), replace=False)


def _check_fields(out_dir, cells, tx, rx, scene, wave, rng, problems):
    fields = {}
    for name, array in (("partial_tx", tx), ("partial_rx", rx)):
        values = _read_field(out_dir / f"{name}.csv")
        excluded = _excluded(array, cells)
        fields[name] = values
        if values.shape != (len(cells),):
            problems.append(f"{name}.csv has {values.shape} values for {len(cells)} cells")
            return
        if np.any(values[excluded] != 0):
            problems.append(f"{name}.csv: excluded cells are not 0")
        idx = _sample(rng, ~excluded)
        expected = partial_image_at(array, cells[idx], scene, wave, EPSILON_LAMBDA)
        peak = np.abs(values).max()
        worst = np.abs(values[idx] - expected).max() / peak
        if not worst <= FIELD_TOL:
            problems.append(f"{name}.csv differs from partial_image_at by {worst:.3g} of peak")
    image = _read_field(out_dir / "image.csv")
    expected = scene.reflectivity * fields["partial_tx"] * fields["partial_rx"]
    worst = np.abs(image - expected).max() / np.abs(image).max()
    if not worst <= FIELD_TOL:
        problems.append(f"image.csv differs from reflectivity*tx*rx by {worst:.3g} of peak")


def _near_threshold(array, cell, scene, wave) -> bool:
    for j in array.sampled_axes():
        bound = 2.0 * np.pi / array.spacings[j]
        kmax = max_spatial_frequency(array, cell, scene.scatterer, wave, j, EPSILON_LAMBDA)
        if abs(kmax - bound) <= THRESHOLD_TOL * bound:
            return True
    return False


def _check_mask(path, cells, tx, rx, scene, wave, rng, problems):
    bits = np.loadtxt(path, comments="#", dtype=np.int64, ndmin=1)
    if bits.shape != (len(cells),) or not np.isin(bits, (0, 1)).all():
        problems.append(f"{path.name}: expected {len(cells)} bits of 0/1")
        return
    excluded = _excluded(tx, cells) | _excluded(rx, cells)
    if np.any(bits[excluded]):
        problems.append(f"{path.name}: excluded cells are marked free")
    sample = np.concatenate([_sample(rng, ~excluded & (bits == 1)),
                             _sample(rng, ~excluded & (bits == 0))])
    for i in sample:
        cell = cells[i]
        if _near_threshold(tx, cell, scene, wave) or _near_threshold(rx, cell, scene, wave):
            continue
        free = (aliasing_free(tx, cell, scene.scatterer, wave, EPSILON_LAMBDA).ok
                and aliasing_free(rx, cell, scene.scatterer, wave, EPSILON_LAMBDA).ok)
        if free != bool(bits[i]):
            problems.append(f"{path.name}: cell {int(i)} is {bits[i]}, "
                            f"aliasing_free says {int(free)}")
            return


def check_products(config: dict, out_dir: str, seed: int, call: int) -> tuple:
    """(sha256 per product file, list of problems) for one call's output directory.

    The sampled cells are drawn from (seed, call), so each call of a run is
    checked at other cells.
    """
    out_dir = Path(out_dir)
    rng = np.random.default_rng([seed, call])
    problems = []
    hashes = product_hashes(out_dir)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        listed = {p["file"] for p in manifest["products"]}
        if listed != set(hashes) - {"manifest.json"}:
            problems.append(f"manifest lists {sorted(listed)}, directory has {sorted(hashes)}")
        for p in manifest["products"]:
            path = out_dir / p["file"]
            if (hashes.get(p["file"]) != p["sha256"]
                    or path.stat().st_size != p["bytes"]):
                problems.append(f"manifest entry {p['file']} does not match its file")
    if not hashes:
        problems.append("no products written")
        return hashes, problems

    wave = WaveParams(config["wave"]["lambda"])
    scene = Scene(config["scene"]["scatterer"],
                  complex(config["scene"]["reflectivity_re"], config["scene"]["reflectivity_im"]))
    cells = _cell_centers(config["grid"])
    tx, rx = _array(config["tx"], "transmit"), _array(config["rx"], "receive")
    if "partial_tx" in config["outputs"]:
        _check_fields(out_dir, cells, tx, rx, scene, wave, rng, problems)
    if "mask" in config["outputs"]:
        _check_mask(out_dir / "mask.csv", cells, tx, rx, scene, wave, rng, problems)
    if "sweep" in config:
        variants = {1: (tx, rx), 2: (_planar(config["tx"], "transmit"),
                                     _planar(config["rx"], "receive"))}
        for v in config["sweep"]["values"]:
            _check_mask(out_dir / f"mask_{v}d.csv", cells, *variants[v], scene, wave, rng,
                        problems)
    return hashes, problems


def main() -> None:
    for line in sys.stdin:
        try:
            answer = check_products(*json.loads(line))
        except Exception:
            answer = ({}, [traceback.format_exc(limit=3)])
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
