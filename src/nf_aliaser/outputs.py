"""Deterministic artifact writers: CSV, PGM, and the run manifest.

Every writer produces byte-identical output for identical inputs: floats are
formatted with 17 significant digits, no timestamps are recorded, and manifest
keys are sorted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .floatfmt import format_pairs
from .imaging import ComplexField, magnitude_db


def fmt(x) -> str:
    return format(float(x), ".17g")


# Rows formatted per write by _write_pairs_csv. No whole-file text is held
# (which grew the peak RSS of repeated runs), and 2048 rows keep the
# formatter's temporaries near 0.55 MB, the peak of the per-value %-format of
# 4096 rows it replaced; 1024 and 4096 rows were no faster.
PAIR_ROWS = 2048


def _write_pairs_csv(path: Path, head: list, pairs: np.ndarray) -> None:
    """Write the head lines, then one "a,b" row per row of the (n, 2) float
    array pairs, each number formatted as fmt does."""
    with open(path, "wb") as f:
        f.write(("\n".join(head) + "\n").encode("ascii"))
        for start in range(0, len(pairs), PAIR_ROWS):
            f.write(format_pairs(pairs[start:start + PAIR_ROWS]))


def _grid_comments(grid, wavelength: float) -> list:
    return [
        f"# wavelength: {fmt(wavelength)}",
        f"# grid_min: {','.join(fmt(v) for v in grid.corner_min)}",
        f"# grid_max: {','.join(fmt(v) for v in grid.corner_max)}",
        f"# resolution: {','.join(str(r) for r in grid.resolution)}",
        "# order: row-major (first grid axis slowest)",
    ]


def write_field_csv(path: Path, name: str, field: ComplexField, wavelength: float) -> None:
    lines = [f"# nf-aliaser {name}"]
    lines += _grid_comments(field.grid, wavelength)
    lines.append(f"# excluded_cells: {int(field.excluded.sum())}")
    lines.append("# columns: re,im")
    flat = np.ascontiguousarray(field.values, dtype=np.complex128).ravel()
    _write_pairs_csv(path, lines, flat.view(np.float64).reshape(-1, 2))


def write_mask_csv(path: Path, name: str, mask: np.ndarray, grid, wavelength: float) -> None:
    lines = [f"# nf-aliaser {name}"]
    lines += _grid_comments(grid, wavelength)
    lines.append("# columns: aliasing_free")
    rows = np.full((mask.size, 2), ord("\n"), dtype=np.uint8)
    rows[:, 0] = np.where(mask.ravel(order="C"), ord("1"), ord("0"))
    path.write_text("\n".join(lines) + "\n" + rows.tobytes().decode("ascii"),
                    encoding="ascii")


def write_spectrum_csv(path: Path, name: str, support, wavelength: float) -> None:
    mag = support.magnitude
    peak = mag.max()
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    lines = [
        f"# nf-aliaser {name}",
        f"# wavelength: {fmt(wavelength)}",
        f"# axis_index: {support.axis}",
        f"# support_max: {fmt(support.support_max)}",
        "# columns: wavenumber,magnitude_db",
    ]
    _write_pairs_csv(path, lines, np.column_stack((support.frequencies, db)))


def write_sweep_csv(path: Path, rows: list) -> None:
    lines = [
        "# nf-aliaser sweep_summary",
        "# columns: value,mask_cells,peak_cell,peak_position_lambda,peak_to_artifact_db",
    ]
    for row in rows:
        cell = ";".join(str(i) for i in row["peak_cell"])
        pos = ";".join(fmt(p) for p in row["peak_position_lambda"])
        lines.append(f"{row['value']},{row['mask_cells']},{cell},{pos},"
                     f"{fmt(row['peak_to_artifact_db'])}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _pgm_text(pixels: np.ndarray, comment: str) -> str:
    # pixels indexed [x, y]; rendered with y increasing upward.
    width, height = pixels.shape
    top_down = pixels[:, ::-1].T.astype(np.int64).tolist()
    rows = [" ".join(map(str, row)) for row in top_down]
    return f"P2\n# {comment}\n{width} {height}\n255\n" + "\n".join(rows) + "\n"


def write_field_pgm(path: Path, name: str, field: ComplexField, floor_db: float) -> None:
    """8-bit peak-normalized dB rendering; only 2D grids are rasterized."""
    if field.values.ndim != 2:
        raise ValueError("PGM rendering requires a 2D grid")
    db = magnitude_db(field, floor_db)
    scale = 255.0 / (-floor_db)
    pixels = np.rint((db - floor_db) * scale).astype(int)
    path.write_text(_pgm_text(pixels, f"nf-aliaser {name}"), encoding="ascii")


def write_mask_pgm(path: Path, name: str, mask: np.ndarray) -> None:
    if mask.ndim != 2:
        raise ValueError("PGM rendering requires a 2D grid")
    pixels = np.where(mask, 255, 0)
    path.write_text(_pgm_text(pixels, f"nf-aliaser {name}"), encoding="ascii")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(path: Path, tool_version: str, resolved_config: dict,
                   product_paths: dict) -> dict:
    products = []
    for name in sorted(product_paths):
        p = Path(product_paths[name])
        products.append({
            "name": name,
            "file": p.name,
            "sha256": sha256_of(p),
            "bytes": p.stat().st_size,
        })
    manifest = {
        "tool": "nf-aliaser",
        "version": tool_version,
        "config": resolved_config,
        "products": products,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return manifest
