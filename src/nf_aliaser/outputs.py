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
# Cells per write of the mask CSV writer and the PGM encoder: no whole body is held.
BAND_CELLS = 1 << 15
# The mask CSV row of a cell, "0\n" or "1\n", indexed by its verdict.
_MASK_ROWS = np.frombuffer(b"0\n1\n", dtype=np.uint16)


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
    flat = np.asarray(mask, dtype=bool).ravel().view(np.uint8)
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for start in range(0, flat.size, BAND_CELLS):
            f.write(_MASK_ROWS[flat[start:start + BAND_CELLS]])


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


# One PGM cell per gray level: its ASCII digits, NUL-padded to three bytes,
# then the separator. Read as uint32, so a raster is encoded by one gather.
_PGM_CELLS = np.array([list(str(v).encode("ascii").ljust(3, b"\0")) + [ord(" ")]
                       for v in range(256)], dtype=np.uint8).view(np.uint32).ravel()


def _write_pgm(path: Path, pixels: np.ndarray, comment: str) -> None:
    """Write the P2 file of the whole-number gray levels pixels (of any
    numeric dtype), indexed [x, y] and rendered with y increasing upward, a
    band of raster rows at a time. Raises ValueError, before the file is
    opened, for a level outside 0..255, which maxval 255 cannot hold."""
    width, height = pixels.shape
    if not (pixels.min() >= 0 and pixels.max() <= 255):
        raise ValueError(f"PGM levels must lie in 0..255, got {pixels.min()}..{pixels.max()}")
    top_down = pixels[:, ::-1].T
    rows = max(1, BAND_CELLS // width)
    with open(path, "wb") as f:
        f.write(f"P2\n# {comment}\n{width} {height}\n255\n".encode("ascii"))
        for start in range(0, height, rows):
            # The one cast, fused with the band's top-down copy.
            band = np.ascontiguousarray(top_down[start:start + rows], dtype=np.uint8)
            cells = _PGM_CELLS[band].view(np.uint8).reshape(len(band), width, 4)
            cells[:, -1, 3] = ord("\n")
            f.write(cells[cells != 0])


def write_field_pgm(path: Path, name: str, field: ComplexField, floor_db: float) -> None:
    """8-bit peak-normalized dB rendering; only 2D grids are rasterized."""
    if field.values.ndim != 2:
        raise ValueError("PGM rendering requires a 2D grid")
    db = magnitude_db(field, floor_db)
    # In place, the same operations as np.rint((db - floor_db) * (255 / -floor_db)).
    db -= floor_db
    db *= 255.0 / (-floor_db)
    _write_pgm(path, np.rint(db, out=db), f"nf-aliaser {name}")


def write_mask_pgm(path: Path, name: str, mask: np.ndarray) -> None:
    if mask.ndim != 2:
        raise ValueError("PGM rendering requires a 2D grid")
    _write_pgm(path, np.where(mask, np.uint8(255), np.uint8(0)), f"nf-aliaser {name}")


# Bytes per read of sha256_of: the buffer hashlib.file_digest uses (Python
# 3.11+), so no product file is ever held whole to be hashed.
HASH_CHUNK = 256 * 1024


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    buf = bytearray(HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()


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
