"""Run configuration: JSON schema, validation, and resolved defaults.

All lengths in a configuration are expressed in wavelengths; the absolute
wavelength defaults to 1. Every default that applies is recorded in the
resolved dictionary so the output manifest echoes the complete configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams

OUTPUT_KINDS = ("image", "partial_tx", "partial_rx", "mask", "spectrum", "sweep")
SWEEP_PARAMS = ("spacing", "length", "range", "dimensionality")

DEFAULT_THRESHOLDS = {
    "epsilon_lambda": 0.1,
    "floor_db": -40.0,
    "support_db": -20.0,
    "oracle_ratio": 0.5,
    "oversample": 8,
}


@dataclass(frozen=True)
class Thresholds:
    epsilon_lambda: float = 0.1
    floor_db: float = -40.0
    support_db: float = -20.0
    oracle_ratio: float = 0.5
    oversample: int = 8

    def epsilon(self, wave: WaveParams) -> float:
        return self.epsilon_lambda * wave.wavelength


@dataclass(frozen=True)
class RunConfig:
    wave: WaveParams
    tx: ArrayGeometry
    rx: ArrayGeometry
    scene: Scene
    grid: EvalGrid
    outputs: tuple
    thresholds: Thresholds
    sweep_param: str | None
    sweep_values: tuple | None
    resolved: dict


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing required field")
    return section[key]


def _as_floats(value, where: str, length=None) -> list:
    try:
        out = [float(v) for v in np.atleast_1d(value)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected numbers, got {value!r}") from exc
    if length is not None and len(out) != length:
        raise ConfigError(f"{where}: expected {length} components, got {len(out)}")
    return out


def _as_int(value, where: str) -> int:
    """A whole number; 64.7 and true are errors, not silently 64 and 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _as_ints(value, where: str) -> tuple:
    items = value if isinstance(value, (list, tuple)) else [value]
    return tuple(_as_int(v, where) for v in items)


def _array_from_section(section, where: str, wavelength: float, role_tag: str) -> ArrayGeometry:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    origin = _as_floats(_require(section, "origin", where), f"{where}.origin")
    axes_raw = _require(section, "axes", where)
    try:
        axes = [[float(v) for v in row] for row in axes_raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.axes: expected a list of direction vectors") from exc
    counts = _as_ints(_require(section, "counts", where), f"{where}.counts")
    spacings = _as_floats(_require(section, "spacings_lambda", where), f"{where}.spacings_lambda")
    try:
        return ArrayGeometry(
            origin=np.asarray(origin) * wavelength,
            axes=np.asarray(axes),
            counts=counts,
            spacings=np.asarray(spacings) * wavelength,
            role_tag=role_tag,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def resolve_config(data: dict) -> RunConfig:
    """Validate a configuration dictionary and apply recorded defaults."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")

    wave_sec = data.get("wave", {})
    if not isinstance(wave_sec, dict):
        raise ConfigError("wave: expected an object")
    try:
        wavelength = float(wave_sec.get("lambda", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError("wave.lambda: expected a number") from exc
    if wavelength <= 0 or not np.isfinite(wavelength):
        raise ConfigError(f"wave.lambda: must be positive, got {wavelength}")
    wave = WaveParams(wavelength=wavelength)

    tx = _array_from_section(_require(data, "tx", "top level"), "tx", wavelength, "transmit")
    rx = _array_from_section(_require(data, "rx", "top level"), "rx", wavelength, "receive")

    scene_sec = _require(data, "scene", "top level")
    if not isinstance(scene_sec, dict):
        raise ConfigError("scene: expected an object")
    scatterer = _as_floats(_require(scene_sec, "scatterer", "scene"), "scene.scatterer")
    try:
        refl_re = float(scene_sec.get("reflectivity_re", 1.0))
        refl_im = float(scene_sec.get("reflectivity_im", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError("scene.reflectivity_re/_im: expected numbers") from exc
    try:
        scene = Scene(scatterer=np.asarray(scatterer) * wavelength,
                      reflectivity=complex(refl_re, refl_im))
    except ValueError as exc:
        raise ConfigError(f"scene: {exc}") from exc

    grid_sec = _require(data, "grid", "top level")
    if not isinstance(grid_sec, dict):
        raise ConfigError("grid: expected an object")
    gmin = _as_floats(_require(grid_sec, "min", "grid"), "grid.min")
    gmax = _as_floats(_require(grid_sec, "max", "grid"), "grid.max", length=len(gmin))
    resolution = _as_ints(_require(grid_sec, "resolution", "grid"), "grid.resolution")
    try:
        grid = EvalGrid(corner_min=np.asarray(gmin) * wavelength,
                        corner_max=np.asarray(gmax) * wavelength,
                        resolution=resolution)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    outputs_raw = _require(data, "outputs", "top level")
    if not isinstance(outputs_raw, (list, tuple)) or not outputs_raw:
        raise ConfigError("outputs: must be a non-empty list of products")
    outputs = tuple(str(o) for o in outputs_raw)
    for o in outputs:
        if o not in OUTPUT_KINDS:
            raise ConfigError(f"outputs: unknown product {o!r}; expected one of {OUTPUT_KINDS}")

    thr_sec = data.get("thresholds", {})
    if not isinstance(thr_sec, dict):
        raise ConfigError("thresholds: expected an object")
    for key in thr_sec:
        if key not in DEFAULT_THRESHOLDS:
            raise ConfigError(f"thresholds.{key}: unknown threshold")
    thr_values = dict(DEFAULT_THRESHOLDS)
    for key, value in thr_sec.items():
        if isinstance(DEFAULT_THRESHOLDS[key], int):
            thr_values[key] = _as_int(value, f"thresholds.{key}")
            continue
        try:
            thr_values[key] = type(DEFAULT_THRESHOLDS[key])(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"thresholds.{key}: expected a number") from exc
    if thr_values["epsilon_lambda"] <= 0:
        raise ConfigError("thresholds.epsilon_lambda: must be positive")
    if thr_values["floor_db"] >= 0 or thr_values["support_db"] >= 0:
        raise ConfigError("thresholds.floor_db and thresholds.support_db must be negative")
    if thr_values["oracle_ratio"] <= 0:
        raise ConfigError("thresholds.oracle_ratio: must be positive")
    if thr_values["oversample"] < 1:
        raise ConfigError("thresholds.oversample: must be >= 1")
    thresholds = Thresholds(**thr_values)

    sweep_param = None
    sweep_values = None
    sweep_sec = data.get("sweep")
    if "sweep" in outputs:
        if not isinstance(sweep_sec, dict):
            raise ConfigError("sweep: section required when outputs include 'sweep'")
    if sweep_sec is not None:
        if not isinstance(sweep_sec, dict):
            raise ConfigError("sweep: expected an object")
        sweep_param = str(_require(sweep_sec, "param", "sweep"))
        if sweep_param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep.param: must be one of {SWEEP_PARAMS}, got {sweep_param!r}")
        values_raw = _require(sweep_sec, "values", "sweep")
        if not isinstance(values_raw, (list, tuple)) or not values_raw:
            raise ConfigError("sweep.values: must be a non-empty list")
        sweep_values = tuple(values_raw)

    resolved = {
        "wave": {"lambda": wavelength},
        "tx": _echo_array(tx, wavelength),
        "rx": _echo_array(rx, wavelength),
        "scene": {"scatterer": [s / wavelength for s in scene.scatterer],
                  "reflectivity_re": scene.reflectivity.real,
                  "reflectivity_im": scene.reflectivity.imag},
        "grid": {"min": [v / wavelength for v in grid.corner_min],
                 "max": [v / wavelength for v in grid.corner_max],
                 "resolution": list(grid.resolution)},
        "outputs": list(outputs),
        "thresholds": thr_values,
    }
    if sweep_param is not None:
        resolved["sweep"] = {"param": sweep_param, "values": list(sweep_values)}

    return RunConfig(wave=wave, tx=tx, rx=rx, scene=scene, grid=grid, outputs=outputs,
                     thresholds=thresholds, sweep_param=sweep_param,
                     sweep_values=sweep_values, resolved=resolved)


def _echo_array(array: ArrayGeometry, wavelength: float) -> dict:
    return {
        "origin": [v / wavelength for v in array.origin],
        "axes": [list(row) for row in array.axes],
        "counts": list(array.counts),
        "spacings_lambda": [v / wavelength for v in array.spacings],
    }


def load_config(source) -> RunConfig:
    """Load a RunConfig from a JSON file path or a raw JSON string.

    Strings that start with '{' are parsed as JSON text; anything else is
    treated as a path. Parse errors carry line/column positions.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {source}")
        text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return resolve_config(data)
