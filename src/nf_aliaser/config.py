"""Run configuration: JSON schema, validation, and resolved defaults.

All lengths in a configuration are expressed in wavelengths; the absolute
wavelength defaults to 1. Every default that applies is recorded in the
resolved dictionary so the output manifest echoes the complete configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams, whole_numbers
from .wavefield import EXCLUSION_FACTOR

OUTPUT_KINDS = ("image", "partial_tx", "partial_rx", "mask", "spectrum", "sweep")
SWEEP_PARAMS = ("spacing", "length", "range", "dimensionality")


@dataclass(frozen=True)
class Thresholds:
    epsilon_lambda: float = EXCLUSION_FACTOR
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


def _converter(convert, expected: str):
    """Parser applying `convert`; its TypeError/ValueError names the key."""
    def parse(value, where: str):
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: expected {expected}, got {value!r}") from exc
    return parse


_number = _converter(float, "a number")
_numbers = _converter(lambda v: [float(x) for x in np.atleast_1d(v)], "numbers")
_vectors = _converter(lambda v: [[float(x) for x in row] for row in v],
                      "a list of direction vectors")


def _as_int(value, where: str) -> int:
    return whole_numbers([value], ConfigError, where)[0]


def _as_ints(value, where: str) -> tuple:
    return whole_numbers(value, ConfigError, where)


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if number <= 0 or not np.isfinite(number):
        raise ConfigError(f"{where}: must be positive and finite, got {number}")
    return number


def _list(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: must be a non-empty list")
    return tuple(value)


def _outputs(value, where: str) -> tuple:
    outputs = tuple(str(o) for o in _list(value, where))
    for o in outputs:
        if o not in OUTPUT_KINDS:
            raise ConfigError(f"{where}: unknown product {o!r}; expected one of {OUTPUT_KINDS}")
    return outputs


def _sweep_param(value, where: str) -> str:
    param = str(value)
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"{where}: must be one of {SWEEP_PARAMS}, got {param!r}")
    return param


def _section(raw, section: str) -> dict:
    """Parse one config object by its SCHEMA rows.

    Unknown keys are rejected; an absent or null key takes its default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{section or 'top level'}: expected an object")
    rows = {key: (parser, default) for sec, key, parser, default in SCHEMA if sec == section}
    prefix = f"{section}." if section else ""
    for key in raw:
        if key not in rows:
            raise ConfigError(f"{prefix}{key}: unknown key")
    parsed = {}
    for key, (parser, default) in rows.items():
        value = raw.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"{prefix}{key}: missing required field")
            value = default
        parsed[key] = None if value is None else parser(value, prefix + key)
    return parsed


REQUIRED = object()
_ARRAY_KEYS = (("origin", _numbers), ("axes", _vectors), ("counts", _as_ints),
               ("spacings_lambda", _numbers))

# (section, key, parser, default or REQUIRED): every key a config may hold.
# Section "" is the top level, whose object-valued keys are sections.
SCHEMA = (
    ("", "wave", _section, {}),
    ("", "tx", _section, REQUIRED),
    ("", "rx", _section, REQUIRED),
    ("", "scene", _section, REQUIRED),
    ("", "grid", _section, REQUIRED),
    ("", "outputs", _outputs, REQUIRED),
    ("", "thresholds", _section, {}),
    ("", "sweep", _section, None),
    ("wave", "lambda", _positive, 1.0),
    *((role, key, parser, REQUIRED) for role in ("tx", "rx") for key, parser in _ARRAY_KEYS),
    ("scene", "scatterer", _numbers, REQUIRED),
    ("scene", "reflectivity_re", _number, 1.0),
    ("scene", "reflectivity_im", _number, 0.0),
    ("grid", "min", _numbers, REQUIRED),
    ("grid", "max", _numbers, REQUIRED),
    ("grid", "resolution", _as_ints, REQUIRED),
    *(("thresholds", f.name, _as_int if isinstance(f.default, int) else _number, f.default)
      for f in fields(Thresholds)),
    ("sweep", "param", _sweep_param, REQUIRED),
    ("sweep", "values", _list, REQUIRED),
)


def _build(where: str, cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _array(section: dict, where: str, wavelength: float, role_tag: str) -> ArrayGeometry:
    return _build(where, ArrayGeometry, origin=np.asarray(section["origin"]) * wavelength,
                  axes=section["axes"], counts=section["counts"],
                  spacings=np.asarray(section["spacings_lambda"]) * wavelength,
                  role_tag=role_tag)


def resolve_config(data: dict) -> RunConfig:
    """Validate a configuration dictionary and apply recorded defaults."""
    cfg = _section(data, "")
    wavelength = cfg["wave"]["lambda"]
    tx = _array(cfg["tx"], "tx", wavelength, "transmit")
    rx = _array(cfg["rx"], "rx", wavelength, "receive")
    sc = cfg["scene"]
    scene = _build("scene", Scene, scatterer=np.asarray(sc["scatterer"]) * wavelength,
                   reflectivity=complex(sc["reflectivity_re"], sc["reflectivity_im"]))
    gr = cfg["grid"]
    grid = _build("grid", EvalGrid, corner_min=np.asarray(gr["min"]) * wavelength,
                  corner_max=np.asarray(gr["max"]) * wavelength, resolution=gr["resolution"])
    dims = {"scene.scatterer": len(scene.scatterer), "tx": tx.ndim, "rx": rx.ndim,
            "grid": grid.ndim}
    if len(set(dims.values())) > 1:
        raise ConfigError("scene.scatterer, tx, rx and grid must share one dimensionality, got "
                          + ", ".join(f"{k} {d}" for k, d in dims.items()))

    thr = cfg["thresholds"]
    for key, value in thr.items():
        if not np.isfinite(value):
            raise ConfigError(f"thresholds.{key}: must be finite, got {value}")
    if thr["epsilon_lambda"] <= 0:
        raise ConfigError("thresholds.epsilon_lambda: must be positive")
    if thr["floor_db"] >= 0 or thr["support_db"] >= 0:
        raise ConfigError("thresholds.floor_db and thresholds.support_db must be negative")
    if thr["oracle_ratio"] <= 0:
        raise ConfigError("thresholds.oracle_ratio: must be positive")
    if thr["oversample"] < 1:
        raise ConfigError("thresholds.oversample: must be >= 1")

    outputs, sweep = cfg["outputs"], cfg["sweep"]
    if "sweep" in outputs and sweep is None:
        raise ConfigError("sweep: section required when outputs include 'sweep'")

    sweep_param, sweep_values = (sweep["param"], sweep["values"]) if sweep else (None, None)
    return RunConfig(wave=WaveParams(wavelength=wavelength), tx=tx, rx=rx, scene=scene,
                     grid=grid, outputs=outputs, thresholds=Thresholds(**thr),
                     sweep_param=sweep_param, sweep_values=sweep_values,
                     resolved={k: v for k, v in cfg.items() if v is not None})


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
