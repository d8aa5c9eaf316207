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
from .geometry import ArrayGeometry, EvalGrid, Scene, WaveParams, as_number, whole_numbers
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


_number = _converter(as_number, "a number")
_numbers = _converter(lambda v: [as_number(x) for x in (v if np.ndim(v) else [v])], "numbers")
_vectors = _converter(lambda v: [[as_number(x) for x in row] for row in v],
                      "a list of direction vectors")


def _as_ints(value, where: str) -> tuple:
    return whole_numbers(value, ConfigError, where)


def _checked(parse, rule: str, holds):
    """Parser applying `parse`, then refusing a result for which holds() is false."""
    def check(value, where: str):
        parsed = parse(value, where)
        if not holds(parsed):
            raise ConfigError(f"{where}: must be {rule}, got {value!r}")
        return parsed
    return check


def _at_least(low: int):
    return _checked(lambda value, where: whole_numbers([value], ConfigError, where)[0],
                    f"an integer >= {low}", lambda n: n >= low)


_finite = _checked(_number, "finite", np.isfinite)
_positive = _checked(_finite, "positive", lambda x: x > 0)
_negative = _checked(_finite, "negative", lambda x: x < 0)
_sweep_param = _checked(lambda v, where: str(v), f"one of {SWEEP_PARAMS}",
                        lambda v: v in SWEEP_PARAMS)


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
    ("thresholds", "epsilon_lambda", _positive, Thresholds.epsilon_lambda),
    ("thresholds", "floor_db", _negative, Thresholds.floor_db),
    ("thresholds", "support_db", _negative, Thresholds.support_db),
    ("thresholds", "oracle_ratio", _positive, Thresholds.oracle_ratio),
    ("thresholds", "oversample", _at_least(1), Thresholds.oversample),
    ("sweep", "param", _sweep_param, REQUIRED),
    ("sweep", "values", _list, REQUIRED),
    # A length sweep value given as a {"length_lambda", "count"} pair.
    ("sweep.values", "length_lambda", _positive, REQUIRED),
    ("sweep.values", "count", _at_least(2), REQUIRED),
)


def _length(value, where: str) -> tuple:
    """(length_lambda, count) of a length sweep value; count is None unless a pair gives it."""
    if isinstance(value, dict):
        pair = _section(value, "sweep.values")
        return pair["length_lambda"], pair["count"]
    return _positive(value, where), None


def sweep_values(param, values, ndim: int) -> tuple:
    """Each of `values` parsed as a value of sweep `param` in an ndim-D scene.

    The only code that parses a sweep value. A spacing value is an antenna
    count, a length value is (length_lambda, count or None), a range value is
    a scatterer position and a dimensionality value is a number of lattice axes.
    Equal values are refused, since each value writes products under its own label.
    """
    parse = {
        "spacing": _at_least(2),
        "length": _length,
        "range": _checked(_numbers, f"a finite position of {ndim} numbers",
                          lambda p: len(p) == ndim and np.all(np.isfinite(p))),
        "dimensionality": _checked(_at_least(1), f"at most {ndim}", lambda n: n <= ndim),
    }[_sweep_param(param, "sweep.param")]
    parsed = tuple(parse(value, "sweep.values") for value in _list(values, "sweep values"))
    for i, v in enumerate(parsed):
        if v in parsed[:i]:
            raise ConfigError(f"sweep.values: {values[i]!r} repeats an earlier value")
    return parsed


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

    outputs, sweep = cfg["outputs"], cfg["sweep"]
    if "sweep" in outputs and sweep is None:
        raise ConfigError("sweep: section required when outputs include 'sweep'")
    param, values = (sweep["param"], sweep["values"]) if sweep else (None, None)
    if sweep:
        sweep_values(param, values, grid.ndim)
    return RunConfig(wave=WaveParams(wavelength=wavelength), tx=tx, rx=rx, scene=scene,
                     grid=grid, outputs=outputs, thresholds=Thresholds(**cfg["thresholds"]),
                     sweep_param=param, sweep_values=values,
                     resolved={k: v for k, v in cfg.items() if v is not None})


def load_config(source) -> RunConfig:
    """Load a RunConfig from a JSON file path or a raw JSON string.

    Strings that start with '{' are parsed as JSON text; anything else is
    treated as a path. A missing or non-UTF-8 file raises ConfigError, and so
    does a parse error, with its line/column position.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {source} is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return resolve_config(data)
