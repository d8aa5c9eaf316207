"""Near-field bistatic point-scatterer imaging and aliasing-region prediction."""

__version__ = "0.1.0"

from .errors import ConfigError, GeometryError, GridError, SingularityError
from .geometry import (
    ArrayGeometry,
    EvalGrid,
    Scene,
    WaveParams,
    build_uniform_array,
)
from .wavefield import chirp_phase, chirp_value, green
from .imaging import (
    ComplexField,
    bistatic_image,
    direct_image,
    magnitude_db,
    partial_image,
    partial_image_at,
)
from .chirp import (
    AliasingMask,
    AliasingVerdict,
    aliasing_free,
    aliasing_mask,
    local_wavenumber,
    max_spatial_frequency,
)
from .spectral import (
    SpectralSupport,
    sample_chirp_along_axis,
    spectral_support,
)
from .config import RunConfig, Thresholds, load_config, resolve_config
from .runner import run, sweep

__all__ = [
    "AliasingMask",
    "AliasingVerdict",
    "ArrayGeometry",
    "ComplexField",
    "ConfigError",
    "EvalGrid",
    "GeometryError",
    "GridError",
    "RunConfig",
    "Scene",
    "SingularityError",
    "SpectralSupport",
    "Thresholds",
    "WaveParams",
    "aliasing_free",
    "aliasing_mask",
    "bistatic_image",
    "build_uniform_array",
    "chirp_phase",
    "chirp_value",
    "direct_image",
    "green",
    "load_config",
    "local_wavenumber",
    "magnitude_db",
    "max_spatial_frequency",
    "partial_image",
    "partial_image_at",
    "resolve_config",
    "run",
    "sample_chirp_along_axis",
    "spectral_support",
    "sweep",
]
