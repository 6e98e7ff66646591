"""Dual-band MIMO-OFDM link simulator with out-of-band-aided estimation."""

from .core import (
    Band,
    BandConfig,
    ConfigError,
    Method,
    SeedTree,
    SimConfig,
    default_config,
    load_config,
    save_config,
    validate_config,
)
from .montecarlo import (
    SweepRecord,
    SweepSpec,
    apply_point,
    format_csv,
    run_realization,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Band",
    "BandConfig",
    "ConfigError",
    "Method",
    "SeedTree",
    "SimConfig",
    "SweepRecord",
    "SweepSpec",
    "apply_point",
    "default_config",
    "format_csv",
    "load_config",
    "run_realization",
    "run_sweep",
    "save_config",
    "validate_config",
    "__version__",
]
