"""Canned experiment grids for the standard SE curves.

The fig2* presets sweep the Rician K-factor in a static channel at two
SNR points; the fig3* presets sweep receiver velocity under NLOS and LOS
conditions. Those four use the reduced-width mmWave band (336
subcarriers at the full 120 kHz spacing), which preserves per-subcarrier
statistics while keeping runtime reasonable; table1-smoke runs the
full-width band once per estimation method.
"""

from __future__ import annotations

from dataclasses import replace

from .core import Method, SimConfig, default_config
from .montecarlo import SweepSpec, apply_point

_KAPPA_GRID = tuple(float(v) for v in range(-20, 31, 5))
_VELOCITY_GRID = tuple(float(v) for v in range(0, 201, 25))
_ESTIMATED = ("conventional", "ooba_mrc")
_PATTERNS = (1, 2, 4)


def _curves(base: SimConfig, sweep_axis: tuple[str, tuple]) -> list[SweepSpec]:
    """Estimated methods crossed with pilot patterns, plus one perfect bound."""
    estimated = SweepSpec(
        base=base,
        axes=(("method", _ESTIMATED), ("pilot_k_p", _PATTERNS), sweep_axis),
    )
    perfect = SweepSpec(
        base=replace(base, estimation_method=Method.PERFECT),
        axes=(sweep_axis,),
    )
    return [estimated, perfect]


def _fig2(snr_db: float) -> list[SweepSpec]:
    base = apply_point(default_config(scaled_mmw=True), {"snr_db": snr_db})
    return _curves(base, ("k_factor_db", _KAPPA_GRID))


def _fig3(k_factor_db: float) -> list[SweepSpec]:
    base = apply_point(
        default_config(scaled_mmw=True, k_factor_sub6_db=k_factor_db), {"snr_db": 0.0}
    )
    return _curves(base, ("velocity_kmh", _VELOCITY_GRID))


def _table1_smoke() -> list[SweepSpec]:
    base = default_config(k_factor_sub6_db=20.0)
    return [
        SweepSpec(
            base=base,
            axes=(("method", ("conventional", "ooba_mrc", "perfect")),),
        )
    ]


PRESETS = {
    "fig2a": lambda: _fig2(0.0),
    "fig2b": lambda: _fig2(10.0),
    "fig3a": lambda: _fig3(-20.0),
    "fig3b": lambda: _fig3(20.0),
    "table1-smoke": _table1_smoke,
}


def build_preset(name: str) -> list[SweepSpec]:
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset '{name}' (available: {', '.join(sorted(PRESETS))})"
        )
    return PRESETS[name]()
