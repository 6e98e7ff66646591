"""Configuration model, constants and deterministic seeding."""

from __future__ import annotations

import configparser
import hashlib
import math
import struct
import sys
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

KAPPA_MAX = 1.0e6  # clamp for linear K-factor estimates

# dB values at or above this overflow when converted to linear units
_DB_OVERFLOW = 10.0 * math.log10(sys.float_info.max)


class Band(str, Enum):
    SUB6 = "sub6"
    MMWAVE = "mmw"


class Method(str, Enum):
    CONVENTIONAL = "conventional"
    OOBA_MRC = "ooba_mrc"
    PERFECT = "perfect"


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed into a valid SimConfig."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class BandConfig:
    """OFDM and array parameters for one frequency band.

    All units are fixed: Hz, seconds, watts. The wavelength is always
    derived from the carrier frequency, never stored.
    """

    carrier_freq_hz: float
    subcarrier_spacing_hz: float
    n_subcarriers: int
    m_tx: int
    m_rx: int
    tx_power_watt: float
    rms_delay_spread_s: float
    element_spacing_wavelengths: float = 0.5

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated link-establishment experiment."""

    sub6: BandConfig
    mmw: BandConfig
    k_factor_sub6_db: float
    snr_db_mmw: float
    snr_db_sub6: float
    velocity_mps: float
    pilot_symbols_per_direction: int
    n_data_symbols: int
    n_realizations: int
    master_seed: int
    estimation_method: Method
    k_factor_scale_db: float = 0.0

    @property
    def k_factor_mmw_db(self) -> float:
        # mmWave K-factor scales with the sub-6 GHz one
        return self.k_factor_sub6_db + self.k_factor_scale_db

    def band(self, band_id: Band) -> BandConfig:
        return self.sub6 if band_id == Band.SUB6 else self.mmw

    def n_symbols(self, band_id: Band) -> int:
        """Frame length of a band: 2*K_P training symbols (both link
        directions), followed on mmWave by the K_D data symbols."""
        n_training = 2 * self.pilot_symbols_per_direction
        return n_training if band_id == Band.SUB6 else n_training + self.n_data_symbols

    def k_factor_linear(self, band_id: Band) -> float:
        db = self.k_factor_sub6_db if band_id == Band.SUB6 else self.k_factor_mmw_db
        return db_to_linear(db)

    def snr_db(self, band_id: Band) -> float:
        return self.snr_db_sub6 if band_id == Band.SUB6 else self.snr_db_mmw

    def noise_power(self, band_id: Band) -> float:
        """AWGN power sigma_w^2, derived from the per-band SNR dial.

        SNR is defined pre-beamforming as P_T / sigma_w^2 with the
        stochastic channel-entry power normalized to 1.
        """
        return self.band(band_id).tx_power_watt / db_to_linear(self.snr_db(band_id))


def comb_tiling_errors(band: BandConfig, k_p: int) -> list[str]:
    """Violations of the comb pilot layout: K_P must divide each array
    size M, and the comb group size M/K_P must divide the subcarrier count,
    so the layout tiles the band in both link directions."""
    out = []
    for m, role in ((band.m_tx, "m_tx"), (band.m_rx, "m_rx")):
        if m < 1 or k_p < 1:
            continue
        if m % k_p != 0:
            out.append(f"K_P must divide {role} ({k_p} does not divide {m})")
        elif band.n_subcarriers % (m // k_p) != 0:
            out.append(
                f"comb group size {role}/K_P = {m // k_p} must divide "
                f"n_subcarriers = {band.n_subcarriers}"
            )
    return out


def _non_finite(obj) -> list[str]:
    """Names of a config's float fields that hold NaN or an infinity."""
    values = vars(obj).items()
    return [k for k, v in values if isinstance(v, float) and not math.isfinite(v)]


def _validate_band(band: BandConfig, b: str, k_p: int, out: list[str]) -> None:
    out.extend(f"[{b}] {name} must be finite" for name in _non_finite(band))
    if band.carrier_freq_hz <= 0:
        out.append(f"[{b}] carrier_freq_hz must be > 0")
    if band.subcarrier_spacing_hz <= 0:
        out.append(f"[{b}] subcarrier_spacing_hz must be > 0")
    if band.tx_power_watt <= 0:
        out.append(f"[{b}] tx_power_watt must be > 0")
    if band.rms_delay_spread_s < 0:
        out.append(f"[{b}] rms_delay_spread_s must be >= 0")
    if band.element_spacing_wavelengths <= 0:
        out.append(f"[{b}] element_spacing_wavelengths must be > 0")
    if band.m_tx < 1 or band.m_rx < 1:
        out.append(f"[{b}] antenna counts must be >= 1")
    if band.n_subcarriers < 1:
        out.append(f"[{b}] n_subcarriers must be >= 1")
    out.extend(f"[{b}] {v}" for v in comb_tiling_errors(band, k_p))


def validate_config(cfg: SimConfig) -> list[str]:
    """Check every config invariant; returns human-readable violations.

    An empty list means the config is valid. Violations are data, not
    exceptions, so callers can report all of them at once.
    """
    out = [f"{name} must be finite" for name in _non_finite(cfg)]
    for name in ("k_factor_sub6_db", "k_factor_mmw_db", "snr_db_mmw", "snr_db_sub6"):
        db = getattr(cfg, name)
        if math.isfinite(db) and db >= _DB_OVERFLOW:
            out.append(f"{name} = {db:g} dB overflows in linear units")
        elif name.startswith("snr") and math.isfinite(db) and db_to_linear(db) == 0.0:
            out.append(f"{name} = {db:g} dB underflows to 0 in linear units")
    k_p = cfg.pilot_symbols_per_direction
    if k_p not in (1, 2, 4):
        out.append(f"pilot_symbols_per_direction must be 1, 2 or 4 (got {k_p})")
    if cfg.n_data_symbols < 1:
        out.append("n_data_symbols must be >= 1")
    if cfg.velocity_mps < 0:
        out.append("velocity_mps must be >= 0")
    if cfg.n_realizations < 1:
        out.append("n_realizations must be >= 1")
    if not 0 <= cfg.master_seed < 2**64:
        out.append("master_seed must fit in 64 bits")
    _validate_band(cfg.sub6, "sub6", k_p, out)
    _validate_band(cfg.mmw, "mmw", k_p, out)
    return out


@dataclass(frozen=True)
class SeedTree:
    """Splittable deterministic seed derivation.

    Children are derived by hashing (master, realization, band, purpose),
    so any worker can reconstruct any stream independently of evaluation
    order or thread count.
    """

    master_seed: int

    def derive(self, realization: int, band: str, purpose: str) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<Q", self.master_seed & (2**64 - 1)))
        h.update(struct.pack("<q", realization))
        h.update(band.encode("utf-8") + b"\x00" + purpose.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")

    def rng(self, realization: int, band: str, purpose: str) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(self.derive(realization, band, purpose))
        )


# --- config file format -----------------------------------------------------
#
# INI-style plain text: one [sim] section with the flat SimConfig fields and
# one section per band with the BandConfig fields, named after the SimConfig
# slot that holds the band ([sub6], [mmw]). Unknown keys are a validation
# error; a key whose field has a default may be left out.

_BAND_FIELDS = {f.name: f for f in fields(BandConfig)}
_SIM_FIELDS = {f.name: f for f in fields(SimConfig) if f.type != "BandConfig"}
_SECTIONS = ("sim", "sub6", "mmw")


def _parse_method(raw: str) -> Method:
    try:
        return Method(raw)
    except ValueError:
        raise ConfigError(
            f"estimation_method must be one of {[m.value for m in Method]} (got '{raw}')"
        ) from None


_PARSERS = {"int": int, "float": float, "Method": _parse_method}


def _parse_section(section: configparser.SectionProxy, known: dict) -> dict:
    kwargs = {}
    for key, raw in section.items():
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section [{section.name}]")
        kwargs[key] = _PARSERS[known[key].type](raw)
    missing = [k for k, f in known.items() if k not in kwargs and f.default is MISSING]
    if missing:
        raise ConfigError(
            f"section [{section.name}] is missing keys: {', '.join(sorted(missing))}"
        )
    return kwargs


def load_config(path: str) -> SimConfig:
    """Parse the plain-text config file format into a SimConfig.

    Raises ConfigError on malformed INI syntax, unknown sections or keys,
    missing keys or unparseable values. Semantic invariants are checked
    separately by validate_config.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
        for name in _SECTIONS:
            if name not in parser:
                raise ConfigError(f"missing section [{name}]")
        sub6 = BandConfig(**_parse_section(parser["sub6"], _BAND_FIELDS))
        mmw = BandConfig(**_parse_section(parser["mmw"], _BAND_FIELDS))
        sim = _parse_section(parser["sim"], _SIM_FIELDS)
        return SimConfig(sub6=sub6, mmw=mmw, **sim)
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, Method):
        return value.value
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def save_config(cfg: SimConfig, path: str) -> None:
    """Write a config file that load_config parses back losslessly."""
    lines = ["[sim]"]
    for name in _SIM_FIELDS:
        lines.append(f"{name} = {_fmt(getattr(cfg, name))}")
    for slot in ("sub6", "mmw"):
        band = getattr(cfg, slot)
        lines.append("")
        lines.append(f"[{slot}]")
        for name in _BAND_FIELDS:
            lines.append(f"{name} = {_fmt(getattr(band, name))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def default_config(scaled_mmw: bool = False, **overrides) -> SimConfig:
    """Baseline dual-band 8x8 configuration.

    Sub-6 GHz: 2.55 GHz carrier, 20.16 MHz over 336 subcarriers at 60 kHz.
    mmWave: 25.5 GHz carrier, 403.2 MHz over 3360 subcarriers at 120 kHz
    (or a 336-subcarrier / 40.32 MHz variant when scaled_mmw is set, which
    keeps the per-subcarrier statistics while cutting runtime).

    The frame holds 2*K_P = 4 training symbols (both link directions)
    followed by K_D = 7 data symbols; the sub-6 band is only used during
    training. overrides replace any SimConfig field.
    """
    sub6 = BandConfig(
        carrier_freq_hz=2.55e9,
        subcarrier_spacing_hz=60e3,
        n_subcarriers=336,
        m_tx=8,
        m_rx=8,
        tx_power_watt=1.0,
        rms_delay_spread_s=1148e-9,
    )
    mmw = BandConfig(
        carrier_freq_hz=25.5e9,
        subcarrier_spacing_hz=120e3,
        n_subcarriers=336 if scaled_mmw else 3360,
        m_tx=8,
        m_rx=8,
        tx_power_watt=1.0,
        rms_delay_spread_s=841e-9,
    )
    cfg = SimConfig(
        sub6=sub6,
        mmw=mmw,
        k_factor_sub6_db=0.0,
        snr_db_mmw=0.0,
        snr_db_sub6=20.0,
        velocity_mps=0.0,
        pilot_symbols_per_direction=2,
        n_data_symbols=7,
        n_realizations=1000,
        master_seed=1,
        estimation_method=Method.CONVENTIONAL,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
