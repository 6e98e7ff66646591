"""Configuration model, constants, tensor containers and deterministic seeding."""

from __future__ import annotations

import configparser
import hashlib
import struct
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

KAPPA_MAX = 1.0e6  # clamp for linear K-factor estimates


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

    band_id: Band
    carrier_freq_hz: float
    bandwidth_hz: float
    subcarrier_spacing_hz: float
    n_subcarriers: int
    n_symbols_total: int
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


def _validate_band(band: BandConfig, k_p: int, out: list[str]) -> None:
    b = band.band_id.value
    if band.carrier_freq_hz <= 0:
        out.append(f"[{b}] carrier_freq_hz must be > 0")
    if band.bandwidth_hz <= 0:
        out.append(f"[{b}] bandwidth_hz must be > 0")
    if band.subcarrier_spacing_hz <= 0:
        out.append(f"[{b}] subcarrier_spacing_hz must be > 0")
    if band.tx_power_watt <= 0:
        out.append(f"[{b}] tx_power_watt must be > 0")
    if band.rms_delay_spread_s < 0:
        out.append(f"[{b}] rms_delay_spread_s must be >= 0")
    if band.m_tx < 1 or band.m_rx < 1:
        out.append(f"[{b}] antenna counts must be >= 1")
    if band.n_subcarriers < 1:
        out.append(f"[{b}] n_subcarriers must be >= 1")
    if band.subcarrier_spacing_hz > 0 and (
        band.n_subcarriers * band.subcarrier_spacing_hz != band.bandwidth_hz
    ):
        out.append(
            f"[{b}] n_subcarriers * subcarrier_spacing_hz must equal bandwidth_hz "
            f"exactly ({band.n_subcarriers} * {band.subcarrier_spacing_hz:g} != "
            f"{band.bandwidth_hz:g})"
        )
    out.extend(f"[{b}] {v}" for v in comb_tiling_errors(band, k_p))


def validate_config(cfg: SimConfig) -> list[str]:
    """Check every config invariant; returns human-readable violations.

    An empty list means the config is valid. Violations are data, not
    exceptions, so callers can report all of them at once.
    """
    out: list[str] = []
    k_p = cfg.pilot_symbols_per_direction
    if k_p not in (1, 2, 4):
        out.append(f"pilot_symbols_per_direction must be 1, 2 or 4 (got {k_p})")
    if cfg.velocity_mps < 0:
        out.append("velocity_mps must be >= 0")
    if cfg.n_realizations < 1:
        out.append("n_realizations must be >= 1")
    if not 0 <= cfg.master_seed < 2**64:
        out.append("master_seed must fit in 64 bits")
    _validate_band(cfg.sub6, k_p, out)
    _validate_band(cfg.mmw, k_p, out)
    if cfg.sub6.band_id != Band.SUB6 or cfg.mmw.band_id != Band.MMWAVE:
        out.append("band sections are swapped or mislabeled")
    if k_p >= 1:
        if cfg.mmw.n_symbols_total <= 2 * k_p:
            out.append(
                f"[mmw] n_symbols_total = {cfg.mmw.n_symbols_total} leaves no data "
                f"symbols after 2*K_P = {2 * k_p} training symbols"
            )
        if cfg.sub6.n_symbols_total < 2 * k_p:
            out.append(
                f"[sub6] n_symbols_total = {cfg.sub6.n_symbols_total} is shorter "
                f"than the 2*K_P = {2 * k_p} training symbols"
            )
    return out


@dataclass(frozen=True)
class ChannelTensor:
    """Complex channel H[rx, tx, subcarrier, symbol] for one band."""

    band_id: Band
    data: np.ndarray  # complex, shape (m_rx, m_tx, n_subcarriers, n_symbols)

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ValueError("channel tensor must have 4 axes (rx, tx, n, k)")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


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
# one section per band ([sub6], [mmw]) with the BandConfig fields. band_id is
# implied by the section name. Unknown keys are a validation error.

_BAND_FIELDS = {f.name: f for f in fields(BandConfig) if f.name != "band_id"}
_SIM_FIELDS = {
    f.name: f for f in fields(SimConfig) if f.name not in ("sub6", "mmw")
}
_INT_BAND_KEYS = {"n_subcarriers", "n_symbols_total", "m_tx", "m_rx"}
_INT_SIM_KEYS = {"pilot_symbols_per_direction", "n_realizations", "master_seed"}


def _parse_band(section: configparser.SectionProxy, band_id: Band) -> BandConfig:
    kwargs = {"band_id": band_id}
    for key, raw in section.items():
        if key not in _BAND_FIELDS:
            raise ConfigError(f"unknown key '{key}' in section [{band_id.value}]")
        kwargs[key] = int(raw) if key in _INT_BAND_KEYS else float(raw)
    missing = [
        k for k in _BAND_FIELDS if k not in kwargs and k != "element_spacing_wavelengths"
    ]
    if missing:
        raise ConfigError(
            f"section [{band_id.value}] is missing keys: {', '.join(sorted(missing))}"
        )
    return BandConfig(**kwargs)


def load_config(path: str) -> SimConfig:
    """Parse the plain-text config file format into a SimConfig.

    Raises ConfigError on unknown keys, missing keys or unparseable
    values. Semantic invariants are checked separately by
    validate_config.
    """
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    for section in parser.sections():
        if section not in ("sim", "sub6", "mmw"):
            raise ConfigError(f"unknown section [{section}]")
    for name in ("sim", "sub6", "mmw"):
        if name not in parser:
            raise ConfigError(f"missing section [{name}]")
    try:
        sub6 = _parse_band(parser["sub6"], Band.SUB6)
        mmw = _parse_band(parser["mmw"], Band.MMWAVE)
        kwargs: dict = {"sub6": sub6, "mmw": mmw}
        for key, raw in parser["sim"].items():
            if key not in _SIM_FIELDS:
                raise ConfigError(f"unknown key '{key}' in section [sim]")
            if key == "estimation_method":
                try:
                    kwargs[key] = Method(raw)
                except ValueError:
                    raise ConfigError(
                        f"estimation_method must be one of "
                        f"{[m.value for m in Method]} (got '{raw}')"
                    ) from None
            elif key in _INT_SIM_KEYS:
                kwargs[key] = int(raw)
            else:
                kwargs[key] = float(raw)
        missing = [
            k for k in _SIM_FIELDS if k not in kwargs and k != "k_factor_scale_db"
        ]
        if missing:
            raise ConfigError(
                f"section [sim] is missing keys: {', '.join(sorted(missing))}"
            )
        return SimConfig(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
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
    for band in (cfg.sub6, cfg.mmw):
        lines.append("")
        lines.append(f"[{band.band_id.value}]")
        for name in _BAND_FIELDS:
            lines.append(f"{name} = {_fmt(getattr(band, name))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def default_config(
    pilot_symbols_per_direction: int = 2,
    n_data_symbols: int = 7,
    scaled_mmw: bool = False,
    **overrides,
) -> SimConfig:
    """Baseline dual-band 8x8 configuration.

    Sub-6 GHz: 2.55 GHz carrier, 20.16 MHz over 336 subcarriers at 60 kHz.
    mmWave: 25.5 GHz carrier, 403.2 MHz over 3360 subcarriers at 120 kHz
    (or a 336-subcarrier / 40.32 MHz variant when scaled_mmw is set, which
    keeps the per-subcarrier statistics while cutting runtime).

    The frame holds 2*K_P training symbols (both link directions) followed
    by n_data_symbols data symbols; the sub-6 band is only used during
    training.
    """
    k_p = pilot_symbols_per_direction
    sub6 = BandConfig(
        band_id=Band.SUB6,
        carrier_freq_hz=2.55e9,
        bandwidth_hz=20.16e6,
        subcarrier_spacing_hz=60e3,
        n_subcarriers=336,
        n_symbols_total=2 * k_p,
        m_tx=8,
        m_rx=8,
        tx_power_watt=1.0,
        rms_delay_spread_s=1148e-9,
    )
    n_sc_mmw = 336 if scaled_mmw else 3360
    mmw = BandConfig(
        band_id=Band.MMWAVE,
        carrier_freq_hz=25.5e9,
        bandwidth_hz=n_sc_mmw * 120e3,
        subcarrier_spacing_hz=120e3,
        n_subcarriers=n_sc_mmw,
        n_symbols_total=2 * k_p + n_data_symbols,
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
        pilot_symbols_per_direction=k_p,
        n_realizations=1000,
        master_seed=1,
        estimation_method=Method.CONVENTIONAL,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def with_pilot_symbols(cfg: SimConfig, k_p: int) -> SimConfig:
    """Change K_P while preserving the number of data symbols."""
    old_kp = cfg.pilot_symbols_per_direction
    n_data = cfg.mmw.n_symbols_total - 2 * old_kp
    return replace(
        cfg,
        pilot_symbols_per_direction=k_p,
        sub6=replace(cfg.sub6, n_symbols_total=2 * k_p),
        mmw=replace(cfg.mmw, n_symbols_total=2 * k_p + n_data),
    )
