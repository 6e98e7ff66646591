import numpy as np
import pytest

from mmlink.core import Band, BandConfig, Method, SimConfig


def make_band(
    band_id: Band,
    n_subcarriers: int = 32,
    m_tx: int = 8,
    m_rx: int = 8,
    spacing_hz: float = 120e3,
    rms_delay_spread_s: float = 841e-9,
) -> BandConfig:
    return BandConfig(
        carrier_freq_hz=25.5e9 if band_id == Band.MMWAVE else 2.55e9,
        subcarrier_spacing_hz=spacing_hz,
        n_subcarriers=n_subcarriers,
        m_tx=m_tx,
        m_rx=m_rx,
        tx_power_watt=1.0,
        rms_delay_spread_s=rms_delay_spread_s,
    )


def make_config(k_p: int = 2, n_subcarriers: int = 32, **overrides) -> SimConfig:
    """Small but structurally valid config for fast tests."""
    from dataclasses import replace

    cfg = SimConfig(
        sub6=make_band(
            Band.SUB6,
            n_subcarriers=n_subcarriers,
            spacing_hz=60e3,
            rms_delay_spread_s=1148e-9,
        ),
        mmw=make_band(Band.MMWAVE, n_subcarriers=n_subcarriers),
        k_factor_sub6_db=0.0,
        snr_db_mmw=0.0,
        snr_db_sub6=20.0,
        velocity_mps=0.0,
        pilot_symbols_per_direction=k_p,
        n_data_symbols=7,
        n_realizations=4,
        master_seed=7,
        estimation_method=Method.CONVENTIONAL,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# Ways to break the INI syntax of a saved config; configparser raises on each,
# while reading the file or (the stray %) while interpolating a value.
MALFORMED_INI = {
    "repeated-key": lambda text: text.replace("[sub6]\n", "[sub6]\nm_tx = 8\n"),
    "repeated-section": lambda text: text + "\n[sim]\nmaster_seed = 3\n",
    "key-before-header": lambda text: "master_seed = 3\n" + text,
    "unclosed-header": lambda text: text.replace("[sim]", "[sim", 1),
    "stray-percent": lambda text: text.replace("master_seed = ", "master_seed = %"),
}


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
