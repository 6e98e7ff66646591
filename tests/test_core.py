"""Config model, validation, file round-trip and seed derivation."""

import concurrent.futures
import math
import os
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from mmlink.core import (
    _DB_OVERFLOW,
    Band,
    BandConfig,
    ConfigError,
    Method,
    SeedTree,
    SimConfig,
    db_to_linear,
    default_config,
    load_config,
    save_config,
    validate_config,
)
from mmlink.montecarlo import apply_point

from conftest import MALFORMED_INI, make_config

SHIPPED_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "table1.cfg")

# (section, field) for every float field: None for [sim], else the band
FLOAT_FIELDS = [(None, f.name) for f in fields(SimConfig) if f.type == "float"] + [
    (band, f.name)
    for band in ("sub6", "mmw")
    for f in fields(BandConfig)
    if f.type == "float"
]


def with_field(cfg, section, name, value):
    if section is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


class TestValidation:
    def test_full_size_defaults_pass(self):
        cfg = default_config()
        assert validate_config(cfg) == []
        assert cfg.sub6.n_subcarriers == 336
        assert cfg.mmw.n_subcarriers == 3360
        assert cfg.sub6.n_subcarriers * cfg.sub6.subcarrier_spacing_hz == 20.16e6
        assert cfg.mmw.n_subcarriers * cfg.mmw.subcarrier_spacing_hz == 403.2e6

    def test_scaled_defaults_pass(self):
        assert validate_config(default_config(scaled_mmw=True)) == []

    def test_kp_must_divide_antennas(self):
        cfg = replace(make_config(), pilot_symbols_per_direction=3)
        messages = validate_config(cfg)
        assert any("must be 1, 2 or 4" in m for m in messages)

    def test_kp_divisibility_message(self):
        # force a 6-antenna array with K_P=4
        cfg = make_config(k_p=4)
        cfg = replace(cfg, mmw=replace(cfg.mmw, m_tx=6))
        assert any("K_P must divide m_tx" in m for m in validate_config(cfg))

    def test_no_data_symbols(self):
        cfg = make_config(k_p=4, n_data_symbols=0)
        assert validate_config(cfg) == ["n_data_symbols must be >= 1"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("section, name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, section, name, value):
        messages = validate_config(with_field(make_config(), section, name, value))
        prefix = "" if section is None else f"[{section}] "
        assert f"{prefix}{name} must be finite" in messages

    @pytest.mark.parametrize(
        "field, named",
        [
            ("k_factor_sub6_db", "k_factor_sub6_db"),
            ("k_factor_scale_db", "k_factor_mmw_db"),
            ("snr_db_mmw", "snr_db_mmw"),
            ("snr_db_sub6", "snr_db_sub6"),
        ],
    )
    def test_db_overflow_rejected(self, field, named):
        messages = validate_config(make_config(**{field: 4000.0}))
        assert any(m.startswith(f"{named} = 4000 dB overflows") for m in messages)

    def test_db_overflow_bound_is_exact(self):
        below = math.nextafter(_DB_OVERFLOW, 0.0)
        assert math.isfinite(db_to_linear(below))
        with pytest.raises(OverflowError):
            db_to_linear(_DB_OVERFLOW)
        assert validate_config(make_config(k_factor_sub6_db=below)) == []
        assert len(validate_config(make_config(k_factor_sub6_db=_DB_OVERFLOW))) == 2

    def test_snr_underflow_rejected(self):
        messages = validate_config(make_config(snr_db_mmw=-4000.0))
        assert messages == ["snr_db_mmw = -4000 dB underflows to 0 in linear units"]
        # a vanishing K-factor is a valid pure-scatter channel
        assert validate_config(make_config(k_factor_sub6_db=-4000.0)) == []

    @pytest.mark.parametrize("spacing", [0.0, -0.5])
    @pytest.mark.parametrize("section", ["sub6", "mmw"])
    def test_element_spacing_must_be_positive(self, section, spacing):
        cfg = with_field(make_config(), section, "element_spacing_wavelengths", spacing)
        assert validate_config(cfg) == [
            f"[{section}] element_spacing_wavelengths must be > 0"
        ]

    def test_wavelength_derived(self):
        cfg = default_config()
        assert cfg.mmw.wavelength_m == pytest.approx(1.176e-2, rel=1e-3)
        assert cfg.sub6.wavelength_m == pytest.approx(11.76e-2, rel=1e-3)

    def test_noise_power_follows_snr(self):
        cfg = default_config(snr_db_mmw=10.0)
        assert cfg.noise_power(Band.MMWAVE) == pytest.approx(0.1)
        assert cfg.noise_power(Band.SUB6) == pytest.approx(
            cfg.sub6.tx_power_watt / 10 ** (cfg.snr_db_sub6 / 10)
        )

    def test_mmw_k_factor_scales(self):
        cfg = default_config(k_factor_sub6_db=10.0, k_factor_scale_db=3.0)
        assert cfg.k_factor_mmw_db == pytest.approx(13.0)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = default_config(
            k_factor_sub6_db=12.5, velocity_mps=33.333, master_seed=987654321
        )
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_round_trip_mini(self, tmp_path):
        cfg = make_config(k_p=4, estimation_method=Method.OOBA_MRC)
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        text = path.read_text() + "\nmystery_knob = 3\n"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown key 'mystery_knob'"):
            load_config(str(path))

    @pytest.mark.parametrize("breakage", sorted(MALFORMED_INI))
    def test_malformed_ini_rejected(self, breakage, tmp_path):
        path = tmp_path / "cfg.ini"
        save_config(default_config(), str(path))
        path.write_text(MALFORMED_INI[breakage](path.read_text()))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_shipped_config_is_the_table1_default(self):
        cfg = load_config(SHIPPED_CONFIG)
        assert cfg == default_config(k_factor_sub6_db=20.0)
        assert validate_config(cfg) == []

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[sim]\n[sub6]\n[mmw]\n[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(str(path))

    def test_missing_key_rejected(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        lines = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("velocity_mps")
        ]
        path.write_text("\n".join(lines))
        with pytest.raises(ConfigError, match="missing keys.*velocity_mps"):
            load_config(str(path))

    def test_bad_method_rejected(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.ini"
        save_config(cfg, str(path))
        path.write_text(
            path.read_text().replace(
                "estimation_method = conventional", "estimation_method = psychic"
            )
        )
        with pytest.raises(ConfigError, match="estimation_method"):
            load_config(str(path))


class TestWithPilotSymbols:
    def test_preserves_data_symbols(self):
        cfg = default_config()  # K_P=2, K_D=7
        for k_p in (1, 2, 4):
            out = apply_point(cfg, {"pilot_k_p": k_p})
            assert out.n_symbols(Band.MMWAVE) == 2 * k_p + 7
            assert out.n_symbols(Band.SUB6) == 2 * k_p
            assert validate_config(out) == []


class TestSeedTree:
    def test_deterministic(self):
        tree = SeedTree(42)
        a = tree.derive(0, "sub6", "stochastic")
        b = tree.derive(0, "sub6", "stochastic")
        assert a == b

    def test_realization_changes_seed(self):
        tree = SeedTree(42)
        assert tree.derive(0, "sub6", "x") != tree.derive(1, "sub6", "x")

    def test_master_changes_seed(self):
        assert SeedTree(42).derive(0, "mmw", "x") != SeedTree(43).derive(0, "mmw", "x")

    def test_band_and_purpose_change_seed(self):
        tree = SeedTree(7)
        seeds = {
            tree.derive(0, band, purpose)
            for band in ("sub6", "mmw", "shared")
            for purpose in ("stochastic", "pilots", "train_noise")
        }
        assert len(seeds) == 9

    def test_table_identical_across_threads(self):
        tree = SeedTree(123456789)
        serial = [tree.derive(r, "mmw", "stochastic") for r in range(1000)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(lambda r: tree.derive(r, "mmw", "stochastic"), range(1000))
            )
        assert serial == parallel
        assert len(set(serial)) == 1000

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=10_000),
        st.text(min_size=0, max_size=12),
    )
    def test_derivation_pure_and_in_range(self, master, realization, purpose):
        tree = SeedTree(master)
        seed = tree.derive(realization, "mmw", purpose)
        assert 0 <= seed < 2**64
        assert seed == SeedTree(master).derive(realization, "mmw", purpose)
