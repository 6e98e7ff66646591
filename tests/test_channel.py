"""Channel synthesis: steering, delay profiles, Jakes dynamics, composition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import j0

from mmlink.core import Band
from mmlink.channel import (
    SPECULAR_FRACTION,
    JakesProcess,
    PlaneWave,
    compose_channel,
    los_sequence,
    make_tdl_profile,
    sample_geometry,
    steering_vector,
    stochastic_channel,
    synthesize_band,
)

from conftest import make_band, make_config
from oracles import jakes_autocorrelation


def make_geom(aod=0.0, aoa=0.0, chi_s=0.0, chi_m=0.0, nu_s=0.0, nu_m=0.0):
    return {
        Band.SUB6: PlaneWave(aod, aoa, chi_s, nu_s),
        Band.MMWAVE: PlaneWave(aod, aoa, chi_m, nu_m),
    }


class TestSteeringVector:
    def test_broadside_all_ones(self):
        assert np.allclose(steering_vector(4, 0.5, 0.0), np.ones(4))

    def test_endfire_alternates(self):
        v = steering_vector(2, 0.5, np.pi / 2)
        assert np.allclose(v, [1.0, -1.0], atol=1e-12)

    def test_matches_formula_and_norm(self):
        m = np.arange(8)
        expected = np.exp(-1j * np.pi * m * 0.5)  # sin(30deg) = 0.5
        v = steering_vector(8, 0.5, np.pi / 6)
        assert np.allclose(v, expected)
        assert np.linalg.norm(v) ** 2 == pytest.approx(8.0)

    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=-np.pi / 2, max_value=np.pi / 2),
    )
    def test_unit_modulus_and_norm(self, n, angle):
        v = steering_vector(n, 0.5, angle)
        assert np.allclose(np.abs(v), 1.0)
        assert np.linalg.norm(v) ** 2 == pytest.approx(n)
        assert v[0] == 1.0

    @pytest.mark.parametrize("spacing", [0.25, 0.5, 0.7])
    def test_angle_array_gives_one_column_per_angle(self, spacing):
        # the estimate_angles dictionary: bit-equal to one call per angle
        angles = np.linspace(-np.pi / 2, np.pi / 2, 181)
        loop = np.stack([steering_vector(8, spacing, a) for a in angles], axis=1)
        assert np.array_equal(steering_vector(8, spacing, angles), loop)


class TestFreeSpace:
    def test_zero_angles_all_ones(self):
        band = make_band(Band.MMWAVE)
        h = los_sequence(make_geom()[Band.MMWAVE], band, np.array([1]))
        assert np.allclose(h, np.ones((8, 8, 1)))

    def test_rank_one(self, rng):
        band = make_band(Band.MMWAVE)
        geom = make_geom(aod=0.4, aoa=-0.8, chi_m=1.1, nu_m=300.0)
        h = los_sequence(geom[Band.MMWAVE], band, np.array([3]))[:, :, 0]
        s = np.linalg.svd(h, compute_uv=False)
        assert s[0] == pytest.approx(np.sqrt(8 * 8))
        assert np.all(s[1:] < 1e-10)
        assert np.linalg.norm(h) ** 2 == pytest.approx(64.0)

    def test_doppler_phasor_ratio(self):
        band = make_band(Band.MMWAVE)
        nu = band.subcarrier_spacing_hz / 4.0
        geom = make_geom(aod=0.2, aoa=0.3, nu_m=nu)
        h = los_sequence(geom[Band.MMWAVE], band, np.array([1, 3]))
        assert np.allclose(h[:, :, 1] / h[:, :, 0], np.exp(1j * np.pi))


class TestTdlProfile:
    def test_zero_spread_single_tap(self):
        p = make_tdl_profile(0.0, n_taps=12)
        assert p.n_taps == 1
        assert p.delays_s[0] == 0.0
        assert p.powers[0] == 1.0

    def test_rms_matches_target(self):
        p = make_tdl_profile(841e-9, n_taps=12)
        # oracle: sqrt(sum(p*tau^2) - (sum(p*tau))^2)
        mean = np.sum(p.powers * p.delays_s)
        rms = np.sqrt(np.sum(p.powers * p.delays_s**2) - mean**2)
        assert 840.2e-9 <= rms <= 841.8e-9

    def test_powers_sum_to_one(self):
        for sigma in (100e-9, 841e-9, 1148e-9):
            p = make_tdl_profile(sigma)
            assert np.sum(p.powers) == pytest.approx(1.0, abs=1e-12)
            assert np.all(p.powers >= 0)

    def test_two_tap_profile(self):
        p = make_tdl_profile(500e-9, n_taps=2)
        assert p.n_taps == 2
        assert p.rms_delay_spread_s() == pytest.approx(500e-9, rel=1e-3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_tdl_profile(-1e-9)
        with pytest.raises(ValueError):
            make_tdl_profile(1e-9, n_taps=0)
        with pytest.raises(ValueError):
            make_tdl_profile(1e-9, specular_fraction=1.0)


class TestJakes:
    def test_mean_power_long_sequence(self, rng):
        # 50 independent link processes x 2048 samples >= 1e5 samples
        jakes = JakesProcess.sample((50,), 100.0, rng)
        times = np.arange(2048) * 5e-3
        g = jakes.gains(times)
        assert g.size >= 100_000
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_zero_doppler_constant(self, rng):
        jakes = JakesProcess.sample((2, 2), 0.0, rng)
        g = jakes.gains(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(g, g[..., :1])

    def test_autocorrelation_lag_zero(self, rng):
        jakes = JakesProcess.sample((), 50.0, rng)
        r = jakes_autocorrelation(jakes, np.array([0.0, 1e-3]))
        assert r[0] == pytest.approx(1.0)

    def test_autocorrelation_matches_bessel(self):
        # averaged over 200 draws: within +/-0.05 of J0(2 pi nu tau)
        nu_max = 100.0
        nt = np.array([0.1, 0.3827])
        lags = nt / nu_max
        acc = np.zeros(len(lags))
        for i in range(200):
            jakes = JakesProcess.sample(
                (), nu_max, np.random.Generator(np.random.PCG64(i))
            )
            acc += jakes_autocorrelation(jakes, lags)
        acc /= 200
        ref = j0(2 * np.pi * nt)
        assert ref[1] == pytest.approx(0.0, abs=5e-3)  # first Bessel zero
        assert np.all(np.abs(acc - ref) < 0.05)


class TestStochasticChannel:
    def test_static_constant_over_symbols(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16)
        profile = make_tdl_profile(band.rms_delay_spread_s)
        jakes = JakesProcess.sample((8, 8, profile.n_taps), 0.0, rng)
        h = stochastic_channel(profile, band, jakes, np.arange(1, 6))
        assert np.allclose(h, h[..., :1])

    def test_single_tap_frequency_flat(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16, rms_delay_spread_s=0.0)
        profile = make_tdl_profile(0.0)
        jakes = JakesProcess.sample((8, 8, 1), 0.0, rng)
        h = stochastic_channel(profile, band, jakes, np.array([1]))
        assert np.allclose(h, h[:, :, :1, :])

    def test_unit_mean_power(self):
        band = make_band(Band.MMWAVE, n_subcarriers=8, m_tx=4, m_rx=4)
        profile = make_tdl_profile(band.rms_delay_spread_s)
        total, count = 0.0, 0
        for seed in range(40):
            g = np.random.Generator(np.random.PCG64(seed))
            jakes = JakesProcess.sample((4, 4, profile.n_taps), 0.0, g)
            h = stochastic_channel(profile, band, jakes, np.array([1]))
            total += np.sum(np.abs(h) ** 2)
            count += h.size
        assert total / count == pytest.approx(1.0, abs=0.02)

    def test_matches_bruteforce_two_taps(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=2, m_rx=2)
        profile = make_tdl_profile(300e-9, n_taps=2)
        jakes = JakesProcess.sample((2, 2, 2), 40.0, rng)
        symbols = np.arange(1, 4)
        h = stochastic_channel(profile, band, jakes, symbols)
        g = jakes.gains(symbols / band.subcarrier_spacing_hz)
        n = np.arange(band.n_subcarriers)
        f_n = (n - (band.n_subcarriers - 1) / 2) * band.subcarrier_spacing_hz
        for r in range(2):
            for t in range(2):
                for ni, f in enumerate(f_n):
                    for ki in range(3):
                        ref = sum(
                            g[r, t, tap, ki]
                            * np.sqrt(profile.powers[tap])
                            * np.exp(-2j * np.pi * f * profile.delays_s[tap])
                            for tap in range(2)
                        )
                        assert abs(h[r, t, ni, ki] - ref) < 1e-10 * max(abs(ref), 1)

    def test_specular_power_split(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=4, m_rx=4)
        profile = make_tdl_profile(841e-9, specular_fraction=0.5)
        tap = PlaneWave(aod_rad=0.3, aoa_rad=-0.2, phase_rad=1.0, doppler_hz=0.0)
        total, count = 0.0, 0
        for seed in range(60):
            g = np.random.Generator(np.random.PCG64(seed))
            jakes = JakesProcess.sample((4, 4, profile.n_taps), 0.0, g)
            h = stochastic_channel(profile, band, jakes, np.array([1]), tap)
            total += np.sum(np.abs(h) ** 2)
            count += h.size
        assert total / count == pytest.approx(1.0, abs=0.03)

    def test_specular_exceeding_tap_power_rejected(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=2, m_rx=2)
        # the ray carries SPECULAR_FRACTION, more than this zero-delay tap holds
        profile = make_tdl_profile(300e-9, n_taps=4, specular_fraction=0.2)
        assert profile.powers[0] < SPECULAR_FRACTION
        jakes = JakesProcess.sample((2, 2, 4), 0.0, rng)
        tap = PlaneWave(aod_rad=0.0, aoa_rad=0.0, phase_rad=0.0, doppler_hz=0.0)
        with pytest.raises(ValueError, match="specular power"):
            stochastic_channel(profile, band, jakes, np.array([1]), tap)


class TestComposeChannel:
    def test_los_only_limit(self, rng):
        los = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        sp = rng.standard_normal((2, 2, 4, 3)) + 1j * rng.standard_normal((2, 2, 4, 3))
        out = compose_channel(los, sp, 1e12)
        assert np.allclose(out, los[:, :, None, :], atol=1e-5)

    def test_nlos_limit(self, rng):
        los = np.ones((2, 2, 3), dtype=complex)
        sp = rng.standard_normal((2, 2, 4, 3)) + 1j * rng.standard_normal((2, 2, 4, 3))
        assert np.allclose(compose_channel(los, sp, 0.0), sp)

    def test_equal_split(self, rng):
        los = rng.standard_normal((2, 2, 4, 3)) + 1j * rng.standard_normal((2, 2, 4, 3))
        sp = rng.standard_normal((2, 2, 4, 3)) + 1j * rng.standard_normal((2, 2, 4, 3))
        out = compose_channel(los, sp, 1.0)
        assert np.linalg.norm(out - (los + sp) / np.sqrt(2)) == pytest.approx(0.0, abs=1e-12)

    def test_linear_and_weight_swap(self, rng):
        los = rng.standard_normal((2, 2, 1, 2)) + 0j
        sp = rng.standard_normal((2, 2, 1, 2)) + 0j
        kappa = 3.7
        a = compose_channel(los, sp, kappa)
        b = compose_channel(sp, los, 1.0 / kappa)
        assert np.allclose(a, b)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            compose_channel(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1, 1)), -0.1)


class TestGeometry:
    def test_angle_distribution(self, rng):
        cfg = make_config()
        aods = []
        for _ in range(10_000):
            geom = sample_geometry(rng, cfg.sub6, cfg.mmw, 10.0)
            assert geom[Band.SUB6].aod_rad == geom[Band.MMWAVE].aod_rad
            aods.append(geom[Band.MMWAVE].aod_rad)
        aods = np.asarray(aods)
        assert np.all(np.abs(aods) <= np.pi / 2)
        assert abs(np.degrees(np.mean(aods))) < 3.0

    def test_zero_velocity_zero_doppler(self, rng):
        cfg = make_config()
        geom = sample_geometry(rng, cfg.sub6, cfg.mmw, 0.0)
        assert geom[Band.SUB6].doppler_hz == 0.0
        assert geom[Band.MMWAVE].doppler_hz == 0.0

    def test_doppler_magnitude(self, rng):
        cfg = make_config()
        geom = sample_geometry(rng, cfg.sub6, cfg.mmw, 30.0)
        nu_max = 30.0 / cfg.mmw.wavelength_m
        assert nu_max == pytest.approx(2551.0, rel=2e-3)
        los = geom[Band.MMWAVE]
        assert los.doppler_hz == pytest.approx(nu_max * np.cos(los.aoa_rad), rel=1e-12)


class TestSynthesizeBand:
    def test_static_constant_and_power(self, rng):
        cfg = make_config(k_p=2, k_factor_sub6_db=0.0)
        tensor = synthesize_band(cfg, Band.MMWAVE, make_geom(), rng)
        assert tensor.shape == (8, 8, 32, 11)
        assert np.allclose(tensor, tensor[..., :1])
        assert np.all(np.isfinite(tensor))

    def test_cross_band_independence(self):
        # sibling seeds give uncorrelated sub-6 / mmWave stochastic parts
        from mmlink.core import SeedTree

        cfg = make_config(k_factor_sub6_db=-100.0)  # scattered part only
        tree = SeedTree(99)
        acc = 0.0
        power_s = power_m = 0.0
        count = 0
        for r in range(12):
            geom = sample_geometry(
                tree.rng(r, "shared", "geometry"), cfg.sub6, cfg.mmw, 0.0
            )
            hs = synthesize_band(cfg, Band.SUB6, geom, tree.rng(r, "sub6", "stochastic"))
            hm = synthesize_band(cfg, Band.MMWAVE, geom, tree.rng(r, "mmw", "stochastic"))
            a = hs[:, :, :, 0].ravel()
            b = hm[:, :, :, 0].ravel()
            acc += np.sum(a * np.conj(b))
            power_s += np.sum(np.abs(a) ** 2)
            power_m += np.sum(np.abs(b) ** 2)
            count += a.size
        corr = abs(acc) / np.sqrt(power_s * power_m)
        assert count >= 10_000
        assert corr < 0.05
