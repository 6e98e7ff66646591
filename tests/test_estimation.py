"""LS estimation, K-factor moments, angle search, out-of-band reconstruction."""

from dataclasses import replace

import numpy as np
import pytest

from mmlink.core import Band
from mmlink.channel import (
    JakesProcess,
    make_tdl_profile,
    sample_geometry,
    steering_vector,
    stochastic_channel,
    synthesize_band,
)
from mmlink.estimation import (
    estimate_angles,
    estimate_k_factor,
    ls_estimate,
    oob_aided_estimate,
)
from mmlink.pilots import FORWARD, REVERSE, build_pilot_grid, transmit_training

from conftest import make_band, make_config
from oracles import ls_per_antenna


def run_ls(h, band, k_p, noise_power=0.0, seed=0, direction=FORWARD):
    grid = build_pilot_grid(band, k_p, np.random.default_rng(100 + seed))
    obs = transmit_training(h, grid, noise_power, np.random.default_rng(seed))
    return ls_estimate(obs, grid, direction=direction), grid


def rank1_channel(band, aod, aoa, gain=1.0):
    a_tx = steering_vector(band.m_tx, band.element_spacing_wavelengths, aod)
    a_rx = steering_vector(band.m_rx, band.element_spacing_wavelengths, aoa)
    return gain * np.outer(a_rx, np.conj(a_tx))


class TestLsEstimate:
    def test_flat_noiseless_exact(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        h0 = rank1_channel(band, 0.3, -0.5, gain=1.3 - 0.2j)
        h = np.broadcast_to(h0[:, :, None, None], (8, 8, 32, 11)).copy()
        for k_p in (1, 2, 4):
            est, _ = run_ls(h, band, k_p)
            assert np.allclose(est, h[:, :, :, 0], atol=1e-12)

    def test_exact_at_pilot_subcarriers_selective(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        rng = np.random.default_rng(11)
        profile = make_tdl_profile(band.rms_delay_spread_s, n_taps=4,
                                   specular_fraction=0.0)
        jakes = JakesProcess.sample((8, 8, 4), 0.0, rng)
        hsel = stochastic_channel(profile, band, jakes, np.array([1]))
        h = np.broadcast_to(hsel, (8, 8, 32, 11)).copy()
        for k_p in (1, 2, 4):
            est, grid = run_ls(h, band, k_p)
            for t in range(8):
                pilots = grid.fwd.subcarriers(t)
                assert np.allclose(
                    est[:, t, pilots], h[:, t, pilots, 0], atol=1e-10
                )

    def test_interpolation_exact_for_affine(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        n = np.arange(32)
        a = np.full((8, 8), 0.4 + 0.2j)
        b = np.full((8, 8), -0.01 + 0.03j)
        h = a[:, :, None] + b[:, :, None] * n[None, None, :]
        h = np.broadcast_to(h[:, :, :, None], (8, 8, 32, 11)).copy()
        est, grid = run_ls(h, band, 2)
        for t in range(8):
            pilots = grid.fwd.subcarriers(t)
            inside = slice(pilots[0], pilots[-1] + 1)
            assert np.allclose(est[:, t, inside], h[:, t, inside, 0], atol=1e-10)

    def test_two_tap_interpolation_error_bounded_by_curvature(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        profile = make_tdl_profile(400e-9, n_taps=2)
        rng = np.random.default_rng(4)
        jakes = JakesProcess.sample((8, 8, 2), 0.0, rng)
        h0 = stochastic_channel(profile, band, jakes, np.array([1]))
        h = np.broadcast_to(h0, (8, 8, 32, 11)).copy()
        est, grid = run_ls(h, band, 4)  # comb stride 2
        err = np.abs(est - h[:, :, :, 0])
        for t in range(8):
            pilots = grid.fwd.subcarriers(t)
            assert np.max(err[:, t, pilots]) < 1e-10
        # linear interpolation error <= curvature * stride^2 / 8, with the
        # curvature of a two-tap response bounded per antenna pair by
        # |g_1| (2 pi df tau)^2
        df = band.subcarrier_spacing_hz
        tau = profile.delays_s[1]
        g1 = np.abs(jakes.gains(np.array([1.0 / df]))[:, :, 1, 0]) * np.sqrt(
            profile.powers[1]
        )
        bound = g1 * (2 * np.pi * df * tau) ** 2 * (2**2) / 8.0
        for t in range(8):
            pilots = grid.fwd.subcarriers(t)
            interior = slice(pilots[0], pilots[-1] + 1)
            assert np.all(
                err[:, t, interior].max(axis=1) <= bound[:, t] * 1.01 + 1e-12
            )

    def test_edge_hold_beyond_outermost_pilot(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16)
        n = np.arange(16)
        h = (1.0 + 0.1 * n)[None, None, :] * np.ones((8, 8, 1))
        h = np.broadcast_to(h[:, :, :, None], (8, 8, 16, 11)).copy().astype(complex)
        est, grid = run_ls(h, band, 1)
        # antenna 7 has pilots at {7, 15}: below 7 the estimate holds h[7]
        t = 7
        assert np.allclose(est[:, t, :7], h[:, t, 7:8, 0])

    def test_noise_only_energy(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        h = np.zeros((8, 8, 32, 11), dtype=complex)
        sigma2 = 0.3
        energy = 0.0
        count = 0
        for seed in range(60):
            est, grid = run_ls(h, band, 2, noise_power=sigma2, seed=seed)
            for t in range(8):
                pilots = grid.fwd.subcarriers(t)
                energy += np.sum(np.abs(est[:, t, pilots]) ** 2)
                count += est[:, t, pilots].size
        # unit-modulus pilots make the LS noise variance sigma_w^2 per entry
        assert energy / count == pytest.approx(sigma2, rel=0.05)

    def test_error_energy_scales_with_noise(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32)
        h0 = rank1_channel(band, 0.2, 0.1)
        h = np.broadcast_to(h0[:, :, None, None], (8, 8, 32, 11)).copy()
        sigmas = [1e-2, 1e-1, 1.0, 10.0]
        errors = []
        for sigma2 in sigmas:
            err = 0.0
            count = 0
            for seed in range(30):
                est, grid = run_ls(h, band, 2, noise_power=sigma2, seed=seed)
                for t in range(8):
                    pilots = grid.fwd.subcarriers(t)
                    err += np.sum(
                        np.abs(est[:, t, pilots] - h[:, t, pilots, 0]) ** 2
                    )
                    count += pilots.size * 8
            errors.append(err / count)
        slopes = np.diff(np.log10(errors)) / np.diff(np.log10(sigmas))
        assert np.allclose(slopes, 1.0, atol=0.05)

    @pytest.mark.parametrize("direction", [FORWARD, REVERSE])
    @pytest.mark.parametrize(
        "m_tx, m_rx, k_p",
        [(8, 8, 1), (8, 8, 2), (8, 8, 4), (4, 8, 1), (4, 8, 2), (4, 8, 4),
         (8, 4, 1), (8, 4, 2), (8, 4, 4), (6, 6, 1), (6, 6, 2)],
    )
    def test_matches_per_antenna_oracle(self, m_tx, m_rx, k_p, direction):
        # (6, 6, 2) is a comb of group size 3; 48 subcarriers tile all
        band = make_band(Band.MMWAVE, n_subcarriers=48, m_tx=m_tx, m_rx=m_rx)
        rng = np.random.default_rng(m_tx + 10 * m_rx + 100 * k_p)
        shape = (m_rx, m_tx, 48, 2 * k_p)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid = build_pilot_grid(band, k_p, np.random.default_rng(1))
        obs = transmit_training(h, grid, 0.1, np.random.default_rng(2))
        est = ls_estimate(obs, grid, direction=direction)
        assert np.array_equal(est, ls_per_antenna(obs, grid, direction))
        # downstream sums depend on memory order: forward is C-contiguous,
        # reverse the transposed view of a C-contiguous reciprocal estimate
        stored = est if direction == FORWARD else est.transpose(1, 0, 2)
        assert stored.flags.c_contiguous

    def test_reverse_direction_returns_forward_orientation(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=4, m_rx=4)
        rng = np.random.default_rng(2)
        h0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = np.broadcast_to(h0[:, :, None, None], (4, 4, 16, 9)).copy()
        est, _ = run_ls(h, band, 1, direction=REVERSE)
        assert est.shape == (4, 4, 16)
        assert np.allclose(est, h[:, :, :, 0], atol=1e-12)


class TestKFactor:
    def test_flat_envelope_clamps_high(self):
        band = make_band(Band.MMWAVE)
        est = np.broadcast_to(
            rank1_channel(band, 0.3, 0.2)[:, :, None], (8, 8, 32)
        ).copy()
        assert estimate_k_factor(est) == pytest.approx(1e6)

    def test_rayleigh_reads_near_zero(self):
        medians = []
        for seed in range(500):
            rng = np.random.default_rng(seed)
            h = (
                rng.standard_normal((4, 4, 336))
                + 1j * rng.standard_normal((4, 4, 336))
            ) / np.sqrt(2)
            medians.append(estimate_k_factor(h))
        assert np.median(medians) < 0.3

    def test_rician_10db_recovered(self):
        # synthetic Rician channels: flat LOS plus selective scatter
        estimates = []
        kappa = 10.0
        for seed in range(500):
            rng = np.random.default_rng(seed)
            band = make_band(Band.SUB6, n_subcarriers=64, m_tx=4, m_rx=4)
            aod, aoa = rng.uniform(-1.2, 1.2, 2)
            chi = rng.uniform(-np.pi, np.pi)
            los = rank1_channel(band, aod, aoa, gain=np.exp(1j * chi))
            profile = make_tdl_profile(band.rms_delay_spread_s, specular_fraction=0.0)
            jakes = JakesProcess.sample((4, 4, profile.n_taps), 0.0, rng)
            sp = stochastic_channel(profile, band, jakes, np.array([1]))[:, :, :, 0]
            h = np.sqrt(kappa / 11.0) * los[:, :, None] + np.sqrt(1.0 / 11.0) * sp
            estimates.append(estimate_k_factor(h))
        med_db = 10 * np.log10(np.median(estimates))
        assert 7.0 <= med_db <= 13.0

    @pytest.mark.parametrize(
        "true_db, low, high", [(0.0, 4.5, 6.0), (10.0, 12.5, 14.5)]
    )
    def test_specular_ray_reads_as_los(self, true_db, low, high):
        # Known deviation: synthesize_band's rank-1 specular ray carries half
        # the scattered power at zero delay, and the moment estimator counts
        # it as line of sight. Noiseless 4x4 sub-6 channels, N = 128.
        cfg = make_config(n_subcarriers=128, k_factor_sub6_db=true_db)
        cfg = replace(cfg, sub6=replace(cfg.sub6, m_tx=4, m_rx=4))
        estimates = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            geom = sample_geometry(rng, cfg.sub6, cfg.mmw, 0.0)
            h = synthesize_band(cfg, Band.SUB6, geom, rng)
            estimates.append(estimate_k_factor(h[:, :, :, 0]))
        assert low <= 10 * np.log10(np.median(estimates)) <= high

    def test_insufficient_samples(self):
        est = np.ones((2, 2, 1), dtype=complex)
        with pytest.raises(ValueError, match="insufficient samples"):
            estimate_k_factor(est)


class TestEstimateAngles:
    def test_recovers_los_angles(self):
        band = make_band(Band.SUB6, n_subcarriers=32)
        aod, aoa = np.radians(20.0), np.radians(-35.0)
        h = np.broadcast_to(
            rank1_channel(band, aod, aoa)[:, :, None], (8, 8, 32)
        ).copy()
        got_aod, got_aoa = estimate_angles(h, band)
        assert abs(np.degrees(got_aod) - 20.0) < 0.5
        assert abs(np.degrees(got_aoa) + 35.0) < 0.5

    def test_zero_angles_exact_grid_point(self):
        band = make_band(Band.SUB6, n_subcarriers=16)
        h = np.broadcast_to(
            rank1_channel(band, 0.0, 0.0)[:, :, None], (8, 8, 16)
        ).copy()
        aod, aoa = estimate_angles(h, band)
        assert aod == 0.0
        assert aoa == 0.0

    def test_honours_element_spacing(self):
        # quarter-wavelength sub-6 array; a half-wavelength search reads the
        # sines at half their size, (0.148, -0.286) rad
        band = replace(
            make_band(Band.SUB6, n_subcarriers=16), element_spacing_wavelengths=0.25
        )
        h = np.broadcast_to(rank1_channel(band, 0.3, -0.6)[:, :, None], (8, 8, 16))
        aod, aoa = estimate_angles(h, band)
        assert aod == pytest.approx(0.3, abs=2e-3)
        assert aoa == pytest.approx(-0.6, abs=2e-3)

    def test_pure_scatter_stays_in_range(self, rng):
        h = rng.standard_normal((8, 8, 16)) + 1j * rng.standard_normal((8, 8, 16))
        aod, aoa = estimate_angles(h, make_band(Band.SUB6))
        assert np.isfinite(aod) and np.isfinite(aoa)
        assert -np.pi / 2 <= aod <= np.pi / 2
        assert -np.pi / 2 <= aoa <= np.pi / 2

    def test_global_phase_invariance(self, rng):
        band = make_band(Band.SUB6, n_subcarriers=16)
        h = np.broadcast_to(
            rank1_channel(band, 0.5, -0.2)[:, :, None], (8, 8, 16)
        ).copy()
        h = h + 0.1 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        rotated = h * np.exp(1j * 1.234)
        a = estimate_angles(h, band)
        b = estimate_angles(rotated, band)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)


class TestOobAidedEstimate:
    def test_fixed_point(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16)
        aod, aoa = 0.4, -0.7
        atom = rank1_channel(band, aod, aoa)
        inband = np.broadcast_to((2.5 - 1j) * atom[:, :, None], (8, 8, 16)).copy()
        out = oob_aided_estimate((aod, aoa), inband, band)
        assert np.allclose(out, inband, atol=1e-10)

    def test_orthogonal_component_rejected(self):
        band = make_band(Band.MMWAVE, n_subcarriers=8, m_tx=4, m_rx=4)
        atom = rank1_channel(band, 0.0, 0.0)
        # orthogonal steering pair: sin spaced by 2/M on a half-wavelength array
        other = rank1_channel(band, np.arcsin(0.5), np.arcsin(0.5))
        assert abs(np.vdot(atom, other)) < 1e-10
        inband = np.broadcast_to((atom + other)[:, :, None], (4, 4, 8)).copy()
        out = oob_aided_estimate((0.0, 0.0), inband, band)
        assert np.allclose(out, np.broadcast_to(atom[:, :, None], (4, 4, 8)))

    def test_recovers_pure_los_channel(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16)
        aod, aoa = np.radians(14.0), np.radians(-52.0)
        h = np.broadcast_to(
            rank1_channel(band, aod, aoa, gain=0.8 + 0.6j)[:, :, None], (8, 8, 16)
        ).copy()
        out = oob_aided_estimate((aod, aoa), h, band)
        rel = np.linalg.norm(out - h) / np.linalg.norm(h)
        assert rel < 1e-3

    def test_output_rank_one_and_flat(self, rng):
        band = make_band(Band.MMWAVE, n_subcarriers=16)
        h = rng.standard_normal((8, 8, 16)) + 1j * rng.standard_normal((8, 8, 16))
        out = oob_aided_estimate((0.2, 0.3), h, band)
        assert np.allclose(out, out[:, :, :1])
        s = np.linalg.svd(out[:, :, 0], compute_uv=False)
        assert np.all(s[1:] < 1e-10 * max(s[0], 1e-30))

    def test_row_subset_projection(self):
        band = make_band(Band.MMWAVE, n_subcarriers=8, m_tx=4, m_rx=4)
        atom = rank1_channel(band, 0.3, -0.1)
        h = np.broadcast_to((1.5 + 0.5j) * atom[:, :, None], (4, 4, 8)).copy()
        # corrupt the rows outside the projection set; result must not change
        h[2:] += 10.0
        out = oob_aided_estimate((0.3, -0.1), h, band, rx_rows=np.array([0, 1]))
        expected = (1.5 + 0.5j) * atom
        assert np.allclose(out[:, :, 0], expected, atol=1e-10)

    def test_non_finite_angles_rejected(self):
        band = make_band(Band.MMWAVE, n_subcarriers=8)
        inband = np.ones((8, 8, 8), dtype=complex)
        with pytest.raises(ValueError):
            oob_aided_estimate((np.nan, 0.0), inband, band)
