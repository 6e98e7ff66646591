"""Gain matrices, error covariance, SINR and spectral efficiency."""

import numpy as np
import pytest

from mmlink.metrics import (
    evaluate_link,
    perfect_gain_diagonals,
    sinr_per_stream,
    spectral_efficiency,
)
from mmlink.transceiver import design_link

from oracles import closed_form_se, error_covariance, gain_matrix


class TestGainMatrix:
    def test_perfect_design_is_diagonal(self, rng):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = design_link(h[:, :, None], 1.0, 0.3)
        g = gain_matrix(h, d.combiner[0], d.precoder[0], d.power[0])
        expected = np.diag(d.singular_values[0] * np.sqrt(d.power[0]))
        assert np.allclose(g, expected, atol=1e-10)

    def test_zero_power_zero_gain(self, rng):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = design_link(h[:, :, None], 1.0, 0.3)
        g = gain_matrix(h, d.combiner[0], d.precoder[0], np.zeros(4))
        assert np.allclose(g, 0.0)

    def test_hand_computed_two_by_two(self):
        h = np.array([[1.0, 1j], [0.0, 2.0]])
        q = np.eye(2, dtype=complex)
        f = np.eye(2, dtype=complex)
        p = np.array([4.0, 1.0])
        g = gain_matrix(h, q, f, p)
        assert np.allclose(g, np.array([[2.0, 1j], [0.0, 2.0]]))


class TestErrorCovariance:
    def test_zero_error(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(error_covariance(g, g), 0.0)

    def test_single_row_structure(self):
        eps = np.zeros((4, 4), dtype=complex)
        eps[2] = [1.0, 1j, -1.0, 0.5]
        c = 1.0 + 1.0 + 1.0 + 0.25
        out = error_covariance(eps, np.zeros((4, 4), dtype=complex))
        assert out[2] == pytest.approx(c / 4)
        assert np.allclose(np.delete(out, 2), 0.0)

    def test_matches_bruteforce(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        eps = a - b
        brute = np.real(np.diag(eps @ eps.conj().T)) / 3
        assert np.allclose(error_covariance(a, b), brute)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_covariance(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSinr:
    def test_diagonal_no_interference(self):
        g = np.diag([2.0, 1.0 + 1j]).astype(complex)
        q = np.eye(2, dtype=complex)
        sinr = sinr_per_stream(g, q, np.zeros(2), 0.5)
        assert np.allclose(sinr, [4.0 / 0.5, 2.0 / 0.5])

    def test_hand_example_with_leakage(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        q = np.eye(2, dtype=complex)
        sinr = sinr_per_stream(g, q, np.zeros(2), 1.0)
        assert np.allclose(sinr, [0.5, 1.0])

    def test_all_zero_gain(self):
        g = np.zeros((3, 3), dtype=complex)
        q = np.eye(3, dtype=complex)
        assert np.allclose(sinr_per_stream(g, q, np.zeros(3), 1.0), 0.0)

    def test_error_variance_adds_to_noise(self):
        g = np.diag([2.0, 2.0]).astype(complex)
        q = np.eye(2, dtype=complex)
        a = sinr_per_stream(g, q, np.array([0.0, 3.0]), 1.0)
        assert np.allclose(a, [4.0, 1.0])


class TestSpectralEfficiency:
    def test_unit_sinr_eight_streams(self):
        grid = np.ones((5, 3, 8))
        assert spectral_efficiency(grid).se_bits_per_s_per_hz == pytest.approx(8.0)

    def test_zero_sinr(self):
        assert spectral_efficiency(np.zeros((2, 2, 4))).se_bits_per_s_per_hz == 0.0

    def test_single_cell_sum(self):
        grid = np.array([3.0, 1.0]).reshape(1, 1, 2)
        assert spectral_efficiency(grid).se_bits_per_s_per_hz == pytest.approx(3.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency(np.zeros((0, 1, 2)))
        with pytest.raises(ValueError):
            spectral_efficiency(np.zeros((2, 2)))

    def test_upper_bound(self, rng):
        # loose cap: L * log2(1 + P * m_rx * m_tx / sigma2)
        h = rng.standard_normal((4, 4, 6)) + 1j * rng.standard_normal((4, 4, 6))
        d = design_link(h, 1.0, 0.1)
        res = evaluate_link(h[:, :, :, None], d, 0.1)
        cap = 4 * np.log2(1 + 1.0 * 16 / 0.1)
        assert 0.0 <= res.se_bits_per_s_per_hz <= cap


class TestEvaluateLink:
    def test_perfect_static_matches_closed_form(self, rng):
        h = rng.standard_normal((8, 8, 12)) + 1j * rng.standard_normal((8, 8, 12))
        noise = 0.4
        d = design_link(h, 1.0, noise)
        res = evaluate_link(h[:, :, :, None], d, noise)
        assert res.se_bits_per_s_per_hz == pytest.approx(
            closed_form_se(d, noise), abs=1e-9
        )

    def test_perfect_gain_diagonals_match_design(self, rng):
        h = rng.standard_normal((4, 4, 5)) + 1j * rng.standard_normal((4, 4, 5))
        noise = 0.7
        d = design_link(h, 1.0, noise)
        diag = perfect_gain_diagonals(h[:, :, :, None], 1.0, noise)
        assert np.allclose(
            diag[:, 0, :], d.singular_values * np.sqrt(d.power), atol=1e-9
        )

    def test_se_monotone_in_noise_for_fixed_design(self, rng):
        h = rng.standard_normal((4, 4, 6)) + 1j * rng.standard_normal((4, 4, 6))
        d = design_link(h, 1.0, 0.5)
        ses = [
            evaluate_link(h[:, :, :, None], d, s).se_bits_per_s_per_hz
            for s in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert np.all(np.diff(ses) < 0)

    def test_mismatched_estimate_lowers_se(self, rng):
        h = rng.standard_normal((8, 8, 6)) + 1j * rng.standard_normal((8, 8, 6))
        noise = 0.5
        d_true = design_link(h, 1.0, noise)
        noisy = h + 0.7 * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
        d_est = design_link(noisy, 1.0, noise)
        se_true = evaluate_link(h[:, :, :, None], d_true, noise).se_bits_per_s_per_hz
        se_est = evaluate_link(h[:, :, :, None], d_est, noise).se_bits_per_s_per_hz
        assert se_est < se_true

    def test_dead_subcarrier_contributes_zero(self, rng):
        h = rng.standard_normal((4, 4, 3)) + 1j * rng.standard_normal((4, 4, 3))
        h[:, :, 1] = 0.0
        d = design_link(h, 1.0, 1.0)
        res = evaluate_link(h[:, :, :, None], d, 1.0)
        assert np.allclose(res.sinr[1], 0.0)
        assert res.se_bits_per_s_per_hz >= 0.0

    def test_matches_per_cell_oracles_on_aging_channel(self, rng):
        # a design frozen on a stale estimate over a channel that moves
        # through K_D = 3 data symbols: every cell, including the leakage
        # and the error variance, must match the unbatched formulas
        m, n_sc, k_d, noise = 4, 5, 3, 0.3
        h0 = rng.standard_normal((m, m, n_sc)) + 1j * rng.standard_normal((m, m, n_sc))
        drift = rng.standard_normal((m, m, n_sc, k_d)) + 1j * rng.standard_normal(
            (m, m, n_sc, k_d)
        )
        h = h0[:, :, :, None] + 0.3 * np.cumsum(drift, axis=3)
        d = design_link(h0, 1.0, noise)
        res = evaluate_link(h, d, noise)
        assert res.sinr.shape == (n_sc, k_d, m)
        for n in range(n_sc):
            for k in range(k_d):
                cell = h[:, :, n, k]
                g = gain_matrix(cell, d.combiner[n], d.precoder[n], d.power[n])
                fresh = design_link(cell[:, :, None], 1.0, noise)
                g_perfect = gain_matrix(
                    cell, fresh.combiner[0], fresh.precoder[0], fresh.power[0]
                )
                perf_diag = perfect_gain_diagonals(cell[:, :, None, None], 1.0, noise)
                assert np.allclose(g_perfect, np.diag(perf_diag[0, 0]), atol=1e-12)
                sigma_mu_sq = error_covariance(g_perfect, g)
                want = sinr_per_stream(g, d.combiner[n], sigma_mu_sq, noise)
                assert np.allclose(res.sinr[n, k], want, rtol=1e-9, atol=0.0)
