"""Closed-form combining weight and estimate fusion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmlink.channel import steering_vector
from mmlink.combining import combine_mrc, compute_weight


class TestComputeWeight:
    def test_zero_noise_trusts_inband(self):
        assert compute_weight(8, 8, 0.0, 5.0) == 0.0

    def test_high_kappa_limit(self):
        w = compute_weight(8, 8, 1.0, 1e12)
        assert w == pytest.approx(64.0 / 65.0, abs=1e-9)

    def test_hand_value(self):
        assert compute_weight(8, 8, 1.0, 1.0) == pytest.approx(64.0 / 97.0, abs=1e-12)

    def test_monotone_in_noise_and_kappa(self):
        noises = np.logspace(-3, 2, 12)
        kappas = np.logspace(-3, 4, 12)
        for kappa in kappas:
            w = [compute_weight(8, 8, s, kappa) for s in noises]
            assert np.all(np.diff(w) > 0)
        for noise in noises:
            w = [compute_weight(8, 8, noise, k) for k in kappas]
            assert np.all(np.diff(w) > 0)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e9),
    )
    def test_weight_in_unit_interval(self, m_tx, m_rx, noise, kappa):
        w = compute_weight(m_tx, m_rx, noise, kappa)
        assert 0.0 <= w <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compute_weight(0, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_weight(8, 8, -1.0, 1.0)


class TestCombine:
    def test_weight_zero_returns_inband(self, rng):
        a = rng.standard_normal((4, 4, 8)) + 1j * rng.standard_normal((4, 4, 8))
        b = rng.standard_normal((4, 4, 8)) + 1j * rng.standard_normal((4, 4, 8))
        out = combine_mrc(a, b, 0.0)
        assert np.array_equal(out, b)

    def test_weight_one_returns_oob(self, rng):
        a = rng.standard_normal((4, 4, 8)) + 1j * rng.standard_normal((4, 4, 8))
        b = rng.standard_normal((4, 4, 8)) + 1j * rng.standard_normal((4, 4, 8))
        out = combine_mrc(a, b, 1.0)
        assert np.array_equal(out, a)

    def test_halfway_linearity(self):
        a = 2.0 * np.ones((2, 2, 3), dtype=complex)
        b = np.zeros((2, 2, 3), dtype=complex)
        out = combine_mrc(a, b, 0.5)
        assert np.allclose(out, np.ones((2, 2, 3)))

    def test_shape_mismatch(self, rng):
        a = np.zeros((2, 2, 3), dtype=complex)
        b = np.zeros((2, 2, 4), dtype=complex)
        with pytest.raises(ValueError):
            combine_mrc(a, b, 0.5)


class TestCombinedMse:
    """Statistical behavior on synthetic channels matching the error models."""

    @staticmethod
    def _draw(rng, kappa, sigma2, m=8, n=16):
        a_tx = steering_vector(m, 0.5, rng.uniform(-1.2, 1.2))
        a_rx = steering_vector(m, 0.5, rng.uniform(-1.2, 1.2))
        los = np.exp(1j * rng.uniform(-np.pi, np.pi)) * np.outer(a_rx, np.conj(a_tx))
        scatter = (
            rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))
        ) / np.sqrt(2)
        h = (
            np.sqrt(kappa / (1 + kappa)) * los[:, :, None]
            + np.sqrt(1 / (1 + kappa)) * scatter
        )
        noise = (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        ) * np.sqrt(sigma2 / 2)
        inband = h + noise
        oob = np.sqrt(kappa / (1 + kappa)) * np.broadcast_to(
            los[:, :, None], h.shape
        )
        return h, inband, oob

    def test_combined_not_worse_than_both(self, rng):
        kappa, sigma2 = 10.0, 1.0
        w = compute_weight(8, 8, sigma2, kappa)
        mse_in = mse_oob = mse_comb = 0.0
        for _ in range(500):
            h, inband, oob = self._draw(rng, kappa, sigma2)
            comb = w * oob + (1 - w) * inband
            mse_in += np.mean(np.abs(inband - h) ** 2)
            mse_oob += np.mean(np.abs(oob - h) ** 2)
            mse_comb += np.mean(np.abs(comb - h) ** 2)
        worst = max(mse_in, mse_oob)
        assert mse_comb <= worst * 1.05

    def test_combined_beats_inband_in_strong_los(self, rng):
        kappa, sigma2 = 100.0, 1.0  # strong LOS, low SNR
        w = compute_weight(8, 8, sigma2, kappa)
        mse_in = mse_comb = 0.0
        for _ in range(300):
            h, inband, oob = self._draw(rng, kappa, sigma2)
            comb = w * oob + (1 - w) * inband
            mse_in += np.mean(np.abs(inband - h) ** 2)
            mse_comb += np.mean(np.abs(comb - h) ** 2)
        assert mse_comb < mse_in
