"""SVD link design, water-filling and the data-phase stream coupling."""

import numpy as np
import pytest

from mmlink.metrics import evaluate_link
from mmlink.transceiver import design_link, waterfill_power

from oracles import gain_matrix, waterfill_bisection


class TestWaterfill:
    def test_two_stream_example(self):
        # oracle decides the active set for sv=[2,1,0,...], sigma2=1, P=1
        sv = np.array([2.0, 1.0, 0.0, 0.0])
        p = waterfill_power(sv, 1.0, 1.0)
        oracle = waterfill_bisection(sv, 1.0, 1.0)
        assert np.allclose(p, oracle, atol=1e-8)
        assert np.allclose(p, [0.875, 0.125, 0.0, 0.0], atol=1e-9)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-9)

    def test_equal_gains_equal_power(self):
        sv = np.full(8, 1.7)
        p = waterfill_power(sv, 0.3, 2.0)
        assert np.allclose(p, 0.25)

    def test_rank_one_single_stream(self):
        sv = np.array([3.0, 0.0, 0.0])
        p = waterfill_power(sv, 1.0, 1.0)
        assert np.allclose(p, [1.0, 0.0, 0.0])

    def test_all_zero_gains(self):
        p = waterfill_power(np.zeros(4), 1.0, 1.0)
        assert np.allclose(p, 0.0)

    def test_kkt_conditions_random_profiles(self):
        rng = np.random.default_rng(77)
        sv = np.sort(rng.uniform(0.0, 4.0, size=(1000, 8)), axis=1)[:, ::-1]
        sv[rng.uniform(size=(1000, 8)) < 0.15] = 0.0
        sv = np.sort(sv, axis=1)[:, ::-1]
        noise, p_total = 0.7, 1.3
        p = waterfill_power(sv, noise, p_total)
        for i in range(1000):
            oracle = waterfill_bisection(sv[i], noise, p_total)
            assert np.allclose(p[i], oracle, atol=1e-8), i
            if np.any(sv[i] > 0):
                assert np.sum(p[i]) == pytest.approx(p_total, abs=1e-9)
                active = p[i] > 1e-12
                levels = p[i][active] + noise / sv[i][active] ** 2
                assert np.ptp(levels) < 1e-9  # shared water level
                inactive = (~active) & (sv[i] > 0)
                if np.any(inactive):
                    assert np.all(
                        noise / sv[i][inactive] ** 2 >= levels.max() - 1e-9
                    )


class TestDesignLink:
    def make_random_estimate(self, rng, n=12, m=8):
        return rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))

    def test_semi_unitary_and_power(self, rng):
        est = self.make_random_estimate(rng)
        d = design_link(est, p_total=1.0, noise_power=0.5)
        n, _, L = d.combiner.shape
        eye = np.eye(L)
        for i in range(n):
            assert np.allclose(d.combiner[i].conj().T @ d.combiner[i], eye, atol=1e-10)
            assert np.allclose(d.precoder[i].conj().T @ d.precoder[i], eye, atol=1e-10)
            fp = d.precoder[i] * np.sqrt(d.power[i])[None, :]
            assert np.linalg.norm(fp) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(d.singular_values, axis=1) <= 1e-12)

    def test_reconstruction(self, rng):
        est = self.make_random_estimate(rng, n=4, m=4)
        d = design_link(est, 1.0, 1.0)
        for i in range(4):
            h = d.combiner[i] @ np.diag(d.singular_values[i]) @ d.precoder[i].conj().T
            assert np.allclose(h, est[:, :, i], atol=1e-10)

    def test_sign_convention_deterministic(self, rng):
        est = self.make_random_estimate(rng)
        d1 = design_link(est, 1.0, 0.5)
        d2 = design_link(est, 1.0, 0.5)
        assert np.array_equal(d1.precoder, d2.precoder)
        anchor = d1.precoder[:, 0, :]  # first row entries of each column
        assert np.allclose(anchor.imag, 0.0, atol=1e-10)
        assert np.all(anchor.real > 0)

    def test_scale_consistency(self, rng):
        est = self.make_random_estimate(rng, n=6)
        scaled = est * 3.0
        d1 = design_link(est, 1.0, 0.5)
        d2 = design_link(scaled, 1.0, 0.5)
        assert np.allclose(d2.singular_values, 3.0 * d1.singular_values)
        assert np.allclose(d2.precoder, d1.precoder, atol=1e-10)
        assert np.allclose(d2.combiner, d1.combiner, atol=1e-10)

    def test_dead_subcarrier_flagged(self, rng):
        h = rng.standard_normal((4, 4, 3)) + 1j * rng.standard_normal((4, 4, 3))
        h[:, :, 1] = 0.0
        d = design_link(h, 1.0, 1.0)
        assert list(d.dead) == [False, True, False]
        assert np.allclose(d.power[1], 0.0)

    def test_rank_one_estimate_single_stream(self):
        a = np.exp(-1j * np.pi * 0.3 * np.arange(8))
        b = np.exp(-1j * np.pi * 0.1 * np.arange(8))
        h = np.outer(a, b.conj())[:, :, None] * np.ones(5)[None, None, :]
        d = design_link(h, 1.0, 0.1)
        assert np.allclose(d.power[:, 0], 1.0)
        assert np.allclose(d.power[:, 1:], 0.0)

    def test_rejects_non_finite(self):
        h = np.ones((2, 2, 2), dtype=complex)
        h[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            design_link(h, 1.0, 1.0)


class TestTransmitData:
    """A frozen design over the true data-phase channel."""

    def test_perfect_csi_diagonalizes(self, rng):
        m, n, noise = 4, 6, 0.2
        h = rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))
        d = design_link(h, 1.0, noise)
        res = evaluate_link(np.stack([h, h], axis=3), d, noise)
        # no leakage and no error variance: SINR is sigma^2 p / sigma_w^2
        expected = d.singular_values**2 * d.power / noise
        assert np.allclose(res.sinr, expected[:, None, :], rtol=1e-9)

    def test_stale_design_leaks_between_streams(self, rng):
        m, n, noise = 4, 6, 0.2
        h0 = rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))
        h1 = rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))
        d = design_link(h0, 1.0, noise)  # stale design
        g = gain_matrix(h1[:, :, 0], d.combiner[0], d.precoder[0], d.power[0])
        assert np.sum(np.abs(g - np.diag(np.diag(g))) ** 2) > 0
        res = evaluate_link(h1[:, :, :, None], d, noise)
        live = d.power[0] > 0  # leakage and error variance cut every live stream
        assert np.all(res.sinr[0, 0][live] < np.abs(np.diag(g))[live] ** 2 / noise)
