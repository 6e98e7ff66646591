"""Comb pilot layout and training transmission."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmlink.core import Band
from mmlink.pilots import build_pilot_grid, transmit_training

from conftest import make_band


def grid_for(m_tx=8, k_p=2, n=16, m_rx=None, seed=0):
    band = make_band(Band.MMWAVE, n_subcarriers=n, m_tx=m_tx, m_rx=m_rx or m_tx)
    return build_pilot_grid(band, k_p, np.random.Generator(np.random.PCG64(seed)))


class TestLayout:
    def test_one_symbol_pattern(self):
        grid = grid_for(k_p=1)
        for t in range(8):
            assert grid.fwd.symbol(t) == 0
            assert list(grid.fwd.subcarriers(t)) == [t, t + 8]

    def test_two_symbol_pattern(self):
        grid = grid_for(k_p=2)
        # antenna 1 (0-based 0): comb {0,4,8,12} in symbol 0
        assert grid.fwd.symbol(0) == 0
        assert list(grid.fwd.subcarriers(0)) == [0, 4, 8, 12]
        # antenna 5 (0-based 4): same comb, symbol 1
        assert grid.fwd.symbol(4) == 1
        assert list(grid.fwd.subcarriers(4)) == [0, 4, 8, 12]

    def test_four_symbol_pattern(self):
        grid = grid_for(k_p=4)
        assert grid.fwd.symbol(0) == 0
        assert list(grid.fwd.subcarriers(0)) == list(range(0, 16, 2))

    def test_comb_nesting_across_patterns(self):
        # stride halves as the pattern lengthens: 8 -> 4 -> 2
        for k_p, stride in ((1, 8), (2, 4), (4, 2)):
            grid = grid_for(k_p=k_p)
            subs = grid.fwd.subcarriers(0)
            assert np.all(np.diff(subs) == stride)

    def test_unit_modulus_qpsk_values(self):
        grid = grid_for(k_p=2)
        for vals in (grid.fwd.values, grid.rev.values):
            assert np.allclose(np.abs(vals), 1.0)
            quads = np.angle(vals) / (np.pi / 2) - 0.5
            assert np.allclose(quads, np.round(quads), atol=1e-12)

    def test_reverse_is_shifted_forward(self):
        # with equal arrays the reverse comb is the forward layout; the
        # dump numbers its symbols K_P after the forward ones
        grid = grid_for(k_p=2)
        rows = grid.rows()
        fwd = [(a, s, n) for a, d, s, n in rows if d == "forward"]
        rev = [(a, s - grid.k_p, n) for a, d, s, n in rows if d == "reverse"]
        assert rev == fwd
        for t in range(8):
            assert grid.rev.symbol(t) == grid.fwd.symbol(t)
            assert np.array_equal(grid.rev.subcarriers(t), grid.fwd.subcarriers(t))

    @given(
        st.sampled_from([1, 2, 4]),
        st.sampled_from([(8, 8), (16, 16), (4, 8), (8, 4)]),
        st.sampled_from([16, 32, 64]),
    )
    def test_partition_property(self, k_p, arrays, n):
        m_tx, m_rx = arrays
        if any((m // k_p) > n or n % (m // k_p) != 0 for m in arrays):
            return
        grid = grid_for(m_tx=m_tx, m_rx=m_rx, k_p=k_p, n=n)
        # forward: the transmit array sends; reverse: the receive array
        for comb, m in ((grid.fwd, m_tx), (grid.rev, m_rx)):
            assert comb.values.shape == (m, n // (m // k_p))
            seen_antennas = set()
            for s in range(k_p):
                cells = {}
                for t in comb.antennas(s):
                    assert comb.symbol(t) == s
                    seen_antennas.add(int(t))
                    for n_sc in comb.subcarriers(t):
                        assert n_sc not in cells, "two antennas share a cell"
                        cells[n_sc] = t
                assert len(cells) == n  # symbol fully tiled
                assert np.array_equal(comb.owner(s), [cells[i] for i in range(n)])
            assert seen_antennas == set(range(m))

    def test_rows_match_symbol_owner(self):
        grid = grid_for(k_p=2)
        for s in range(2):
            owner = grid.fwd.owner(s)
            for n_sc, t in enumerate(owner):
                assert grid.fwd.symbol(t) == s
                assert n_sc in grid.fwd.subcarriers(t)

    def test_divisibility_errors(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=8, m_rx=8)
        with pytest.raises(ValueError, match="K_P must divide"):
            build_pilot_grid(band, 3, np.random.default_rng(0))
        band = make_band(Band.MMWAVE, n_subcarriers=10, m_tx=8, m_rx=8)
        with pytest.raises(ValueError, match="must divide\n?.*n_subcarriers"):
            build_pilot_grid(band, 2, np.random.default_rng(0))


class TestTransmitTraining:
    def test_noiseless_flat_single_antenna(self):
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=1, m_rx=1)
        grid = build_pilot_grid(band, 1, np.random.default_rng(3))
        h = np.full((1, 1, 16, 2), 0.7 - 0.3j)
        obs = transmit_training(h, grid, 0.0, np.random.default_rng(0))
        vals = grid.fwd.values[0]
        assert np.allclose(obs.y_fwd[0, :, 0], (0.7 - 0.3j) * vals)

    def test_zero_channel_noise_power(self):
        band = make_band(Band.MMWAVE, n_subcarriers=32, m_tx=8, m_rx=8)
        grid = build_pilot_grid(band, 2, np.random.default_rng(3))
        h = np.zeros((8, 8, 32, 4), dtype=complex)
        power = 0.0
        count = 0
        for seed in range(200):
            obs = transmit_training(h, grid, 0.5, np.random.default_rng(seed))
            power += np.sum(np.abs(obs.y_fwd) ** 2)
            count += obs.y_fwd.size
        assert power / count == pytest.approx(0.5, rel=0.05)

    def test_time_varying_channel_uses_symbol_index(self):
        # the channel at training symbol k feeds observation symbol k
        band = make_band(Band.MMWAVE, n_subcarriers=16, m_tx=8, m_rx=8)
        grid = build_pilot_grid(band, 2, np.random.default_rng(3))
        h = np.zeros((8, 8, 16, 4), dtype=complex)
        for k in range(4):
            h[:, :, :, k] = (k + 1) * (1 + 1j)
        obs = transmit_training(h, grid, 0.0, np.random.default_rng(0))
        cols = np.arange(16)
        for s in range(2):
            owner = grid.fwd.owner(s)
            vals = grid.fwd.values[owner, cols // grid.fwd.group_size]
            assert np.allclose(obs.y_fwd[:, :, s], (s + 1) * (1 + 1j) * vals)
        # reverse symbols see the transpose at later times (k = k_p + s)
        for s in range(2):
            owner = grid.rev.owner(s)
            vals = grid.rev.values[owner, cols // grid.rev.group_size]
            assert np.allclose(obs.y_rev[:, :, s], (2 + s + 1) * (1 + 1j) * vals)

    def test_reverse_uses_transpose(self):
        # unequal arrays: the receive array transmits the reverse comb
        band = make_band(Band.MMWAVE, n_subcarriers=8, m_tx=4, m_rx=8)
        grid = build_pilot_grid(band, 1, np.random.default_rng(5))
        rng = np.random.default_rng(8)
        h = rng.standard_normal((8, 4, 8, 2)) + 1j * rng.standard_normal((8, 4, 8, 2))
        obs = transmit_training(h, grid, 0.0, np.random.default_rng(0))
        cols = np.arange(8)
        owner = grid.rev.owner(0)
        vals = grid.rev.values[owner, cols // grid.rev.group_size]
        expected = h[:, :, :, 1].transpose(1, 0, 2)[:, owner, cols] * vals
        assert np.allclose(obs.y_rev[:, :, 0], expected)

    def test_shape_mismatch_rejected(self):
        grid = grid_for(k_p=1, n=16)
        with pytest.raises(ValueError):
            transmit_training(
                np.zeros((8, 8, 8, 4), dtype=complex), grid, 0.0,
                np.random.default_rng(0),
            )
        # a 4-transmit, 8-receive grid against the swapped orientation
        grid = grid_for(m_tx=4, m_rx=8, k_p=1, n=16)
        with pytest.raises(ValueError, match="does not match"):
            transmit_training(
                np.zeros((4, 8, 16, 4), dtype=complex), grid, 0.0,
                np.random.default_rng(0),
            )

    def test_short_tensor_rejected(self):
        grid = grid_for(k_p=2, n=16)
        with pytest.raises(ValueError, match="shorter than the training block"):
            transmit_training(
                np.zeros((8, 8, 16, 3), dtype=complex), grid, 0.0,
                np.random.default_rng(0),
            )
