"""Comb pilot layout and training transmission."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmlink.core import Band
from mmlink.pilots import (
    FORWARD,
    REVERSE,
    build_pilot_grid,
    transmit_training,
)

from conftest import make_band


def grid_for(m_tx=8, k_p=2, n=16, m_rx=None, seed=0):
    band = make_band(Band.MMWAVE, n_subcarriers=n, m_tx=m_tx, m_rx=m_rx or m_tx)
    return build_pilot_grid(band, k_p, np.random.Generator(np.random.PCG64(seed)))


class TestLayout:
    def test_one_symbol_pattern(self):
        grid = grid_for(k_p=1)
        for t in range(8):
            assert grid.antenna_symbol(t, FORWARD) == 0
            assert list(grid.pilot_subcarriers(t, FORWARD)) == [t, t + 8]

    def test_two_symbol_pattern(self):
        grid = grid_for(k_p=2)
        # antenna 1 (0-based 0): comb {0,4,8,12} in symbol 0
        assert grid.antenna_symbol(0, FORWARD) == 0
        assert list(grid.pilot_subcarriers(0, FORWARD)) == [0, 4, 8, 12]
        # antenna 5 (0-based 4): same comb, symbol 1
        assert grid.antenna_symbol(4, FORWARD) == 1
        assert list(grid.pilot_subcarriers(4, FORWARD)) == [0, 4, 8, 12]

    def test_four_symbol_pattern(self):
        grid = grid_for(k_p=4)
        assert grid.antenna_symbol(0, FORWARD) == 0
        assert list(grid.pilot_subcarriers(0, FORWARD)) == list(range(0, 16, 2))

    def test_comb_nesting_across_patterns(self):
        # stride halves as the pattern lengthens: 8 -> 4 -> 2
        for k_p, stride in ((1, 8), (2, 4), (4, 2)):
            grid = grid_for(k_p=k_p)
            subs = grid.pilot_subcarriers(0, FORWARD)
            assert np.all(np.diff(subs) == stride)

    def test_unit_modulus_qpsk_values(self):
        grid = grid_for(k_p=2)
        for vals in (grid.values_fwd, grid.values_rev):
            assert np.allclose(np.abs(vals), 1.0)
            quads = np.angle(vals) / (np.pi / 2) - 0.5
            assert np.allclose(quads, np.round(quads), atol=1e-12)

    def test_reverse_is_shifted_forward(self):
        grid = grid_for(k_p=2)
        for t in range(8):
            assert (
                grid.antenna_symbol(t, REVERSE)
                == grid.antenna_symbol(t, FORWARD) + grid.k_p
            )
            assert np.array_equal(
                grid.pilot_subcarriers(t, REVERSE), grid.pilot_subcarriers(t, FORWARD)
            )

    @given(
        st.sampled_from([1, 2, 4]),
        st.sampled_from([8, 16]),
        st.sampled_from([16, 32, 64]),
    )
    def test_partition_property(self, k_p, m_tx, n):
        if (m_tx // k_p) > n or n % (m_tx // k_p) != 0:
            return
        grid = grid_for(m_tx=m_tx, k_p=k_p, n=n)
        for direction in (FORWARD, REVERSE):
            seen_antennas = set()
            for s in range(k_p):
                cells = {}
                for t in range(m_tx):
                    local = grid.antenna_symbol(t, direction) - (
                        0 if direction == FORWARD else k_p
                    )
                    if local != s:
                        continue
                    seen_antennas.add(t)
                    for n_sc in grid.pilot_subcarriers(t, direction):
                        assert n_sc not in cells, "two antennas share a cell"
                        cells[n_sc] = t
                assert len(cells) == n  # symbol fully tiled
            assert seen_antennas == set(range(m_tx))

    def test_rows_match_symbol_owner(self):
        grid = grid_for(k_p=2)
        for s in range(2):
            owner = grid.symbol_owner(s, FORWARD)
            for n_sc, t in enumerate(owner):
                assert grid.antenna_symbol(t, FORWARD) == s
                assert n_sc in grid.pilot_subcarriers(t, FORWARD)

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
        vals = grid.values_fwd[0]
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
            owner = grid.symbol_owner(s, FORWARD)
            vals = grid.values_fwd[owner, cols // grid.group_size(FORWARD)]
            assert np.allclose(obs.y_fwd[:, :, s], (s + 1) * (1 + 1j) * vals)
        # reverse symbols see the transpose at later times (k = k_p + s)
        for s in range(2):
            owner = grid.symbol_owner(s, REVERSE)
            vals = grid.values_rev[owner, cols // grid.group_size(REVERSE)]
            assert np.allclose(obs.y_rev[:, :, s], (2 + s + 1) * (1 + 1j) * vals)

    def test_reverse_uses_transpose(self):
        band = make_band(Band.MMWAVE, n_subcarriers=8, m_tx=4, m_rx=4)
        grid = build_pilot_grid(band, 1, np.random.default_rng(5))
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4, 8, 2)) + 1j * rng.standard_normal((4, 4, 8, 2))
        obs = transmit_training(h, grid, 0.0, np.random.default_rng(0))
        cols = np.arange(8)
        owner = grid.symbol_owner(0, REVERSE)
        vals = grid.values_rev[owner, cols // grid.group_size(REVERSE)]
        expected = h[:, :, :, 1].transpose(1, 0, 2)[:, owner, cols] * vals
        assert np.allclose(obs.y_rev[:, :, 0], expected)

    def test_shape_mismatch_rejected(self):
        grid = grid_for(k_p=1, n=16)
        with pytest.raises(ValueError):
            transmit_training(
                np.zeros((8, 8, 8, 4), dtype=complex), grid, 0.0,
                np.random.default_rng(0),
            )
