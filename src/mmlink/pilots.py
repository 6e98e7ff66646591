"""Comb pilot patterns spanning 1, 2 or 4 OFDM symbols per link direction.

Antennas are split into K_P groups of G = M/K_P; group g transmits during
training symbol g+1 (forward) and K_P+g+1 (reverse). Within its symbol,
antenna t occupies the comb {o, o+G, o+2G, ...} with offset o = t mod G,
so the G active antennas tile all subcarriers without overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BandConfig, comb_tiling_errors

FORWARD = "forward"
REVERSE = "reverse"


def _qpsk(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # unit-modulus 4-QAM points
    quadrant = rng.integers(0, 4, size=shape)
    return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrant))


@dataclass(frozen=True)
class PilotGrid:
    """Pilot positions and symbol values for both TDD directions.

    values_fwd[t, j] is the pilot transmitted by antenna t on its j-th
    comb subcarrier (t % G + j*G); values_rev likewise for the reverse
    direction, whose transmit array is the receiver's.
    """

    k_p: int
    n_subcarriers: int
    m_fwd: int
    m_rev: int
    values_fwd: np.ndarray
    values_rev: np.ndarray

    def group_size(self, direction: str) -> int:
        m = self.m_fwd if direction == FORWARD else self.m_rev
        return m // self.k_p

    def n_antennas(self, direction: str) -> int:
        return self.m_fwd if direction == FORWARD else self.m_rev

    def antenna_symbol(self, antenna: int, direction: str) -> int:
        """Absolute 0-based training-symbol index used by this antenna."""
        group = antenna // self.group_size(direction)
        return group if direction == FORWARD else self.k_p + group

    def pilot_subcarriers(self, antenna: int, direction: str) -> np.ndarray:
        g = self.group_size(direction)
        return antenna % g + g * np.arange(self.n_subcarriers // g)

    def symbol_owner(self, local_symbol: int, direction: str) -> np.ndarray:
        """Transmitting antenna per subcarrier in one training symbol."""
        g = self.group_size(direction)
        n = np.arange(self.n_subcarriers)
        return local_symbol * g + (n % g)

    def rows(self) -> list[tuple[int, str, int, int]]:
        """1-based (antenna, direction, symbol, subcarrier) rows for dumps."""
        out = []
        for direction in (FORWARD, REVERSE):
            for t in range(self.n_antennas(direction)):
                sym = self.antenna_symbol(t, direction) + 1
                for n in self.pilot_subcarriers(t, direction):
                    out.append((t + 1, direction, sym, int(n) + 1))
        return out


def build_pilot_grid(
    band: BandConfig, k_p: int, rng: np.random.Generator
) -> PilotGrid:
    """Construct the pilot grid for one band; values are seeded QPSK."""
    if min(k_p, band.m_tx, band.m_rx, band.n_subcarriers) < 1:
        raise ValueError("K_P, the antenna counts and n_subcarriers must be >= 1")
    violations = comb_tiling_errors(band, k_p)
    if violations:
        raise ValueError(violations[0])
    n = band.n_subcarriers
    values_fwd = _qpsk(rng, (band.m_tx, n // (band.m_tx // k_p)))
    values_rev = _qpsk(rng, (band.m_rx, n // (band.m_rx // k_p)))
    return PilotGrid(
        k_p=k_p,
        n_subcarriers=n,
        m_fwd=band.m_tx,
        m_rev=band.m_rx,
        values_fwd=values_fwd,
        values_rev=values_rev,
    )


@dataclass(frozen=True)
class TrainingObservations:
    """Received pilot signals for both directions.

    y_fwd[:, n, s] is the receive-array vector at subcarrier n in forward
    training symbol s; y_rev holds the transmit-array vector observed
    through the reciprocal (transposed) channel during reverse symbols.
    """

    y_fwd: np.ndarray  # (m_rx, N, K_P)
    y_rev: np.ndarray  # (m_tx, N, K_P)


def transmit_training(
    H: np.ndarray,
    grid: PilotGrid,
    noise_power: float,
    rng: np.random.Generator,
) -> TrainingObservations:
    """Pass pilots through the time-varying channel and add receiver noise.

    Every (subcarrier, symbol) cell in the training block carries exactly
    one antenna's pilot, so the output is dense. Reverse symbols use the
    transpose of H at their own (later) time indices.
    """
    m_rx, m_tx, n_sc, n_sym = H.shape
    if m_tx != grid.m_fwd or m_rx != grid.m_rev or n_sc != grid.n_subcarriers:
        raise ValueError("channel tensor does not match the pilot grid")
    if n_sym < 2 * grid.k_p:
        raise ValueError("channel tensor is shorter than the training block")
    cols = np.arange(n_sc)
    y_fwd = np.empty((m_rx, n_sc, grid.k_p), dtype=np.complex128)
    for s in range(grid.k_p):
        owner = grid.symbol_owner(s, FORWARD)
        vals = grid.values_fwd[owner, cols // grid.group_size(FORWARD)]
        noise = np.sqrt(noise_power / 2.0) * (
            rng.standard_normal((m_rx, n_sc)) + 1j * rng.standard_normal((m_rx, n_sc))
        )
        y_fwd[:, :, s] = H[:, owner, cols, s] * vals + noise
    y_rev = np.empty((m_tx, n_sc, grid.k_p), dtype=np.complex128)
    for s in range(grid.k_p):
        owner = grid.symbol_owner(s, REVERSE)
        vals = grid.values_rev[owner, cols // grid.group_size(REVERSE)]
        h_rev = H[:, :, :, grid.k_p + s].transpose(1, 0, 2)  # reciprocal link
        noise = np.sqrt(noise_power / 2.0) * (
            rng.standard_normal((m_tx, n_sc)) + 1j * rng.standard_normal((m_tx, n_sc))
        )
        y_rev[:, :, s] = h_rev[:, owner, cols] * vals + noise
    return TrainingObservations(y_fwd=y_fwd, y_rev=y_rev)
