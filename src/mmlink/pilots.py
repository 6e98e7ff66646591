"""Comb pilot patterns spanning 1, 2 or 4 OFDM symbols per link direction.

One direction's layout is a comb: its M transmit antennas are split into
K_P groups of G = M/K_P, and group g transmits during training symbol g
of the direction's block. Within its symbol, antenna t occupies the comb
{o, o+G, o+2G, ...} with offset o = t mod G, so the G active antennas
tile all subcarriers without overlapping. Forward training uses the
comb of the transmit array on H; reverse training, K_P symbols later, is
the same layout for the receive array on the reciprocal link H^T.
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
class Comb:
    """Pilot layout of one direction's K_P training symbols.

    values[t, j] is the pilot transmitted by antenna t on its j-th comb
    subcarrier t % G + j*G; values has shape (M, N/G).
    """

    k_p: int
    values: np.ndarray

    @property
    def group_size(self) -> int:
        return self.values.shape[0] // self.k_p

    @property
    def n_subcarriers(self) -> int:
        return self.group_size * self.values.shape[1]

    def symbol(self, antenna):
        """0-based training symbol of an antenna, within the block."""
        return antenna // self.group_size

    def antennas(self, symbol: int) -> np.ndarray:
        """The antennas that transmit during one training symbol."""
        g = self.group_size
        return np.arange(symbol * g, (symbol + 1) * g)

    def subcarriers(self, antenna) -> np.ndarray:
        """Comb subcarriers of an antenna (of each, for a column of them)."""
        g = self.group_size
        return antenna % g + g * np.arange(self.values.shape[1])

    def owner(self, symbol: int) -> np.ndarray:
        """Transmitting antenna per subcarrier in one training symbol."""
        g = self.group_size
        return symbol * g + np.arange(self.n_subcarriers) % g


@dataclass(frozen=True)
class PilotGrid:
    """Combs of both TDD directions: fwd for the transmit array, rev for
    the receive array, which transmits on the reciprocal link."""

    fwd: Comb
    rev: Comb

    @property
    def k_p(self) -> int:
        return self.fwd.k_p

    def rows(self) -> list[tuple[int, str, int, int]]:
        """1-based (antenna, direction, symbol, subcarrier) rows for dumps.

        Symbols count over the whole training block, so the reverse
        symbols follow the K_P forward ones.
        """
        out = []
        blocks = ((FORWARD, self.fwd, 1), (REVERSE, self.rev, 1 + self.k_p))
        for direction, comb, first in blocks:
            for t in range(len(comb.values)):
                sym = first + comb.symbol(t)
                for n in comb.subcarriers(t):
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
    fwd = Comb(k_p, _qpsk(rng, (band.m_tx, n // (band.m_tx // k_p))))
    rev = Comb(k_p, _qpsk(rng, (band.m_rx, n // (band.m_rx // k_p))))
    return PilotGrid(fwd=fwd, rev=rev)


@dataclass(frozen=True)
class TrainingObservations:
    """Received pilot signals for both directions.

    y_fwd[:, n, s] is the receive-array vector at subcarrier n in forward
    training symbol s; y_rev holds the transmit-array vector observed
    through the reciprocal (transposed) channel during reverse symbols.
    """

    y_fwd: np.ndarray  # (m_rx, N, K_P)
    y_rev: np.ndarray  # (m_tx, N, K_P)


def _observe(
    h: np.ndarray, comb: Comb, noise_power: float, rng: np.random.Generator
) -> np.ndarray:
    """Received pilots of one direction's block; h is (receivers,
    transmitters, N, K_P) at the block's symbols."""
    n_rx, _, n_sc, k_p = h.shape
    cols = np.arange(n_sc)
    y = np.empty((n_rx, n_sc, k_p), dtype=np.complex128)
    for s in range(k_p):
        owner = comb.owner(s)
        vals = comb.values[owner, cols // comb.group_size]
        noise = np.sqrt(noise_power / 2.0) * (
            rng.standard_normal((n_rx, n_sc)) + 1j * rng.standard_normal((n_rx, n_sc))
        )
        y[:, :, s] = h[:, owner, cols, s] * vals + noise
    return y


def transmit_training(
    H: np.ndarray,
    grid: PilotGrid,
    noise_power: float,
    rng: np.random.Generator,
) -> TrainingObservations:
    """Pass pilots through the time-varying channel and add receiver noise.

    Every (subcarrier, symbol) cell in the training block carries exactly
    one antenna's pilot, so the output is dense. Forward symbols see H at
    times 0..K_P-1; reverse symbols see its transpose at K_P..2K_P-1.
    """
    m_rx, m_tx, n_sc, n_sym = H.shape
    k_p = grid.k_p
    if (m_tx, m_rx) != (len(grid.fwd.values), len(grid.rev.values)) or (
        n_sc != grid.fwd.n_subcarriers
    ):
        raise ValueError("channel tensor does not match the pilot grid")
    if n_sym < 2 * k_p:
        raise ValueError("channel tensor is shorter than the training block")
    y_fwd = _observe(H[..., :k_p], grid.fwd, noise_power, rng)
    y_rev = _observe(
        H[..., k_p : 2 * k_p].transpose(1, 0, 2, 3), grid.rev, noise_power, rng
    )
    return TrainingObservations(y_fwd=y_fwd, y_rev=y_rev)
