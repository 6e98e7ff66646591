"""Per-stream SINR and spectral efficiency of a link design over the true channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transceiver import LinkDesign, waterfill_power


@dataclass(frozen=True)
class SeResult:
    """Spectral efficiency plus the per-stream SINR grid it came from."""

    se_bits_per_s_per_hz: float
    sinr: np.ndarray | None = None  # (N, K_D, L) diagnostic


def sinr_per_stream(
    g: np.ndarray,
    combiner: np.ndarray,
    sigma_mu_sq: np.ndarray,
    noise_power: float,
) -> np.ndarray:
    """Effective SINR per stream for stacked (..., L, L) gain matrices.

    Numerator |G_mm|^2; denominator is the off-diagonal row leakage plus
    (sigma_mu^2 + sigma_w^2) * ||Q_col||^2 (unit norm for semi-unitary
    combiners). sigma_mu_sq is the per-stream estimation-error variance,
    the diagonal of (1/L) eps eps^H with eps = G_perfect - G.
    """
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    row_sq = np.sum(np.abs(g) ** 2, axis=-1)
    interference = np.clip(row_sq - np.abs(diag) ** 2, 0.0, None)
    q_norm_sq = np.sum(np.abs(combiner) ** 2, axis=-2)
    denom = interference + (sigma_mu_sq + noise_power) * q_norm_sq
    return np.abs(diag) ** 2 / denom


def spectral_efficiency(sinr_grid: np.ndarray) -> SeResult:
    """Average sum-log2(1 + SINR) over the (subcarrier, symbol) grid.

    The grid must cover data symbols only, shape (N, K_D, L).
    """
    grid = np.asarray(sinr_grid, dtype=np.float64)
    if grid.ndim != 3 or grid.size == 0:
        raise ValueError("SINR grid must be a non-empty (N, K_D, L) array")
    n_sc, k_d, _ = grid.shape
    se = float(np.sum(np.log2(1.0 + grid)) / (n_sc * k_d))
    return SeResult(se_bits_per_s_per_hz=se, sinr=grid)


def perfect_gain_diagonals(
    h_data: np.ndarray, p_total: float, noise_power: float
) -> np.ndarray:
    """Diagonal of the perfect-design gain matrix per (n, k), shape (N, K_D, L).

    With the precoder and combiner recomputed from the instantaneous
    channel, Q^H H F P^(1/2) reduces to diag(sigma * sqrt(p)) exactly, so
    only singular values and their water-filling loading are needed.
    """
    ht = h_data.transpose(2, 3, 0, 1)  # (N, K_D, m_rx, m_tx)
    s = np.linalg.svd(ht, compute_uv=False)
    p = waterfill_power(s, noise_power, p_total)
    return s * np.sqrt(p)


def evaluate_link(
    h_data: np.ndarray,
    design: LinkDesign,
    noise_power: float,
    *,
    perf_diag: np.ndarray | None = None,
) -> SeResult:
    """SE of a frozen link design over the true time-varying data channel.

    h_data has shape (m_rx, m_tx, N, K_D) covering the data symbols. The
    estimation-error variance compares the achieved gain matrix against
    the one a per-symbol perfect design would achieve. perf_diag, when
    given, must equal perfect_gain_diagonals(h_data, design.p_total,
    noise_power); callers that evaluate several designs over overlapping
    windows of one channel compute it once and pass each its slice.
    """
    fp = design.precoder * np.sqrt(design.power)[:, None, :]  # (N, m_tx, L)
    ht = np.ascontiguousarray(h_data.transpose(2, 3, 0, 1))  # (N, K_D, m_rx, m_tx)
    hf = ht @ fp[:, None, :, :]  # (N, K_D, m_rx, L)
    qh = design.combiner.conj().transpose(0, 2, 1)  # (N, L, m_rx)
    g = qh[:, None, :, :] @ hf  # (N, K_D, L, L)

    # The perfect design's gain matrix is diagonal, so eps = diag(perf) - g
    # equals -g off the diagonal: row m of |eps|^2 sums to |perf_m - g_mm|^2
    # plus the leakage of row m of g, with no other term.
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    leakage = np.clip(np.sum(np.abs(g) ** 2, axis=-1) - np.abs(diag) ** 2, 0.0, None)
    if perf_diag is None:
        perf_diag = perfect_gain_diagonals(h_data, design.p_total, noise_power)
    elif perf_diag.shape != diag.shape:
        raise ValueError(
            f"perf_diag has shape {perf_diag.shape}, the gain diagonals {diag.shape}"
        )
    sigma_mu_sq = (np.abs(perf_diag - diag) ** 2 + leakage) / design.n_streams

    sinr = sinr_per_stream(g, design.combiner[:, None], sigma_mu_sq, noise_power)
    return spectral_efficiency(sinr)

