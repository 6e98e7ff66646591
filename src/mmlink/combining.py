"""Fusion of the in-band and out-of-band-aided mmWave channel estimates."""

from __future__ import annotations

import numpy as np


def compute_weight(
    m_tx: int, m_rx: int, noise_power: float, kappa_sub6: float
) -> float:
    """Closed-form combining factor in [0, 1].

    w = M s2 / (M / (1 + kappa) + (1 + M) s2) with M = m_tx * m_rx. High
    noise or a strong LOS (large kappa) pushes the weight toward the
    out-of-band-aided estimate; at infinite SNR it trusts the in-band
    estimate fully.
    """
    if m_tx < 1 or m_rx < 1:
        raise ValueError("antenna counts must be >= 1")
    if noise_power < 0 or kappa_sub6 < 0:
        raise ValueError("noise power and K-factor must be >= 0")
    m = m_tx * m_rx
    denom = m / (1.0 + kappa_sub6) + (1.0 + m) * noise_power
    if denom == 0.0:
        return 0.0
    return m * noise_power / denom


def combine_mrc(oob: np.ndarray, inband: np.ndarray, weight: float) -> np.ndarray:
    """Per-subcarrier convex combination of the two (m_rx, m_tx, N) estimates."""
    if oob.shape != inband.shape:
        raise ValueError("estimate shapes do not match")
    return weight * oob + (1.0 - weight) * inband

