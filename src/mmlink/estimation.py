"""Least-squares channel estimation, K-factor and LOS-angle recovery.

The in-band estimate is per-pilot LS followed by linear interpolation in
frequency (nearest-pilot hold beyond the outermost pilots). The
out-of-band-aided estimate rebuilds the mmWave LOS component from the
sub-6 GHz angle estimate plus a single complex gain projected from the
in-band mmWave observations, since the LOS phase offset is independent
across bands and cannot transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KAPPA_MAX, Band, BandConfig
from .pilots import FORWARD, PilotGrid, TrainingObservations
from .channel import steering_vector


@dataclass(frozen=True)
class ChannelEstimate:
    """Time-invariant per-subcarrier channel estimate (m_rx, m_tx, N)."""

    band_id: Band
    data: np.ndarray


def ls_estimate(
    obs: TrainingObservations,
    grid: PilotGrid,
    band: BandConfig,
    direction: str = FORWARD,
) -> ChannelEstimate:
    """Per-pilot LS divide, then frequency interpolation, per antenna pair.

    The reverse direction estimates the reciprocal (transposed) link and
    is returned in forward orientation (m_rx, m_tx, N).
    """
    y, comb = (obs.y_fwd, grid.fwd) if direction == FORWARD else (obs.y_rev, grid.rev)
    antennas = np.arange(len(comb.values))[:, None]
    pilots = comb.subcarriers(antennas)  # (transmitters, N/G)
    # (receivers, transmitters, N/G): every pilot in one gather
    raw = y[:, pilots, comb.symbol(antennas)] / comb.values
    n_rx, n_tx, _ = raw.shape
    band_grid = np.arange(comb.n_subcarriers)
    est = np.empty((n_rx, n_tx, band_grid.size), dtype=np.complex128)
    for r, t in np.ndindex(n_rx, n_tx):
        est[r, t] = np.interp(band_grid, pilots[t], raw[r, t])
    if direction != FORWARD:
        est = est.transpose(1, 0, 2)
    return ChannelEstimate(band_id=band.band_id, data=est)


def estimate_k_factor(est: ChannelEstimate) -> float:
    """Moment-based Rician K-factor from the envelope statistics over frequency.

    Per antenna pair: with G_a the mean and G_v the variance of |H|^2
    across subcarriers, kappa = sqrt(G_a^2 - G_v) / (G_a - sqrt(G_a^2 - G_v)).
    The median over pairs is robust to pairs in deep fades. Clamped to
    [0, 1e6]; a flat envelope therefore maps to the upper clamp.
    """
    if est.data.shape[2] < 2:
        raise ValueError("insufficient samples: need at least 2 subcarriers")
    power = np.abs(est.data) ** 2
    g_a = power.mean(axis=2)
    g_v = power.var(axis=2)
    disc = g_a**2 - g_v
    kappa = np.zeros_like(g_a)
    valid = disc > 0
    root = np.sqrt(disc[valid])
    denom = g_a[valid] - root
    with np.errstate(divide="ignore"):
        kappa[valid] = np.where(denom > 0, root / denom, KAPPA_MAX)
    return float(np.clip(np.median(kappa), 0.0, KAPPA_MAX))


def _refine_peak(values: np.ndarray, index: int, step: float) -> float:
    """Parabolic vertex offset around a grid peak, in radians."""
    if index <= 0 or index >= len(values) - 1:
        return 0.0
    left, mid, right = values[index - 1], values[index], values[index + 1]
    denom = left - 2.0 * mid + right
    if denom >= 0.0:
        return 0.0
    delta = 0.5 * (left - right) / denom
    return float(np.clip(delta, -0.5, 0.5)) * step


# Points of the uniform angle grid over [-90, 90] degrees (1-degree steps).
_ANGLE_GRID_POINTS = 181


def estimate_angles(est: ChannelEstimate, band: BandConfig) -> tuple[float, float]:
    """LOS departure/arrival angles from the beamforming spectrum peak.

    Maximizes S(aod, aoa) = sum_n |a_rx(aoa)^H H[n] a_tx(aod)|^2 over a
    uniform angle grid in [-90, 90] degrees, then refines each axis with
    one parabolic fit. The steering vectors use the band's element
    spacing. Global phase rotations of the estimate do not affect the
    result.
    """
    h = est.data
    m_rx, m_tx, _ = h.shape
    d = band.element_spacing_wavelengths
    angles = np.linspace(-np.pi / 2, np.pi / 2, _ANGLE_GRID_POINTS)
    step = angles[1] - angles[0]
    # columns of a_* over the angle grid
    a_tx = steering_vector(m_tx, d, angles)
    a_rx = steering_vector(m_rx, d, angles)
    # beamform the tx side once, then evaluate an rx-side quadratic form
    # on the per-tx-angle covariance, batched over the tx grid
    b = np.tensordot(h, a_tx, axes=([1], [0]))  # (m_rx, N, R)
    b = np.ascontiguousarray(b.transpose(2, 0, 1))  # (R, m_rx, N)
    cov = b @ b.conj().transpose(0, 2, 1)  # (R, m_rx, m_rx)
    w = cov @ a_rx  # (R, m_rx, R)
    spectrum = np.einsum("ri,jri->ij", np.conj(a_rx), w).real  # (aoa, aod)
    i_rx, j_tx = np.unravel_index(np.argmax(spectrum), spectrum.shape)
    aod = angles[j_tx] + _refine_peak(spectrum[i_rx, :], j_tx, step)
    aoa = angles[i_rx] + _refine_peak(spectrum[:, j_tx], i_rx, step)
    return float(aod), float(aoa)


def oob_aided_estimate(
    angles: tuple[float, float],
    inband: ChannelEstimate,
    band_mmw: BandConfig,
    rx_rows: np.ndarray | None = None,
) -> ChannelEstimate:
    """Frequency-flat rank-1 LOS estimate for the mmWave band.

    Builds the steering outer product at the estimated angles and fits
    one complex gain by LS projection of the in-band estimate, averaged
    over all subcarriers. rx_rows optionally restricts the projection to
    a subset of receive rows (the reconstructed matrix always covers the
    full array).
    """
    aod, aoa = angles
    if not (np.isfinite(aod) and np.isfinite(aoa)):
        raise ValueError("angle estimates must be finite")
    a_tx = steering_vector(band_mmw.m_tx, band_mmw.element_spacing_wavelengths, aod)
    a_rx = steering_vector(band_mmw.m_rx, band_mmw.element_spacing_wavelengths, aoa)
    atom = np.outer(a_rx, np.conj(a_tx))
    h = inband.data
    rows = np.arange(band_mmw.m_rx) if rx_rows is None else np.asarray(rx_rows)
    sub = atom[rows, :]
    gain = np.einsum("rt,rtn->", np.conj(sub), h[rows, :, :]) / (
        h.shape[2] * np.sum(np.abs(sub) ** 2)
    )
    n = h.shape[2]
    data = np.broadcast_to(gain * atom[:, :, None], atom.shape + (n,))
    return ChannelEstimate(band_id=band_mmw.band_id, data=np.ascontiguousarray(data))
