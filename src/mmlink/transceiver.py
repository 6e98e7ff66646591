"""Link design from a channel estimate: compact SVD plus water-filling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SV_FLOOR = 1e-300  # singular values at/below this count as zero streams


@dataclass(frozen=True)
class LinkDesign:
    """Per-subcarrier precoder/combiner/power loading.

    combiner[n] (m_rx x L) and precoder[n] (m_tx x L) are semi-unitary,
    singular values are nonincreasing and the power rows each sum to the
    total budget (zero on dead subcarriers).
    """

    combiner: np.ndarray  # (N, m_rx, L)
    precoder: np.ndarray  # (N, m_tx, L)
    singular_values: np.ndarray  # (N, L)
    power: np.ndarray  # (N, L)
    dead: np.ndarray  # (N,) bool, True when the estimate was all-zero
    p_total: float

    @property
    def n_streams(self) -> int:
        return self.singular_values.shape[1]


def waterfill_power(
    singular_values: np.ndarray, noise_power: float, p_total: float
) -> np.ndarray:
    """Water-filling over streams for one or many subcarriers.

    singular_values has shape (..., L) sorted nonincreasing; returns the
    matching power loading with sum p_total per leading index. Rows whose
    singular values are all zero get zero power.
    """
    sv = np.asarray(singular_values, dtype=np.float64)
    with np.errstate(divide="ignore"):
        thresholds = np.where(sv > _SV_FLOOR, noise_power / sv**2, np.inf)
    csum = np.cumsum(np.where(np.isfinite(thresholds), thresholds, np.inf), axis=-1)
    counts = np.arange(1, sv.shape[-1] + 1, dtype=np.float64)
    levels = (p_total + csum) / counts  # candidate water level with m streams
    valid = levels > thresholds
    # largest valid stream count; water level then sits below the next threshold
    m_star = sv.shape[-1] - 1 - np.argmax(valid[..., ::-1], axis=-1)
    any_valid = np.any(valid, axis=-1)
    m_star = np.where(any_valid, m_star, 0)
    mu = np.take_along_axis(levels, m_star[..., None], axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf on all-zero rows
        power = np.clip(mu - thresholds, 0.0, None)
    power[~any_valid] = 0.0
    return power


def design_link(est: np.ndarray, p_total: float, noise_power: float) -> LinkDesign:
    """Compact SVD of the (m_rx, m_tx, N) estimate per subcarrier plus power loading.

    The phase ambiguity of each singular pair is fixed by rotating the
    first nonzero entry of every right singular vector to be real and
    positive, which makes designs deterministic.
    """
    if p_total <= 0:
        raise ValueError("p_total must be > 0")
    if not np.all(np.isfinite(est)):
        raise ValueError("channel estimate contains non-finite entries")
    h = np.ascontiguousarray(est.transpose(2, 0, 1))  # (N, m_rx, m_tx)
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    f = vh.conj().transpose(0, 2, 1)  # (N, m_tx, L)
    # sign convention: first entry of each precoder column with magnitude
    # above threshold becomes real positive; the combiner follows suit
    mags = np.abs(f)
    first = np.argmax(mags > 1e-12, axis=1)  # (N, L)
    anchor = np.take_along_axis(f, first[:, None, :], axis=1)[:, 0, :]
    safe = np.where(np.abs(anchor) > 0, anchor, 1.0)
    phase = np.conj(safe) / np.abs(safe)
    f = f * phase[:, None, :]
    u = u * phase[:, None, :]
    dead = ~np.any(s > _SV_FLOOR, axis=-1)
    power = waterfill_power(s, noise_power, p_total)
    return LinkDesign(
        combiner=u,
        precoder=f,
        singular_values=s,
        power=power,
        dead=dead,
        p_total=p_total,
    )

