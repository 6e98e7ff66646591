"""Reference implementations that tests compare the simulator against.

Each oracle computes one quantity per cell, or per process draw, in the
plainest form, so a batched kernel in src/mmlink can be checked cell by
cell.
"""

import numpy as np


def gain_matrix(
    h: np.ndarray, combiner: np.ndarray, precoder: np.ndarray, power: np.ndarray
) -> np.ndarray:
    """Effective stream coupling Q^H H F P^(1/2) for one (n, k) cell."""
    return combiner.conj().T @ h @ (precoder * np.sqrt(power)[None, :])


def error_covariance(g_perfect: np.ndarray, g_est: np.ndarray) -> np.ndarray:
    """Per-stream diagonal of (1/L) eps eps^H with eps = G - G_bar.

    Accepts stacked (..., L, L) gain matrices; the result drops the last
    axis. Entries are real and nonnegative.
    """
    if g_perfect.shape != g_est.shape:
        raise ValueError("gain matrices must have matching shapes")
    eps = g_perfect - g_est
    n_streams = eps.shape[-1]
    return np.sum(np.abs(eps) ** 2, axis=-1) / n_streams


def closed_form_se(design, noise_power: float) -> float:
    """Water-filling SE when the design matches the channel exactly."""
    gains = design.power * design.singular_values**2 / noise_power
    return float(np.sum(np.log2(1.0 + gains)) / design.power.shape[0])


def waterfill_bisection(singular_values, noise_power, p_total):
    """Bisect the water level until the stream powers sum to p_total."""
    sv = np.asarray(singular_values, dtype=float)
    finite = sv > 0
    if not np.any(finite):
        return np.zeros_like(sv)
    a = np.full(sv.shape, np.inf)
    a[finite] = noise_power / sv[finite] ** 2
    lo = np.min(a[finite])
    hi = lo + p_total + 1.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        total = np.sum(np.clip(mu - a, 0.0, None))
        if total > p_total:
            hi = mu
        else:
            lo = mu
    mu = 0.5 * (lo + hi)
    return np.clip(mu - a, 0.0, None)


def jakes_autocorrelation(
    jakes,
    lags_s: np.ndarray,
    n_samples: int = 512,
    sample_spacing_s: float | None = None,
) -> np.ndarray:
    """Empirical autocorrelation of one process draw at the given lags.

    The reference curve is J0(2 pi nu_max tau); matching it to within a
    few percent requires averaging over many independent draws.
    """
    lags = np.asarray(lags_s, dtype=np.float64)
    if sample_spacing_s is None:
        max_lag = float(lags.max()) if lags.size else 0.0
        sample_spacing_s = max_lag / 8.0 if max_lag > 0 else 1.0
    times = np.arange(n_samples) * sample_spacing_s
    base = jakes.gains(times)
    power = np.mean(np.abs(base) ** 2, axis=-1)
    out = np.empty(lags.shape, dtype=np.float64)
    for i, lag in enumerate(lags):
        shifted = jakes.gains(times + lag)
        out[i] = np.real(np.mean(base * np.conj(shifted), axis=-1) / power)
    return out
