"""Dual-band Rician channel synthesis with Jakes sum-of-sinusoids dynamics.

The scattered part is a tapped-delay-line surrogate for an urban-macro
LOS profile: a dominant zero-delay specular ray (rank-1, random reflector
direction per band), an exponential near cluster of i.i.d. taps and one
far echo, with delays matched exactly to the configured RMS delay spread.
Taps evolve in time through independent sum-of-sinusoids processes, so
frequency selectivity is controlled by the delay spread and temporal
decorrelation by the velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Band, BandConfig, SimConfig


@dataclass(frozen=True)
class PlaneWave:
    """A rank-1 ray a_rx(aoa) a_tx(aod)^H exp(j(phase + 2 pi nu k / df)):
    the line-of-sight path of a band, or the specular ray of its
    scattered component."""

    aod_rad: float
    aoa_rad: float
    phase_rad: float
    doppler_hz: float


def velocity_mps_to_max_doppler(velocity_mps: float, band: BandConfig) -> float:
    """Maximum Doppler shift v / wavelength of a receiver moving at v."""
    return velocity_mps / band.wavelength_m


def _moving_wave(
    aod: float, aoa: float, phase: float, band: BandConfig, velocity_mps: float
) -> PlaneWave:
    """A ray whose Doppler is (v / wavelength) * cos(AoA), i.e. the
    receiver moves along its array axis."""
    doppler = velocity_mps_to_max_doppler(velocity_mps, band) * np.cos(aoa)
    return PlaneWave(aod, aoa, phase, doppler)


def sample_geometry(
    rng: np.random.Generator,
    sub6: BandConfig,
    mmw: BandConfig,
    velocity_mps: float,
) -> dict[Band, PlaneWave]:
    """Draw the line-of-sight ray of each band; Doppler follows receiver
    motion.

    Departure/arrival angles are common to the co-located arrays and
    independent U[-pi/2, pi/2]; the reference-antenna phase offsets are
    per band and independent U[-pi, pi).
    """
    aod = rng.uniform(-np.pi / 2, np.pi / 2)
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    chi_s = rng.uniform(-np.pi, np.pi)
    chi_m = rng.uniform(-np.pi, np.pi)
    return {
        Band.SUB6: _moving_wave(aod, aoa, chi_s, sub6, velocity_mps),
        Band.MMWAVE: _moving_wave(aod, aoa, chi_m, mmw, velocity_mps),
    }


def steering_vector(
    n_elements: int, spacing_wavelengths: float, angle_rad: float | np.ndarray
) -> np.ndarray:
    """Uniform linear array response; entry m is exp(-j 2 pi m d sin(angle)).

    For a 1-D array of angles the result is the (n_elements, len(angles))
    dictionary with one response per column.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    m = np.arange(n_elements).reshape((-1,) + (1,) * np.ndim(angle_rad))
    return np.exp(-2j * np.pi * m * spacing_wavelengths * np.sin(angle_rad))


def los_sequence(
    wave: PlaneWave, band: BandConfig, symbol_indices: np.ndarray
) -> np.ndarray:
    """Matrices of one ray at a set of symbol indices, shape (m_rx, m_tx, K)."""
    a_tx = steering_vector(band.m_tx, band.element_spacing_wavelengths, wave.aod_rad)
    a_rx = steering_vector(band.m_rx, band.element_spacing_wavelengths, wave.aoa_rad)
    k = np.asarray(symbol_indices, dtype=np.float64)
    df = band.subcarrier_spacing_hz
    phasor = np.exp(1j * (wave.phase_rad + 2.0 * np.pi * wave.doppler_hz * k / df))
    return np.einsum("r,t,k->rtk", a_rx, np.conj(a_tx), phasor)


@dataclass(frozen=True)
class TdlProfile:
    """Tapped-delay-line power-delay profile; powers sum to 1."""

    delays_s: np.ndarray
    powers: np.ndarray

    @property
    def n_taps(self) -> int:
        return len(self.delays_s)

    def rms_delay_spread_s(self) -> float:
        mean = float(np.sum(self.powers * self.delays_s))
        second = float(np.sum(self.powers * self.delays_s**2))
        return float(np.sqrt(max(second - mean**2, 0.0)))


# Taps of the delay profile, and sinusoids per Jakes fading process.
N_TAPS = 12
N_SINUSOIDS = 32
# Power share of the zero-delay tap, mirroring the dominant specular
# cluster of an urban-macro LOS delay profile. In synthesize_band the
# specular ray carries all of it.
SPECULAR_FRACTION = 0.5
# Near-cluster span and decay constant, and the far echo's delay and
# power share, all relative to the target RMS delay spread. The far echo
# sets a pattern-independent estimation floor; the near cluster controls
# how the comb strides resolve the channel.
_NEAR_SPAN = 1.8
_NEAR_DECAY = 0.45
_FAR_DELAY = 3.2
_FAR_POWER = 0.10


def make_tdl_profile(
    rms_delay_spread_s: float,
    n_taps: int = N_TAPS,
    specular_fraction: float = SPECULAR_FRACTION,
) -> TdlProfile:
    """Clustered PDP: specular zero-delay tap, exponential near cluster,
    one far echo.

    specular_fraction of the power sits at zero delay, a far echo carries
    a fixed small share, and the remainder decays exponentially over the
    near cluster. Delays are rescaled after construction so the profile's
    empirical RMS delay spread matches the target exactly.
    """
    if rms_delay_spread_s < 0:
        raise ValueError("rms_delay_spread_s must be >= 0")
    if not 0.0 <= specular_fraction < 1.0:
        raise ValueError("specular_fraction must be in [0, 1)")
    if rms_delay_spread_s == 0 or n_taps == 1:
        return TdlProfile(delays_s=np.zeros(1), powers=np.ones(1))
    if n_taps < 2:
        raise ValueError("n_taps must be >= 2 for a nonzero delay spread")
    sigma = rms_delay_spread_s
    n_near = n_taps - 2
    near_delays = np.linspace(0.0, _NEAR_SPAN * sigma, n_near + 1)[1:]
    near_powers = np.exp(-near_delays / (_NEAR_DECAY * sigma))
    far_power = min(_FAR_POWER, 1.0 - specular_fraction)
    tail_power = 1.0 - specular_fraction - far_power
    if n_near > 0:
        near_powers = near_powers / near_powers.sum() * tail_power
    else:
        near_powers = np.zeros(0)
        far_power += tail_power
    delays = np.concatenate([[0.0], near_delays, [_FAR_DELAY * sigma]])
    powers = np.concatenate([[specular_fraction], near_powers, [far_power]])
    profile = TdlProfile(delays_s=delays, powers=powers)
    scale = sigma / profile.rms_delay_spread_s()
    return TdlProfile(delays_s=delays * scale, powers=powers)


@dataclass(frozen=True)
class JakesProcess:
    """Sum-of-sinusoids fading generator for a grid of independent links.

    Each leading-axes element is an independent unit-power process built
    from N_SINUSOIDS plane waves with uniformly random arrival angles and
    phases. At zero Doppler the process degenerates to a random constant.
    """

    omega: np.ndarray  # angular Doppler per sinusoid, shape (*links, N_SINUSOIDS)
    phases: np.ndarray

    @classmethod
    def sample(
        cls,
        link_shape: tuple[int, ...],
        max_doppler_hz: float,
        rng: np.random.Generator,
    ) -> "JakesProcess":
        shape = tuple(link_shape) + (N_SINUSOIDS,)
        arrival = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        omega = 2.0 * np.pi * max_doppler_hz * np.cos(arrival)
        return cls(omega=omega, phases=phases)

    def gains(self, times_s: np.ndarray) -> np.ndarray:
        """Complex gains at the given times, shape (*links, len(times))."""
        t = np.asarray(times_s, dtype=np.float64)
        arg = self.omega[..., :, None] * t + self.phases[..., :, None]
        return np.exp(1j * arg).sum(axis=-2) / np.sqrt(N_SINUSOIDS)


def sample_specular_tap(
    rng: np.random.Generator,
    band: BandConfig,
    velocity_mps: float,
) -> PlaneWave:
    """Draw a random reflector ray for one band.

    Mirrors the dominant first cluster of the urban-macro LOS profile: a
    single reflected ray, rank-1 across the arrays, with its own phase
    and Doppler. Angles, phase and Doppler are drawn per band so the
    scattered components of the two bands stay statistically
    independent.
    """
    aod = rng.uniform(-np.pi / 2, np.pi / 2)
    aoa = rng.uniform(-np.pi / 2, np.pi / 2)
    phase = rng.uniform(-np.pi, np.pi)
    return _moving_wave(aod, aoa, phase, band, velocity_mps)


def stochastic_channel(
    profile: TdlProfile,
    band: BandConfig,
    jakes: JakesProcess,
    symbol_indices: np.ndarray,
    specular: PlaneWave | None = None,
) -> np.ndarray:
    """Frequency response of the scattered component, (m_rx, m_tx, N, K).

    H[r, t, n, k] = sum_l g_{r,t,l}[k] sqrt(p_l) exp(-j 2 pi f_n tau_l)
    with f_n the centered baseband subcarrier frequency. When a specular
    ray is given, SPECULAR_FRACTION of the zero-delay power is that
    rank-1 plane wave instead of an i.i.d. coefficient; the zero-delay
    tap must cover it. Entries have unit average power either way.
    """
    if jakes.omega.shape[:-1] != (band.m_rx, band.m_tx, profile.n_taps):
        raise ValueError("jakes process shape must be (m_rx, m_tx, n_taps)")
    k = np.asarray(symbol_indices, dtype=np.float64)
    times = k / band.subcarrier_spacing_hz
    g = jakes.gains(times)  # (m_rx, m_tx, L, K)
    powers = profile.powers
    if specular is not None:
        if profile.delays_s[0] != 0.0 or powers[0] < SPECULAR_FRACTION:
            raise ValueError("specular power exceeds the zero-delay tap")
        powers = powers.copy()
        powers[0] -= SPECULAR_FRACTION
    n = np.arange(band.n_subcarriers)
    f_n = (n - (band.n_subcarriers - 1) / 2.0) * band.subcarrier_spacing_hz
    basis = np.sqrt(powers)[:, None] * np.exp(
        -2j * np.pi * np.outer(profile.delays_s, f_n)
    )  # (L, N)
    h = np.tensordot(g, basis, axes=([2], [0]))  # (m_rx, m_tx, K, N)
    h = np.ascontiguousarray(h.transpose(0, 1, 3, 2))
    if specular is not None:
        ray = los_sequence(specular, band, k)
        h += np.sqrt(SPECULAR_FRACTION) * ray[:, :, None, :]
    return h


def compose_channel(los: np.ndarray, sp: np.ndarray, k_factor_linear: float) -> np.ndarray:
    """Weighted Rician sum of the LOS and scattered components.

    los may omit the subcarrier axis (it is frequency flat) in which case
    it broadcasts against sp's (m_rx, m_tx, N, K) layout.
    """
    if k_factor_linear < 0:
        raise ValueError("K-factor must be >= 0")
    if los.ndim == 3 and sp.ndim == 4:
        los = los[:, :, None, :]
    w_los = np.sqrt(k_factor_linear / (1.0 + k_factor_linear))
    w_sp = np.sqrt(1.0 / (1.0 + k_factor_linear))
    return w_los * los + w_sp * sp


def synthesize_band(
    cfg: SimConfig,
    band_id: Band,
    geom: dict[Band, PlaneWave],
    stochastic_rng: np.random.Generator,
) -> np.ndarray:
    """Build the full channel H[rx, tx, subcarrier, symbol] for one band
    over its whole frame, shape (m_rx, m_tx, N, K).

    geom holds the line-of-sight ray of each band (sample_geometry). The
    scattered component's specular tap gets its own random reflector
    ray, drawn from this band's stochastic stream. At zero velocity both
    components are time invariant, so a single snapshot is broadcast over
    the symbol axis.
    """
    band = cfg.band(band_id)
    n_symbols = cfg.n_symbols(band_id)
    static = cfg.velocity_mps == 0.0
    symbols = np.array([1]) if static else np.arange(1, n_symbols + 1)
    profile = make_tdl_profile(band.rms_delay_spread_s)
    specular = None
    if profile.n_taps > 1:
        specular = sample_specular_tap(stochastic_rng, band, cfg.velocity_mps)
    jakes = JakesProcess.sample(
        (band.m_rx, band.m_tx, profile.n_taps),
        velocity_mps_to_max_doppler(cfg.velocity_mps, band),
        stochastic_rng,
    )
    sp = stochastic_channel(profile, band, jakes, symbols, specular)
    los = los_sequence(geom[band_id], band, symbols)
    data = compose_channel(los, sp, cfg.k_factor_linear(band_id))
    if static:
        data = np.broadcast_to(data, data.shape[:3] + (n_symbols,))
    return data
