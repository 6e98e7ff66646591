"""Seeded, reproducibly parallel Monte-Carlo sweeps over experiment grids."""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass, replace

import numpy as np

from . import channel as ch
from . import combining, estimation, metrics, pilots, transceiver
from .core import Band, Method, SeedTree, SimConfig, with_pilot_symbols

SWEEP_PARAMS = ("k_factor_db", "velocity_kmh", "snr_db", "pilot_k_p", "method")

CSV_HEADER = (
    "k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,se_stderr,"
    "n_realizations"
)


class SweepError(RuntimeError):
    """A realization failed; carries the sweep point and index."""


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian experiment grid around a base configuration."""

    base: SimConfig
    axes: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis names must be unique")
        for name, values in self.axes:
            if name not in SWEEP_PARAMS:
                raise ValueError(f"unknown sweep parameter '{name}'")
            if len(values) == 0:
                raise ValueError(f"axis '{name}' has no values")

    def points(self) -> list[dict]:
        if not self.axes:
            return [{}]
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]


@dataclass(frozen=True)
class SweepRecord:
    point: dict
    se_mean: float
    se_stderr: float
    n_realizations: int


def apply_point(base: SimConfig, point: dict) -> SimConfig:
    """Bind one sweep point's parameters onto the base config.

    Sweeping snr_db moves the mmWave SNR and shifts the sub-6 GHz SNR by
    the same amount, preserving the configured inter-band offset.
    Sweeping pilot_k_p preserves the number of data symbols.
    """
    cfg = base
    for name, value in point.items():
        if name == "k_factor_db":
            cfg = replace(cfg, k_factor_sub6_db=float(value))
        elif name == "velocity_kmh":
            cfg = replace(cfg, velocity_mps=float(value) / 3.6)
        elif name == "snr_db":
            offset = base.snr_db_sub6 - base.snr_db_mmw
            cfg = replace(
                cfg, snr_db_mmw=float(value), snr_db_sub6=float(value) + offset
            )
        elif name == "pilot_k_p":
            cfg = with_pilot_symbols(cfg, int(value))
        elif name == "method":
            cfg = replace(cfg, estimation_method=Method(value))
        else:
            raise ValueError(f"unknown sweep parameter '{name}'")
    return cfg


def point_columns(cfg: SimConfig) -> dict:
    """The five sweep-parameter values a config occupies."""
    return {
        "k_factor_db": cfg.k_factor_sub6_db,
        "velocity_kmh": cfg.velocity_mps * 3.6,
        "snr_db": cfg.snr_db_mmw,
        "pilot_k_p": cfg.pilot_symbols_per_direction,
        "method": cfg.estimation_method.value,
    }


def run_realization(cfg: SimConfig, realization: int) -> float:
    """One full link-establishment pass; returns the achievable SE.

    Training occupies symbols 1..2*K_P (both TDD directions), data runs
    over the remaining symbols while the design stays frozen, so channel
    aging enters through the true time-varying channel. Deterministic
    given (master_seed, realization).
    """
    tree = SeedTree(cfg.master_seed)
    k_p = cfg.pilot_symbols_per_direction
    first_data = 2 * k_p  # 0-based index of the first data symbol
    geom = ch.sample_geometry(
        tree.rng(realization, "shared", "geometry"),
        cfg.sub6,
        cfg.mmw,
        cfg.velocity_mps,
    )
    h_mmw = ch.synthesize_band(
        cfg, Band.MMWAVE, geom, tree.rng(realization, "mmw", "stochastic")
    )
    noise_mmw = cfg.noise_power(Band.MMWAVE)
    method = cfg.estimation_method

    if method == Method.PERFECT:
        est = estimation.ChannelEstimate(Band.MMWAVE, h_mmw.data[:, :, :, first_data])
    else:
        grid_mmw = pilots.build_pilot_grid(
            cfg.mmw, k_p, tree.rng(realization, "mmw", "pilots")
        )
        obs_mmw = pilots.transmit_training(
            h_mmw.data, grid_mmw, noise_mmw, tree.rng(realization, "mmw", "train_noise")
        )
        inband = estimation.ls_estimate(obs_mmw, grid_mmw, cfg.mmw)
        if method == Method.CONVENTIONAL:
            est = inband
        else:
            h_sub6 = ch.synthesize_band(
                cfg, Band.SUB6, geom, tree.rng(realization, "sub6", "stochastic")
            )
            grid_sub6 = pilots.build_pilot_grid(
                cfg.sub6, k_p, tree.rng(realization, "sub6", "pilots")
            )
            obs_sub6 = pilots.transmit_training(
                h_sub6.data,
                grid_sub6,
                cfg.noise_power(Band.SUB6),
                tree.rng(realization, "sub6", "train_noise"),
            )
            inband_sub6 = estimation.ls_estimate(obs_sub6, grid_sub6, cfg.sub6)
            kappa = estimation.estimate_k_factor(inband_sub6)
            angles = estimation.estimate_angles(inband_sub6, cfg.sub6)
            # The LOS gain/phase comes from the freshest in-band pilots:
            # the last reverse-direction symbol, one symbol before the
            # data phase for every pilot pattern. This keeps the aging of
            # the rank-1 estimate independent of K_P.
            est_rev = estimation.ls_estimate(
                obs_mmw, grid_mmw, cfg.mmw, direction=pilots.REVERSE
            )
            group = cfg.mmw.m_rx // k_p
            fresh_rows = np.arange((k_p - 1) * group, k_p * group)
            oob = estimation.oob_aided_estimate(
                angles, est_rev, cfg.mmw, rx_rows=fresh_rows
            )
            weight = combining.compute_weight(
                cfg.mmw.m_tx, cfg.mmw.m_rx, noise_mmw, kappa
            )
            est = combining.combine_mrc(oob, inband, weight)

    design = transceiver.design_link(est, cfg.mmw.tx_power_watt, noise_mmw)
    if cfg.velocity_mps == 0.0:
        # channel constant over time: one data symbol carries the average
        h_data = h_mmw.data[:, :, :, first_data : first_data + 1]
    else:
        h_data = h_mmw.data[:, :, :, first_data:]
    result = metrics.evaluate_link(h_data, design, noise_mmw)
    return result.se_bits_per_s_per_hz


# Worker-side state for parallel sweeps; set once per worker process.
_WORKER_CONFIGS: tuple[SimConfig, ...] | None = None


def _init_worker(configs: tuple[SimConfig, ...]) -> None:
    global _WORKER_CONFIGS
    _WORKER_CONFIGS = configs


def _run_task(task: tuple[int, int]) -> tuple[int, int, float]:
    pt_idx, r = task
    try:
        se = run_realization(_WORKER_CONFIGS[pt_idx], r)
    except Exception as exc:
        raise SweepError(
            f"realization {r} failed at point "
            f"{point_columns(_WORKER_CONFIGS[pt_idx])}: {exc}"
        ) from exc
    return pt_idx, r, se


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Run every sweep point; deterministic for any worker count.

    Each point's master seed derives from the base seed and the point's
    propagation environment, and each realization stream derives from
    (point seed, realization index), so the partitioning across workers
    cannot change results.
    """
    base_tree = SeedTree(spec.base.master_seed)
    configs = []
    for point in spec.points():
        cfg = apply_point(spec.base, point)
        # Seed from the propagation environment only (K-factor, velocity,
        # SNR), so different methods and pilot patterns at the same point
        # see the same channel realizations and compare pairwise.
        env = f"{cfg.k_factor_sub6_db!r}|{cfg.velocity_mps!r}|{cfg.snr_db_mmw!r}"
        configs.append(
            replace(cfg, master_seed=base_tree.derive(0, "sweep-env", env))
        )
    configs = tuple(configs)
    n_real = spec.base.n_realizations
    tasks = [(i, r) for i in range(len(configs)) for r in range(n_real)]

    results: dict[tuple[int, int], float] = {}
    if workers <= 1:
        _init_worker(configs)
        for task in tasks:
            pt_idx, r, se = _run_task(task)
            results[(pt_idx, r)] = se
    else:
        ctx = multiprocessing.get_context()
        with ctx.Pool(workers, initializer=_init_worker, initargs=(configs,)) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            for pt_idx, r, se in pool.imap_unordered(_run_task, tasks, chunk):
                results[(pt_idx, r)] = se

    records = []
    for i, cfg in enumerate(configs):
        ses = np.array([results[(i, r)] for r in range(n_real)])
        stderr = float(np.std(ses, ddof=1) / np.sqrt(n_real)) if n_real > 1 else 0.0
        records.append(
            SweepRecord(
                point=point_columns(cfg),
                se_mean=float(np.mean(ses)),
                se_stderr=stderr,
                n_realizations=n_real,
            )
        )
    return records


def format_csv(records: list[SweepRecord]) -> str:
    """Render sweep records as the canonical results CSV (LF endings)."""
    lines = [CSV_HEADER]
    for rec in records:
        p = rec.point
        lines.append(
            ",".join(
                [
                    f"{p['k_factor_db']:.6g}",
                    f"{p['velocity_kmh']:.6g}",
                    f"{p['snr_db']:.6g}",
                    str(p["pilot_k_p"]),
                    str(p["method"]),
                    f"{rec.se_mean:.6g}",
                    f"{rec.se_stderr:.6g}",
                    str(rec.n_realizations),
                ]
            )
        )
    return "\n".join(lines) + "\n"
