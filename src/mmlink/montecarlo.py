"""Seeded, reproducibly parallel Monte-Carlo sweeps over experiment grids."""

from __future__ import annotations

import itertools
import multiprocessing
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import channel as ch
from . import combining, estimation, metrics, pilots, transceiver
from .core import Band, BandConfig, Method, SeedTree, SimConfig

SWEEP_PARAMS = ("k_factor_db", "velocity_kmh", "snr_db", "pilot_k_p", "method")
# The sweep parameters that make up the propagation environment of a point.
_ENV_COLUMNS = SWEEP_PARAMS[:3]

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
            # equal after parsing (5 and 5.0) would run the same point twice
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"axis '{name}' repeats the value {repeats[0]!r}")

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
            cfg = replace(cfg, pilot_symbols_per_direction=int(value))
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


def _environment(cfg: SimConfig) -> SimConfig:
    """The config with its method and pilot pattern factored out."""
    return replace(cfg, estimation_method=Method.PERFECT, pilot_symbols_per_direction=1)


def _sub6_statistics(
    cfgs: Sequence[SimConfig],
    geom: dict[Band, ch.PlaneWave],
    tree: SeedTree,
    realization: int,
) -> dict[int, tuple[float, tuple[float, float]]]:
    """(kappa estimate, LOS angles) from sub-6 GHz training, per K_P of
    the ooba_mrc configs. The sub-6 tensor spans the longest of their
    frames and is freed on return."""
    oob = [c for c in cfgs if c.estimation_method == Method.OOBA_MRC]
    if not oob:
        return {}
    longest = max(oob, key=lambda c: c.pilot_symbols_per_direction)
    band = longest.sub6
    h_sub6 = ch.synthesize_band(
        longest, Band.SUB6, geom, tree.rng(realization, "sub6", "stochastic")
    )
    out = {}
    for k_p in sorted({c.pilot_symbols_per_direction for c in oob}):
        grid = pilots.build_pilot_grid(
            band, k_p, tree.rng(realization, "sub6", "pilots")
        )
        obs = pilots.transmit_training(
            h_sub6,
            grid,
            longest.noise_power(Band.SUB6),
            tree.rng(realization, "sub6", "train_noise"),
        )
        est = estimation.ls_estimate(obs, grid)
        out[k_p] = (
            estimation.estimate_k_factor(est),
            estimation.estimate_angles(est, band),
        )
    return out


def _ooba_mrc_estimate(
    band: BandConfig,
    training: tuple[pilots.PilotGrid, pilots.TrainingObservations, np.ndarray],
    sub6: tuple[float, tuple[float, float]],
    noise_power: float,
) -> np.ndarray:
    """Combine the in-band estimate with the rank-1 sub-6 GHz-aided one."""
    grid, obs, inband = training
    kappa, angles = sub6
    # The LOS gain/phase comes from the freshest in-band pilots: the
    # receive antennas of the last reverse-direction symbol, one symbol
    # before the data phase for every pilot pattern. This keeps the aging
    # of the rank-1 estimate independent of K_P.
    est_rev = estimation.ls_estimate(obs, grid, direction=pilots.REVERSE)
    fresh_rows = grid.rev.antennas(grid.k_p - 1)
    oob = estimation.oob_aided_estimate(angles, est_rev, band, rx_rows=fresh_rows)
    weight = combining.compute_weight(band.m_tx, band.m_rx, noise_power, kappa)
    return combining.combine_mrc(oob, inband, weight)


def run_realization(cfgs: Sequence[SimConfig], realization: int) -> list[float]:
    """One link-establishment pass per config at one environment point;
    returns the achievable SE of each config, in order.

    The configs may differ only in estimation method and pilot pattern,
    so they see one channel realization, and the work they share is done
    once: each band is synthesized over the longest frame (the Jakes and
    specular draws do not depend on frame length, so every shorter frame
    is a prefix), sub-6 GHz statistics and mmWave training are computed
    once per K_P, and the perfect-design gains once over the union of the
    data windows. The sub-6 GHz tensor is freed before the mmWave one is
    built, which keeps the peak memory of a task that of one band.

    Training occupies symbols 1..2*K_P (both TDD directions), data runs
    over the remaining symbols while the design stays frozen, so channel
    aging enters through the true time-varying channel. Deterministic
    given (master_seed, realization).
    """
    env = cfgs[0]
    if any(_environment(c) != _environment(env) for c in cfgs[1:]):
        raise ValueError("configs of one task must share the environment point")
    tree = SeedTree(env.master_seed)
    geom = ch.sample_geometry(
        tree.rng(realization, "shared", "geometry"),
        env.sub6,
        env.mmw,
        env.velocity_mps,
    )
    sub6 = _sub6_statistics(cfgs, geom, tree, realization)

    longest = max(cfgs, key=lambda c: c.pilot_symbols_per_direction)
    h_mmw = ch.synthesize_band(
        longest, Band.MMWAVE, geom, tree.rng(realization, "mmw", "stochastic")
    )
    band = env.mmw
    noise_mmw = env.noise_power(Band.MMWAVE)
    estimated = [c for c in cfgs if c.estimation_method != Method.PERFECT]
    training = {}
    for k_p in sorted({c.pilot_symbols_per_direction for c in estimated}):
        grid = pilots.build_pilot_grid(
            band, k_p, tree.rng(realization, "mmw", "pilots")
        )
        obs = pilots.transmit_training(
            h_mmw, grid, noise_mmw, tree.rng(realization, "mmw", "train_noise")
        )
        training[k_p] = (grid, obs, estimation.ls_estimate(obs, grid))

    static = env.velocity_mps == 0.0
    # 0-based index of the first data symbol of the shortest training block
    start = 2 * min(c.pilot_symbols_per_direction for c in cfgs)
    # channel constant over time: one data symbol carries the average
    stop = start + 1 if static else longest.n_symbols(Band.MMWAVE)
    perf = metrics.perfect_gain_diagonals(
        h_mmw[:, :, :, start:stop], band.tx_power_watt, noise_mmw
    )

    ses = []
    for cfg in cfgs:
        k_p = cfg.pilot_symbols_per_direction
        first_data = 2 * k_p
        if cfg.estimation_method == Method.PERFECT:
            est = h_mmw[:, :, :, first_data]
        elif cfg.estimation_method == Method.CONVENTIONAL:
            est = training[k_p][2]
        else:
            est = _ooba_mrc_estimate(band, training[k_p], sub6[k_p], noise_mmw)
        design = transceiver.design_link(est, band.tx_power_watt, noise_mmw)
        if static:
            h_data = h_mmw[:, :, :, first_data : first_data + 1]
            perf_diag = perf
        else:
            end = cfg.n_symbols(Band.MMWAVE)
            h_data = h_mmw[:, :, :, first_data:end]
            perf_diag = perf[:, first_data - start : end - start]
        result = metrics.evaluate_link(h_data, design, noise_mmw, perf_diag=perf_diag)
        ses.append(result.se_bits_per_s_per_hz)
    return ses


# Worker-side state for parallel sweeps; set once per worker process.
_WORKER_CONFIGS: tuple[SimConfig, ...] | None = None


def _init_worker(configs: tuple[SimConfig, ...]) -> None:
    global _WORKER_CONFIGS
    _WORKER_CONFIGS = configs


def _run_task(
    task: tuple[tuple[int, ...], int],
) -> tuple[tuple[int, ...], int, list[float]]:
    group, r = task
    cfgs = [_WORKER_CONFIGS[i] for i in group]
    try:
        ses = run_realization(cfgs, r)
    except Exception as exc:
        env = {k: v for k, v in point_columns(cfgs[0]).items() if k in _ENV_COLUMNS}
        raise SweepError(f"realization {r} failed at point {env}: {exc}") from exc
    return group, r, ses


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Run every sweep point; deterministic for any worker count.

    Each point's master seed derives from the base seed and the point's
    propagation environment, and each realization stream derives from
    (point seed, realization index), so the partitioning across workers
    cannot change results. A task is one (environment point,
    realization): it runs every config at that point in one
    run_realization call.
    """
    base_tree = SeedTree(spec.base.master_seed)
    configs = []
    groups: dict[str, list[int]] = {}
    for point in spec.points():
        cfg = apply_point(spec.base, point)
        # Seed from the propagation environment only (K-factor, velocity,
        # SNR), so different methods and pilot patterns at the same point
        # see the same channel realizations and compare pairwise.
        env = f"{cfg.k_factor_sub6_db!r}|{cfg.velocity_mps!r}|{cfg.snr_db_mmw!r}"
        groups.setdefault(env, []).append(len(configs))
        configs.append(
            replace(cfg, master_seed=base_tree.derive(0, "sweep-env", env))
        )
    configs = tuple(configs)
    n_real = spec.base.n_realizations
    tasks = [(tuple(g), r) for g in groups.values() for r in range(n_real)]

    if workers <= 1:
        _init_worker(configs)
        outcomes = [_run_task(task) for task in tasks]
    else:
        ctx = multiprocessing.get_context()
        with ctx.Pool(workers, initializer=_init_worker, initargs=(configs,)) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            outcomes = list(pool.imap_unordered(_run_task, tasks, chunk))
    results: dict[tuple[int, int], float] = {}
    for group, r, ses in outcomes:
        results.update(((i, r), se) for i, se in zip(group, ses))

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
