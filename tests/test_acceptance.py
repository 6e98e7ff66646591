"""Acceptance suite: one test per criterion, at the stated tolerances.

Trend criteria run the scaled mmWave band (336 subcarriers at the full
120 kHz spacing), which preserves per-subcarrier statistics. Exact curve
values are checked inside windows rather than bit-exactly because the
scattered channel component is a delay-profile surrogate.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import j0

from mmlink.core import Band, Method, SeedTree, default_config
from mmlink import channel as ch
from mmlink.cli import main
from mmlink.combining import compute_weight
from mmlink.metrics import sinr_per_stream, spectral_efficiency
from mmlink.montecarlo import SweepSpec, run_realization, run_sweep
from mmlink.transceiver import design_link, waterfill_power

from oracles import (
    closed_form_se,
    error_covariance,
    gain_matrix,
    jakes_autocorrelation,
    waterfill_bisection,
)

WORKERS = min(2, os.cpu_count() or 1)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion: int, label: str) -> None:
    print(f"[acceptance] criterion {criterion} ({label}): PASS")


def sweep_table(base, axes, workers=WORKERS):
    """Run a sweep and index mean SE by the swept parameter values."""
    records = run_sweep(SweepSpec(base=base, axes=axes), workers=workers)
    names = [name for name, _ in axes]
    return {tuple(rec.point[n] for n in names): rec.se_mean for rec in records}


def test_criterion_1_deterministic_math_oracles():
    start = time.perf_counter()

    # array steering: entry m is exp(-j 2 pi m d sin(angle))
    v = ch.steering_vector(8, 0.5, np.pi / 6)
    assert np.allclose(v, np.exp(-1j * np.pi * 0.5 * np.arange(8)), atol=1e-12)
    assert np.allclose(ch.steering_vector(4, 0.5, 0.0), 1.0)
    assert np.allclose(ch.steering_vector(2, 0.5, np.pi / 2), [1.0, -1.0], atol=1e-12)

    # combining weight closed form
    assert compute_weight(8, 8, 1.0, 1.0) == pytest.approx(64.0 / 97.0, abs=1e-8)
    assert compute_weight(8, 8, 0.0, 3.0) == 0.0
    assert compute_weight(8, 8, 1.0, 1e12) == pytest.approx(64.0 / 65.0, abs=1e-8)

    # hand-sized gain/SINR/SE chain
    g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    sinr = sinr_per_stream(g, np.eye(2, dtype=complex), np.zeros(2), 1.0)
    assert np.allclose(sinr, [0.5, 1.0], atol=1e-8)
    h = np.array([[1.0, 1j], [0.0, 2.0]])
    gm = gain_matrix(h, np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                     np.array([4.0, 1.0]))
    assert np.allclose(gm, [[2.0, 1j], [0.0, 2.0]], atol=1e-12)
    eps_a = np.array([[1 + 1j, 0.0], [0.5, 2.0]], dtype=complex)
    assert np.allclose(
        error_covariance(eps_a, np.zeros((2, 2), dtype=complex)),
        np.real(np.diag(eps_a @ eps_a.conj().T)) / 2,
        atol=1e-12,
    )
    assert spectral_efficiency(
        np.array([3.0, 1.0]).reshape(1, 1, 2)
    ).se_bits_per_s_per_hz == pytest.approx(3.0, abs=1e-8)
    assert spectral_efficiency(np.ones((4, 2, 8))).se_bits_per_s_per_hz == (
        pytest.approx(8.0, abs=1e-8)
    )

    # water-filling against the independent bisection oracle
    rng = np.random.default_rng(2024)
    sv = np.sort(rng.uniform(0.0, 4.0, size=(1000, 8)), axis=1)[:, ::-1]
    sv[rng.uniform(size=sv.shape) < 0.2] = 0.0
    sv = np.sort(sv, axis=1)[:, ::-1]
    power = waterfill_power(sv, 0.8, 1.0)
    for i in range(1000):
        assert np.allclose(
            power[i], waterfill_bisection(sv[i], 0.8, 1.0), atol=1e-8
        ), f"profile {i}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    report(1, "deterministic math oracles")


def test_criterion_2_jakes_autocorrelation():
    start = time.perf_counter()
    nu_max = 80.0
    nt = np.linspace(0.0, 0.5, 11)
    lags = nt / nu_max
    acc = np.zeros_like(lags)
    n_draws = 220
    for seed in range(n_draws):
        jakes = ch.JakesProcess.sample(
            (), nu_max, np.random.Generator(np.random.PCG64(seed))
        )
        acc += jakes_autocorrelation(jakes, lags)
    acc /= n_draws
    ref = j0(2.0 * np.pi * nt)
    err = np.abs(acc - ref)
    assert np.all(err < 0.05), f"max autocorrelation error {err.max():.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"Jakes check took {elapsed:.1f}s"
    report(2, "Jakes autocorrelation vs Bessel within 0.05")


def test_criterion_3_pilot_pattern_goldens(capsys):
    for k_p in (1, 2, 4):
        assert main(["pilots", "8", str(k_p), "16"]) == 0
        out = capsys.readouterr().out
        golden_path = os.path.join(GOLDEN_DIR, f"pilots_m8_kp{k_p}_n16.csv")
        with open(golden_path, "r", encoding="utf-8") as fh:
            assert out == fh.read(), f"K_P={k_p} grid deviates from golden"
        # non-overlap: within a symbol no two antennas share a subcarrier
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        cells = [(d, s, n) for _, d, s, n in rows]
        assert len(cells) == len(set(cells)), f"K_P={k_p} layout overlaps"
    with capsys.disabled():
        report(3, "pilot grids match independent enumeration")


def test_criterion_4_static_trend_reproduction():
    start = time.perf_counter()
    base = default_config(scaled_mmw=True, k_factor_sub6_db=-20.0,
                          n_realizations=200)
    targets = {0.0: (2.7, 3.4, 3.5), 10.0: (7.0, 11.0, 12.5)}
    tolerances = {0.0: 0.7, 10.0: 1.5}
    table = sweep_table(
        base, (("snr_db", (0.0, 10.0)), ("pilot_k_p", (1, 2, 4)))
    )
    for snr, tgts in targets.items():
        values = [table[(snr, k_p)] for k_p in (1, 2, 4)]
        assert values[0] < values[1] < values[2], (
            f"SNR {snr}: SE must increase with the pilot pattern, got {values}"
        )
        for k_p, got, want in zip((1, 2, 4), values, tgts):
            assert abs(got - want) <= tolerances[snr], (
                f"SNR {snr} K_P={k_p}: SE {got:.2f} outside {want}+-{tolerances[snr]}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"static trend run took {elapsed:.0f}s"
    report(4, f"static SE windows at both SNRs ({elapsed:.0f}s)")


def test_criterion_5_high_kappa_convergence():
    base = default_config(scaled_mmw=True, k_factor_sub6_db=20.0,
                          n_realizations=200)
    table = sweep_table(
        base,
        (("method", ("conventional", "ooba_mrc")), ("pilot_k_p", (1, 2, 4))),
    )
    for method in ("conventional", "ooba_mrc"):
        values = [table[(method, k_p)] for k_p in (1, 2, 4)]
        spread = max(values) - min(values)
        assert spread < 0.3, f"{method}: SE spread {spread:.2f} >= 0.3"
    for k_p in (1, 2, 4):
        assert table[("ooba_mrc", k_p)] >= table[("conventional", k_p)], (
            f"K_P={k_p}: combined estimate must not trail the conventional one"
        )
    # perfect CSI bound sits above both methods (paired channel draws)
    from dataclasses import replace

    perfect_base = replace(base, estimation_method=Method.PERFECT)
    perfect_se = run_sweep(SweepSpec(base=perfect_base), workers=WORKERS)[0].se_mean
    for key, se in table.items():
        assert perfect_se >= se - 0.1, f"perfect bound violated at {key}"
    report(5, "high-K convergence and method ordering")


def test_criterion_6_dynamic_nlos_crossover():
    base = default_config(scaled_mmw=True, k_factor_sub6_db=-20.0,
                          n_realizations=300)
    velocities = (0.0, 50.0, 75.0, 100.0, 150.0, 200.0)
    table = sweep_table(
        base, (("velocity_kmh", velocities), ("pilot_k_p", (1, 2, 4)))
    )
    curves = {k_p: [table[(v, k_p)] for v in velocities] for k_p in (1, 2, 4)}
    for k_p, curve in curves.items():
        drops = np.diff(curve)
        assert np.all(drops < 0.02), f"K_P={k_p}: SE must decrease with velocity"
    window_14 = [v for v in velocities if 50.0 <= v <= 125.0]
    assert any(
        table[(v, 1)] > table[(v, 4)] for v in window_14
    ), "1-symbol pattern never overtakes the 4-symbol pattern in 50..125 km/h"
    window_12 = [v for v in velocities if 100.0 <= v <= 200.0]
    assert any(
        table[(v, 1)] > table[(v, 2)] for v in window_12
    ), "1-symbol pattern never overtakes the 2-symbol pattern in 100..200 km/h"
    end = {k_p: table[(200.0, k_p)] for k_p in (1, 2, 4)}
    assert end[4] < end[1] and end[4] < end[2], (
        f"4-symbol pattern must be worst at 200 km/h, got {end}"
    )
    report(6, "NLOS aging crossovers and endpoint ordering")


def test_criterion_7_dynamic_los_robustness():
    base = default_config(scaled_mmw=True, k_factor_sub6_db=20.0,
                          n_realizations=150)
    velocities = (0.0, 50.0, 100.0, 150.0, 200.0)
    table = sweep_table(
        base,
        (
            ("method", ("conventional", "ooba_mrc")),
            ("velocity_kmh", velocities),
            ("pilot_k_p", (1, 2, 4)),
        ),
    )
    for v in velocities:
        ooba = [table[("ooba_mrc", v, k_p)] for k_p in (1, 2, 4)]
        spread = max(ooba) - min(ooba)
        assert spread < 0.3, f"v={v}: combined-estimate SE spread {spread:.2f}"
        for k_p in (1, 2, 4):
            assert table[("ooba_mrc", v, k_p)] > table[("conventional", v, k_p)], (
                f"v={v} K_P={k_p}: combined estimate must beat conventional"
            )
    for k_p in (1, 2, 4):
        ratio = table[("ooba_mrc", 0.0, k_p)] / table[("ooba_mrc", 200.0, k_p)]
        assert 1.2 <= ratio <= 1.8, f"K_P={k_p}: static/200km/h ratio {ratio:.2f}"
    report(7, "LOS robustness: pattern-independent decay in [1.2, 1.8]")


def test_criterion_8_worker_determinism(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"smoke_{workers}.csv"
        code = main(
            [
                "run",
                "--preset",
                "table1-smoke",
                "--set",
                "n_realizations=2",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "CSV differs across worker counts"
    with capsys.disabled():
        report(8, "byte-identical CSV for 1 vs 2 workers")


def test_criterion_9_perfect_csi_closed_form():
    cfg = default_config(
        scaled_mmw=True,
        k_factor_sub6_db=10.0,
        estimation_method=Method.PERFECT,
        snr_db_mmw=10.0,
        snr_db_sub6=30.0,
    )
    for r in range(3):
        se_pipeline = run_realization([cfg], r)[0]
        tree = SeedTree(cfg.master_seed)
        geom = ch.sample_geometry(
            tree.rng(r, "shared", "geometry"), cfg.sub6, cfg.mmw, 0.0
        )
        h = ch.synthesize_band(
            cfg, Band.MMWAVE, geom, tree.rng(r, "mmw", "stochastic")
        )
        design = design_link(
            h[:, :, :, 4], cfg.mmw.tx_power_watt, cfg.noise_power(Band.MMWAVE)
        )
        analytic = closed_form_se(design, cfg.noise_power(Band.MMWAVE))
        assert se_pipeline == pytest.approx(analytic, abs=1e-9), f"realization {r}"
    # rank-1 limit: single active stream at sigma = sqrt(m_rx * m_tx)
    cfg_los = default_config(
        scaled_mmw=True,
        k_factor_sub6_db=120.0,  # kappa ~ 1e12
        estimation_method=Method.PERFECT,
        snr_db_mmw=10.0,
        snr_db_sub6=30.0,
    )
    se = run_realization([cfg_los], 0)[0]
    assert se == pytest.approx(np.log2(1.0 + 64.0 / 0.1), abs=1e-3)
    report(9, "perfect-CSI pipeline equals the water-filling closed form")
