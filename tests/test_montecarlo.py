"""Sweep orchestration: determinism, parallel equivalence, aggregation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmlink.core import Band, Method, SeedTree
from mmlink import channel as ch
from mmlink import estimation, metrics, pilots, transceiver
from mmlink.montecarlo import (
    SweepError,
    SweepSpec,
    apply_point,
    format_csv,
    point_columns,
    run_realization,
    run_sweep,
)

from conftest import make_config


class TestRunRealization:
    def test_deterministic(self):
        cfg = make_config(k_p=2, estimation_method=Method.OOBA_MRC)
        a = run_realization([cfg], 3)[0]
        b = run_realization([cfg], 3)[0]
        assert a == b

    def test_realizations_differ(self):
        cfg = make_config()
        assert run_realization([cfg], 0)[0] != run_realization([cfg], 1)[0]

    def test_all_methods_finite(self):
        for method in Method:
            cfg = make_config(estimation_method=method, k_factor_sub6_db=5.0)
            se = run_realization([cfg], 0)[0]
            assert np.isfinite(se) and se >= 0.0

    def test_perfect_beats_estimates_static(self):
        ses = {}
        for method in Method:
            cfg = make_config(
                estimation_method=method, k_factor_sub6_db=10.0, n_subcarriers=32
            )
            ses[method] = np.mean([run_realization([cfg], r)[0] for r in range(20)])
        assert ses[Method.PERFECT] >= ses[Method.OOBA_MRC] - 1e-9
        assert ses[Method.PERFECT] >= ses[Method.CONVENTIONAL] - 1e-9

    def test_kp_matters_only_through_estimate_when_static(self):
        """At v=0 injecting the 4-symbol estimate into a 1-symbol frame
        reproduces the 4-symbol SE: the frames differ only in estimation."""
        base = make_config(k_p=1, k_factor_sub6_db=0.0)
        cfg4 = replace(base, pilot_symbols_per_direction=4)
        r = 0
        tree4 = SeedTree(cfg4.master_seed)
        geom = ch.sample_geometry(
            tree4.rng(r, "shared", "geometry"), cfg4.sub6, cfg4.mmw, 0.0
        )
        h4 = ch.synthesize_band(
            cfg4, Band.MMWAVE, geom, tree4.rng(r, "mmw", "stochastic")
        )
        grid = pilots.build_pilot_grid(
            cfg4.mmw, 4, tree4.rng(r, "mmw", "pilots")
        )
        noise = cfg4.noise_power(Band.MMWAVE)
        obs = pilots.transmit_training(
            h4, grid, noise, tree4.rng(r, "mmw", "train_noise")
        )
        est4 = estimation.ls_estimate(obs, grid)
        design = transceiver.design_link(est4, cfg4.mmw.tx_power_watt, noise)
        # static channel: any data symbol slice gives the same SE
        se_injected = metrics.evaluate_link(
            h4[:, :, :, 8:9], design, noise
        ).se_bits_per_s_per_hz
        se_direct = run_realization([cfg4], r)[0]
        assert se_injected == pytest.approx(se_direct, abs=1e-12)


def _environment_group(**overrides):
    """Every (method, K_P) config at one environment point."""
    base = make_config(k_p=1, **overrides)
    return [
        replace(base, pilot_symbols_per_direction=k_p, estimation_method=method)
        for method in Method
        for k_p in (1, 2, 4)
    ]


class TestEnvironmentGroup:
    @pytest.mark.parametrize(
        "velocity_mps", [0.0, 100.0 / 3.6], ids=["static", "100kmh"]
    )
    def test_grouped_equals_one_by_one(self, velocity_mps):
        cfgs = _environment_group(velocity_mps=velocity_mps, k_factor_sub6_db=10.0)
        for r in range(3):
            alone = [run_realization([cfg], r)[0] for cfg in cfgs]
            assert run_realization(cfgs, r) == alone
            assert run_realization(cfgs[::-1], r) == alone[::-1]

    def test_rejects_mixed_environments(self):
        cfgs = [make_config(), make_config(k_factor_sub6_db=10.0)]
        with pytest.raises(ValueError, match="share the environment point"):
            run_realization(cfgs, 0)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        k_factor_db=st.floats(min_value=-20.0, max_value=20.0),
        snr_db=st.floats(min_value=-10.0, max_value=10.0),
        k_p=st.sampled_from((1, 2, 4)),
        realization=st.integers(min_value=0, max_value=1000),
    )
    def test_perfect_bounds_estimates_when_static(
        self, k_factor_db, snr_db, k_p, realization
    ):
        base = make_config(
            k_p=k_p, k_factor_sub6_db=k_factor_db, snr_db_mmw=snr_db,
            snr_db_sub6=snr_db + 20.0,
        )
        methods = (Method.CONVENTIONAL, Method.OOBA_MRC, Method.PERFECT)
        cfgs = [replace(base, estimation_method=m) for m in methods]
        conventional, ooba_mrc, perfect = run_realization(cfgs, realization)
        assert conventional <= perfect + 1e-9
        assert ooba_mrc <= perfect + 1e-9


class TestVelocityTrend:
    def test_se_nonincreasing_in_velocity_all_methods(self):
        spec = SweepSpec(
            base=make_config(n_realizations=60, k_factor_sub6_db=5.0),
            axes=(
                ("method", tuple(m.value for m in Method)),
                ("velocity_kmh", (0.0, 50.0, 100.0, 200.0)),
            ),
        )
        records = run_sweep(spec, workers=2)
        curves = {}
        for rec in records:
            curves.setdefault(rec.point["method"], []).append(rec.se_mean)
        for method, curve in curves.items():
            assert np.all(np.diff(curve) < 0.05), (
                f"{method}: SE should not grow with velocity, got {curve}"
            )


class TestNlosMethodGap:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "The delay-profile surrogate needs a dominant rank-1 specular tap "
            "to hit the static SE windows; shrinking a noisy estimate through "
            "the combining weight then prunes water-filling streams and gives "
            "the combined method a real gain (~+1 bit) at kappa=-20 dB instead "
            "of parity. See the decisions ledger."
        ),
    )
    def test_methods_match_in_deep_nlos(self):
        ses = {}
        for method in (Method.CONVENTIONAL, Method.OOBA_MRC):
            cfg = make_config(
                n_subcarriers=64,
                k_factor_sub6_db=-20.0,
                estimation_method=method,
                n_realizations=1,
            )
            ses[method] = np.mean([run_realization([cfg], r)[0] for r in range(80)])
        gap = abs(ses[Method.OOBA_MRC] - ses[Method.CONVENTIONAL])
        assert gap < 0.1


class TestApplyPoint:
    def test_all_parameters(self):
        base = make_config()
        cfg = apply_point(
            base,
            {
                "k_factor_db": -5.0,
                "velocity_kmh": 90.0,
                "snr_db": 10.0,
                "pilot_k_p": 4,
                "method": "perfect",
            },
        )
        assert cfg.k_factor_sub6_db == -5.0
        assert cfg.velocity_mps == pytest.approx(25.0)
        assert cfg.snr_db_mmw == 10.0
        assert cfg.snr_db_sub6 == pytest.approx(30.0)  # offset preserved
        assert cfg.pilot_symbols_per_direction == 4
        assert cfg.n_symbols(Band.MMWAVE) == 2 * 4 + 7
        assert cfg.estimation_method == Method.PERFECT

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            apply_point(make_config(), {"bananas": 1})

    def test_point_columns_round_trip(self):
        cfg = make_config(velocity_mps=10.0, k_factor_sub6_db=3.0)
        cols = point_columns(cfg)
        assert cols["velocity_kmh"] == pytest.approx(36.0)
        assert cols["method"] == "conventional"
        assert cols["pilot_k_p"] == 2


class TestSweepSpec:
    def test_cartesian_points(self):
        spec = SweepSpec(
            base=make_config(),
            axes=(("method", ("conventional", "perfect")), ("pilot_k_p", (1, 2))),
        )
        pts = spec.points()
        assert len(pts) == 4
        assert pts[0] == {"method": "conventional", "pilot_k_p": 1}
        assert pts[-1] == {"method": "perfect", "pilot_k_p": 2}

    def test_invalid_axes(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepSpec(base=make_config(), axes=(("nope", (1,)),))
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(base=make_config(), axes=(("snr_db", ()),))
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(
                base=make_config(), axes=(("snr_db", (0,)), ("snr_db", (1,)))
            )

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("k_factor_db", (5, 5.0), "5.0"),
            ("pilot_k_p", (1, 2, 2), "2"),
            ("method", ("conventional", "perfect", "conventional"), "'conventional'"),
        ],
    )
    def test_repeated_value_rejected(self, axis, values, repeated):
        # a repeat would compute the same sweep point twice
        message = f"axis '{axis}' repeats the value {repeated}"
        with pytest.raises(ValueError, match=message):
            SweepSpec(base=make_config(), axes=((axis, values),))


class TestRunSweep:
    def test_worker_count_does_not_change_csv(self):
        spec = SweepSpec(
            base=make_config(n_realizations=4),
            axes=(("k_factor_db", (0.0, 10.0)),),
        )
        csv1 = format_csv(run_sweep(spec, workers=1))
        csv2 = format_csv(run_sweep(spec, workers=4))
        assert csv1 == csv2

    def test_methods_share_channel_draws(self):
        # paired sampling: perfect CSI from the same environment seed is a
        # per-realization upper bound for the estimated methods
        spec = SweepSpec(
            base=make_config(n_realizations=3, k_factor_sub6_db=10.0),
            axes=(("method", ("conventional", "perfect")),),
        )
        rec = run_sweep(spec)
        assert rec[1].se_mean >= rec[0].se_mean

    def test_stderr_scales_with_realizations(self):
        base = make_config(k_factor_sub6_db=0.0)
        small = run_sweep(SweepSpec(base=replace(base, n_realizations=100)))[0]
        large = run_sweep(SweepSpec(base=replace(base, n_realizations=400)))[0]
        ratio = small.se_stderr / large.se_stderr
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_single_realization_stderr_zero(self):
        rec = run_sweep(SweepSpec(base=make_config(n_realizations=1)))[0]
        assert rec.se_stderr == 0.0
        assert rec.n_realizations == 1

    def test_failure_identifies_point(self):
        bad = replace(make_config(), pilot_symbols_per_direction=3)
        with pytest.raises(SweepError, match="realization 0 failed at point"):
            run_sweep(SweepSpec(base=bad))

    def test_csv_format(self):
        spec = SweepSpec(base=make_config(n_realizations=2))
        text = format_csv(run_sweep(spec))
        lines = text.split("\n")
        assert lines[0] == (
            "k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,"
            "se_stderr,n_realizations"
        )
        assert len(lines) == 3 and lines[-1] == ""
        fields = lines[1].split(",")
        assert fields[3] == "2"
        assert fields[4] == "conventional"
        assert fields[7] == "2"
        float(fields[5]), float(fields[6])
        assert "\r" not in text
