"""Each benchmark check passes on real output and fires on a planted fault.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
import tracing
from mmlink import combining, core, metrics, montecarlo, presets, transceiver

SEED = 5


def small_specs(preset: str, axis: str, values: tuple) -> list:
    """A preset cut down to one sweep-axis value, one realization per point."""
    out = []
    for spec in presets.build_preset(preset):
        axes = tuple((n, values if n == axis else v) for n, v in spec.axes)
        out.append(
            replace(spec, axes=axes, base=replace(spec.base, n_realizations=1, master_seed=SEED))
        )
    return out


def sweep_csv(specs, workers: int = 1) -> str:
    records = []
    for spec in specs:
        records.extend(montecarlo.run_sweep(spec, workers=workers))
    return montecarlo.format_csv(records)


@pytest.fixture(scope="module")
def static_specs():
    return small_specs("fig2a", "k_factor_db", (20.0,))


@pytest.fixture(scope="module")
def static_rows(static_specs):
    return checks.parse_csv(sweep_csv(static_specs))


def oracle_samples(specs) -> list[dict]:
    sampler, _, _ = run.check_round(SEED, specs, montecarlo)
    return sampler.samples


def test_rows_check_fires_on_missing_short_or_bad_rows(static_rows):
    assert checks.check_rows(static_rows, 7, 1) == []
    assert checks.check_rows(static_rows[1:], 7, 1)
    assert checks.check_rows(static_rows + static_rows[:1], 8, 1)
    assert checks.check_rows([dict(static_rows[0], n_realizations="0")] + static_rows[1:], 7, 1)
    for bad in ("nan", "0", "-1"):
        planted = [dict(static_rows[0], se_mean=bad)] + static_rows[1:]
        assert checks.check_rows(planted, 7, 1)


def test_capacity_bound_fires_when_an_estimate_beats_perfect(static_rows):
    assert checks.check_capacity_bound(static_rows) == []
    perfect = next(float(r["se_mean"]) for r in static_rows if r["method"] == "perfect")
    planted = [
        dict(r, se_mean=str(perfect + 0.01)) if r["method"] == "conventional" else r
        for r in static_rows
    ]
    assert checks.check_capacity_bound(planted)
    moving = [dict(r, velocity_kmh="100") for r in planted]
    assert checks.check_capacity_bound(moving) == []  # no bound on moving rows


def test_ooba_check_fires_when_combining_ignores_the_oob_estimate(
    static_rows, static_specs, monkeypatch
):
    assert checks.check_ooba_beats_conventional(static_rows) == []
    monkeypatch.setattr(
        combining, "combine_mrc", lambda oob, inband, weight: inband
    )
    planted = checks.parse_csv(sweep_csv(static_specs))
    assert len(checks.check_ooba_beats_conventional(planted)) == 3


def test_ooba_check_skips_low_k(static_rows):
    low_k = [dict(r, k_factor_db="15") for r in static_rows]
    flipped = [
        dict(r, method={"ooba_mrc": "conventional", "conventional": "ooba_mrc"}.get(r["method"], r["method"]))
        for r in low_k
    ]
    assert checks.check_ooba_beats_conventional(flipped) == []
    assert checks.check_ooba_beats_conventional([dict(r, k_factor_db="20") for r in flipped])


@pytest.mark.parametrize(
    "preset,axis,value", [("fig2a", "k_factor_db", 20.0), ("fig3b", "velocity_kmh", 100.0)]
)
def test_oracle_agrees_with_evaluate_link(preset, axis, value):
    samples = oracle_samples(small_specs(preset, axis, (value,)))
    assert len(samples) == 7
    assert checks.check_oracle(samples) == []


def test_oracle_fires_when_perfect_diagonal_skips_power_loading(static_specs, monkeypatch):
    def unloaded(h_data, p_total, noise_power):
        return np.linalg.svd(h_data.transpose(2, 3, 0, 1), compute_uv=False)

    monkeypatch.setattr(metrics, "perfect_gain_diagonals", unloaded)
    assert any("oracle" in p for p in checks.check_oracle(oracle_samples(static_specs)))


@pytest.mark.parametrize(
    "field,scale,message",
    [("precoder", 1.01, "semi-unitary"), ("combiner", 0.99, "semi-unitary"), ("power", 1.01, "p_total")],
)
def test_oracle_fires_on_a_broken_link_design(static_specs, monkeypatch, field, scale, message):
    original = transceiver.design_link

    def broken(est, p_total, noise_power):
        design = original(est, p_total, noise_power)
        return replace(design, **{field: getattr(design, field) * scale})

    monkeypatch.setattr(transceiver, "design_link", broken)
    assert any(message in p for p in checks.check_oracle(oracle_samples(static_specs)))


def test_untraced_table1_run_fails_on_a_broken_link_design(monkeypatch, capsys):
    original = transceiver.design_link

    def broken(est, p_total, noise_power):
        design = original(est, p_total, noise_power)
        return replace(design, power=design.power * 1.01)

    monkeypatch.setattr(transceiver, "design_link", broken)
    args = ["--workload", "table1-fullband", "--seed", str(SEED), "--seconds", "0", "--trace", "0"]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert result["correct"] is False


def test_determinism_check_compares_pooled_with_serial():
    specs = small_specs("fig3b", "velocity_kmh", (50.0, 150.0))
    serial = sweep_csv(specs)
    assert checks.check_identical(serial, sweep_csv(specs, workers=2), "pooled") == []
    planted = serial.replace(",1\n", ",2\n", 1)
    assert checks.check_identical(serial, planted, "pooled")


def test_singular_values_and_waterfilling_match_lapack_and_the_program():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 8, 8)) + 1j * rng.standard_normal((20, 8, 8))
    a[1] = np.outer(a[1, :, 0], a[1, 0, :])
    a[2] = 0.0
    want = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(checks.singular_values(a), want, rtol=0, atol=1e-12 * want.max())
    for noise in (0.1, 1.0, 10.0):
        p = checks.waterfill_bisection(want, noise, 1.0)
        assert np.allclose(p, transceiver.waterfill_power(want, noise, 1.0), atol=1e-12)


def test_tracer_restores_every_binding_and_nests_spans(static_specs):
    before = {
        (m, k): v for m in (metrics, transceiver) for k, v in vars(m).items() if callable(v)
    }
    tracer, _, _ = run.traced_round(static_specs, core, montecarlo)
    after = {
        (m, k): v for m in (metrics, transceiver) for k, v in vars(m).items() if callable(v)
    }
    assert before == after
    names = {s.name for s in tracer.spans}
    expected = {f"{m}.{p}" for m, p in tracing.LAYERS} - set(tracing.BAND_ARG)
    expected |= {"channel.synthesize_band.mmw", "channel.synthesize_band.sub6"}
    assert names == expected
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    # metrics' own binding of waterfill_power is traced under perfect_gain_diagonals
    assert any(
        s.name == "transceiver.waterfill_power"
        and by_id[s.parent].name == "metrics.perfect_gain_diagonals"
        for s in tracer.spans
    )


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, "a", None, 0.0, 10.0),
        tracing.Span(1, "b", 0, 1.0, 4.0),
        tracing.Span(2, "c", 1, 2.0, 3.0),
        tracing.Span(3, "b", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracing.layer_totals(spans) == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}
