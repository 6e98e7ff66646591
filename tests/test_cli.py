"""Command-line interface: exit codes, CSV output, pilots dump, plotting."""

import os
from dataclasses import replace

import pytest

from mmlink.cli import main
from mmlink.core import save_config
from mmlink.plotting import extract_series

from conftest import MALFORMED_INI, make_config

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def mini_config_path(tmp_path):
    path = tmp_path / "mini.ini"
    save_config(make_config(n_realizations=2), str(path))
    return str(path)


class TestRun:
    def test_single_point_csv(self, mini_config_path, capsys):
        code = main(
            ["run", "--config", mini_config_path, "--set", "velocity_kmh=0",
             "--set", "method=perfect"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("k_factor_db,")
        assert len(lines) == 2
        assert ",perfect," in lines[1]

    def test_set_axis_makes_grid(self, mini_config_path, capsys):
        code = main(
            ["run", "--config", mini_config_path, "--set", "k_factor_db=-10,0,10"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_invalid_pilot_pattern_exits_2(self, mini_config_path, capsys):
        code = main(["run", "--config", mini_config_path, "--set", "pilot_k_p=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "pilot_symbols_per_direction must be 1, 2 or 4" in err

    @pytest.mark.parametrize(
        "sets",
        [
            ["pilot_k_p=2,2", "method=conventional,conventional"],
            ["k_factor_db=5,5.0"],
        ],
    )
    def test_repeated_axis_value_exits_2(self, sets, mini_config_path, capsys):
        argv = ["run", "--config", mini_config_path]
        for pair in sets:
            argv += ["--set", pair]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "repeats the value" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("velocity_kmh=nan", "velocity_mps must be finite"),
            ("snr_db=inf", "snr_db_mmw must be finite"),
            ("k_factor_db=4000", "k_factor_sub6_db = 4000 dB overflows"),
        ],
    )
    def test_out_of_range_value_exits_2(self, pair, message, mini_config_path, capsys):
        code = main(["run", "--config", mini_config_path, "--set", pair])
        assert code == 2
        captured = capsys.readouterr()
        assert f"invalid configuration: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_zero_element_spacing_in_file_exits_2(self, tmp_path, capsys):
        cfg = make_config(n_realizations=2)
        cfg = replace(cfg, mmw=replace(cfg.mmw, element_spacing_wavelengths=0.0))
        path = tmp_path / "spacing.ini"
        save_config(cfg, str(path))
        assert "element_spacing_wavelengths = 0.0" in path.read_text()
        assert main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert (
            "invalid configuration: [mmw] element_spacing_wavelengths must be > 0"
            in captured.err
        )
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("breakage", sorted(MALFORMED_INI))
    def test_malformed_ini_exits_2(self, breakage, mini_config_path, capsys):
        with open(mini_config_path) as fh:
            text = MALFORMED_INI[breakage](fh.read())
        with open(mini_config_path, "w") as fh:
            fh.write(text)
        assert main(["run", "--config", mini_config_path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_config_exits_1(self, capsys):
        code = main(["run", "--config", "/nonexistent/path.ini"])
        assert code == 1

    def test_unknown_set_key_exits_2(self, mini_config_path, capsys):
        code = main(["run", "--config", mini_config_path, "--set", "nope=1"])
        assert code == 2

    def test_bad_method_value_exits_2(self, mini_config_path, capsys):
        code = main(["run", "--config", mini_config_path, "--set", "method=magic"])
        assert code == 2

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["run", "--preset", "fig99"]) == 2

    def test_seed_changes_output(self, mini_config_path, capsys):
        main(["run", "--config", mini_config_path, "--set", "master_seed=1"])
        out1 = capsys.readouterr().out
        main(["run", "--config", mini_config_path, "--set", "master_seed=2"])
        out2 = capsys.readouterr().out
        assert out1 != out2

    def test_out_file(self, mini_config_path, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["run", "--config", mini_config_path, "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("k_factor_db,")


class TestPilots:
    @pytest.mark.parametrize("k_p,rows", [(1, 32), (2, 64), (4, 128)])
    def test_row_counts(self, k_p, rows, capsys):
        assert main(["pilots", "8", str(k_p), "16"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "antenna,direction,symbol,subcarrier"
        assert len(out) - 1 == rows

    def test_matches_golden_enumeration(self, capsys):
        for k_p in (1, 2, 4):
            assert main(["pilots", "8", str(k_p), "16"]) == 0
            out = capsys.readouterr().out
            golden = open(
                os.path.join(GOLDEN_DIR, f"pilots_m8_kp{k_p}_n16.csv")
            ).read()
            assert out == golden

    def test_one_symbol_all_forward_in_symbol_1(self, capsys):
        main(["pilots", "8", "1", "16"])
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        fwd = [r for r in rows if ",forward," in r]
        assert all(r.split(",")[2] == "1" for r in fwd)

    def test_divisibility_violation_exits_2(self, capsys):
        assert main(["pilots", "8", "3", "16"]) == 2

    @pytest.mark.parametrize("args", [["0", "1", "16"], ["8", "2", "0"]])
    def test_empty_array_or_band_exits_2(self, args, capsys):
        assert main(["pilots", *args]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["pilots", "8", "2", "16", "--out", str(out)]) == 0
        golden = open(os.path.join(GOLDEN_DIR, "pilots_m8_kp2_n16.csv")).read()
        assert out.read_text() == golden


class TestPlot:
    def _results(self, tmp_path, mini_config_path, capsys):
        out = tmp_path / "res.csv"
        main(
            ["run", "--config", mini_config_path, "--set",
             "k_factor_db=-10,0", "--set", "method=conventional,perfect",
             "--out", str(out)]
        )
        capsys.readouterr()
        return str(out)

    def test_plot_and_round_trip(self, tmp_path, mini_config_path, capsys):
        csv_path = self._results(tmp_path, mini_config_path, capsys)
        svg_path = tmp_path / "chart.svg"
        code = main(["plot", csv_path, "--x", "k_factor_db", "--out", str(svg_path)])
        assert code == 0
        series = extract_series(svg_path.read_text())
        assert len(series) == 2
        import csv as csv_mod

        with open(csv_path) as fh:
            rows = list(csv_mod.DictReader(fh))
        for label, (xs, ys) in series.items():
            for x, y in zip(xs, ys):
                match = [
                    r
                    for r in rows
                    if float(r["k_factor_db"]) == x
                    and label.startswith(r["method"])
                ]
                assert any(float(r["se_mean"]) == y for r in match)

    def test_deterministic_bytes(self, tmp_path, mini_config_path, capsys):
        csv_path = self._results(tmp_path, mini_config_path, capsys)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", csv_path, "--x", "k_factor_db", "--out", str(a)])
        main(["plot", csv_path, "--x", "k_factor_db", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_csv_exits_1(self, capsys):
        assert main(["plot", "/nonexistent.csv", "--x", "k_factor_db"]) == 1

    def test_unwritable_out_exits_1(self, tmp_path, mini_config_path, capsys):
        csv_path = self._results(tmp_path, mini_config_path, capsys)
        out = tmp_path / "no-such-dir" / "chart.svg"
        assert main(["plot", csv_path, "--x", "k_factor_db", "--out", str(out)]) == 1

    def test_unknown_column_exits_2(self, tmp_path, mini_config_path, capsys):
        csv_path = self._results(tmp_path, mini_config_path, capsys)
        assert main(["plot", csv_path, "--x", "wavelength"]) == 2

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(
            "k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,"
            "se_stderr,n_realizations\n"
        )
        assert main(["plot", str(path), "--x", "k_factor_db"]) == 2

    @pytest.mark.parametrize(
        "column, row",
        [
            ("se_mean", "0,0,0,1,conventional,inf,0.1,2"),
            ("se_mean", "0,0,0,1,conventional,nan,0.1,2"),
            ("k_factor_db", "inf,0,0,1,conventional,3.0,0.1,2"),
        ],
    )
    def test_non_finite_value_exits_2(self, column, row, tmp_path, capsys):
        path = tmp_path / "res.csv"
        path.write_text(
            "k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,"
            f"se_stderr,n_realizations\n0,0,0,1,conventional,2.0,0.1,2\n{row}\n"
        )
        out = tmp_path / "chart.svg"
        assert main(["plot", str(path), "--x", "k_factor_db", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: results CSV column {column} must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_columns_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("k_factor_db,se\n0,1\n")
        assert main(["plot", str(path), "--x", "k_factor_db"]) == 2
        assert "results CSV lacks columns: " in capsys.readouterr().err


class TestWorkers:
    def test_env_default(self, mini_config_path, capsys, monkeypatch):
        monkeypatch.setenv("MMLINK_WORKERS", "2")
        code = main(["run", "--config", mini_config_path])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2

    def test_env_not_an_integer_exits_2(self, mini_config_path, capsys, monkeypatch):
        monkeypatch.setenv("MMLINK_WORKERS", "two")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", mini_config_path])
        assert exc.value.code == 2
        assert "error: argument --workers: invalid int value: 'two'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_below_one_exits_2(self, value, mini_config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", mini_config_path, "--workers", value])
        assert exc.value.code == 2
        assert f"error: argument --workers: must be >= 1 (got {value})" in (
            capsys.readouterr().err
        )

    def test_env_below_one_exits_2(self, mini_config_path, capsys, monkeypatch):
        monkeypatch.setenv("MMLINK_WORKERS", "-2")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", mini_config_path])
        assert exc.value.code == 2
        assert "error: argument --workers: must be >= 1 (got -2)" in (
            capsys.readouterr().err
        )


class TestPresets:
    @pytest.mark.parametrize(
        "preset,n_series",
        [
            ("fig2a", 7),
            ("fig2b", 7),
            ("fig3a", 7),
            ("fig3b", 7),
            ("table1-smoke", 3),
        ],
    )
    def test_preset_runs_quickly_at_four_realizations(
        self, preset, n_series, tmp_path, capsys
    ):
        import time

        out = tmp_path / "res.csv"
        start = time.perf_counter()
        code = main(
            ["run", "--preset", preset, "--set", "n_realizations=4",
             "--workers", "2", "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0, f"{preset} took {elapsed:.0f}s at L_r=4"
        rows = out.read_text().strip().split("\n")[1:]
        series = {tuple(r.split(",")[3:5]) for r in rows}
        assert len(series) == n_series
        if preset.startswith("fig"):
            x = "k_factor_db" if preset.startswith("fig2") else "velocity_kmh"
            svg = tmp_path / "chart.svg"
            assert main(["plot", str(out), "--x", x, "--out", str(svg)]) == 0
            text = svg.read_text()
            assert text.count("<polyline") == n_series
            assert len(extract_series(text)) == n_series
