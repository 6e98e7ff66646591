"""Deterministic SVG rendering and data-comment round-trips."""

import pytest

from mmlink.plotting import PlotSpec, extract_series, render_chart, write_chart

CSV = """k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,se_stderr,n_realizations
-20,0,0,1,conventional,2.71,0.05,100
-10,0,0,1,conventional,3.1,0.05,100
0,0,0,1,conventional,3.9,0.05,100
-20,0,0,2,conventional,3.4,0.04,100
-10,0,0,2,conventional,3.6,0.04,100
0,0,0,2,conventional,4.2,0.04,100
-20,0,0,1,ooba_mrc,2.72,0.05,100
-10,0,0,1,ooba_mrc,3.4,0.05,100
0,0,0,1,ooba_mrc,4.5,0.05,100
-20,0,0,1,perfect,8.4,0.02,100
-10,0,0,1,perfect,8.5,0.02,100
0,0,0,1,perfect,8.6,0.02,100
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(CSV)
    return str(path)


class TestRender:
    def test_byte_deterministic(self, csv_path, tmp_path):
        spec = PlotSpec(csv_path, "k_factor_db", str(tmp_path / "out.svg"))
        assert render_chart(spec) == render_chart(spec)

    def test_fixed_viewport_and_series_count(self, csv_path, tmp_path):
        spec = PlotSpec(csv_path, "k_factor_db", str(tmp_path / "o.svg"), title="SE")
        svg = render_chart(spec)
        assert 'width="800" height="500"' in svg
        assert svg.count("<polyline") == 4
        assert "perfect</text>" in svg  # single perfect series keeps a short label
        assert "conventional K_P=1" in svg
        assert svg.endswith("</svg>\n")

    def test_round_trip_through_comments(self, csv_path, tmp_path):
        out = tmp_path / "chart.svg"
        write_chart(PlotSpec(csv_path, "k_factor_db", str(out)))
        series = extract_series(out.read_text())
        assert set(series) == {
            "conventional K_P=1",
            "conventional K_P=2",
            "ooba_mrc K_P=1",
            "perfect",
        }
        xs, ys = series["conventional K_P=1"]
        assert xs == [-20.0, -10.0, 0.0]
        assert ys == [2.71, 3.1, 3.9]

    def test_x_values_sorted(self, tmp_path):
        path = tmp_path / "r.csv"
        lines = CSV.strip().split("\n")
        path.write_text("\n".join([lines[0], lines[3], lines[1]]) + "\n")
        svg = render_chart(PlotSpec(str(path), "k_factor_db", "unused.svg"))
        xs, _ = extract_series(svg)["conventional K_P=1"]
        assert xs == sorted(xs)


class TestErrors:
    def test_unknown_x_column(self, csv_path):
        with pytest.raises(ValueError, match="unknown x-axis column"):
            render_chart(PlotSpec(csv_path, "se_mean", "o.svg"))

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k_factor_db,velocity_kmh,snr_db,pilot_k_p,method,se_mean,se_stderr,n_realizations\n")
        with pytest.raises(ValueError, match="no data rows"):
            render_chart(PlotSpec(str(path), "k_factor_db", "o.svg"))

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="lacks columns"):
            render_chart(PlotSpec(str(path), "k_factor_db", "o.svg"))

    @pytest.mark.parametrize(
        "old, new, column",
        [
            (",4.5,", ",inf,", "se_mean"),
            (",4.5,", ",nan,", "se_mean"),
            ("\n0,0,0,1,ooba_mrc", "\ninf,0,0,1,ooba_mrc", "k_factor_db"),
        ],
    )
    def test_non_finite_value(self, old, new, column, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV.replace(old, new))
        out = tmp_path / "chart.svg"
        with pytest.raises(ValueError, match=f"column {column} must be finite"):
            write_chart(PlotSpec(str(path), "k_factor_db", str(out)))
        assert not out.exists()
