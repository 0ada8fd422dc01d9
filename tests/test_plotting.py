"""Tests for the deterministic SVG rendering of correlation series."""

import pytest

import liedeg.dynamics as D
import liedeg.koopman as K
import liedeg.plotting as P
import liedeg.reps as R
from liedeg.errors import ConfigError

FLOW = D.default_flow(1)


def _series_csv(n_max: int = 3) -> str:
    c = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep([1])
    probe = K.constant_fiber(rep, 0, [1.0])
    series = K.correlation_series(probe, probe, c, FLOW, n_max,
                                  D.QuadratureSpec(8))
    return series.to_csv_text()


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

class TestParseSeriesCsv:
    def test_roundtrip(self):
        ns, values, errs = P.parse_series_csv(_series_csv(5))
        assert ns == list(range(6))
        assert len(values) == len(errs) == 6
        assert abs(values[0] - 1.0) < 1e-12

    def test_missing_header_rejected(self):
        with pytest.raises(ConfigError):
            P.parse_series_csv("1,0.5,0.0,0.5,0.0\n")

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError, match="no data rows"):
            P.parse_series_csv(P.CSV_HEADER + "\n")

    def test_malformed_row_rejected(self):
        text = P.CSV_HEADER + "\n0,1.0,0.0\n"
        with pytest.raises(ConfigError):
            P.parse_series_csv(text)
        text = P.CSV_HEADER + "\n0,one,0.0,1.0,0.0\n"
        with pytest.raises(ConfigError):
            P.parse_series_csv(text)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class TestRenderSeriesSvg:
    def test_marker_counts(self):
        svg = P.render_series_svg(_series_csv(3))
        # one magnitude marker per N = 0..3, one average marker per N >= 1
        assert svg.count('class="pt-mag"') == 4
        assert svg.count('class="pt-avg"') == 3

    def test_byte_identical_rerender(self):
        text = _series_csv(4)
        assert P.render_series_svg(text, "t") == P.render_series_svg(text, "t")

    def test_zero_magnitudes_use_log_floor(self):
        text = P.CSV_HEADER + "\n0,1.0,0.0,1.0,0.0\n1,0.0,0.0,0.0,0.0\n"
        svg = P.render_series_svg(text)
        assert "NaN" not in svg and "-inf" not in svg
        assert svg.count('class="pt-mag"') == 2

    def test_single_row_average_panel_is_empty(self):
        text = P.CSV_HEADER + "\n0,1.0,0.0,1.0,0.0\n"
        svg = P.render_series_svg(text)
        assert svg.count('class="pt-mag"') == 1
        assert svg.count('class="pt-avg"') == 0
        assert "no entries" in svg

    def test_title_is_escaped(self):
        svg = P.render_series_svg(_series_csv(3), title="a<b&c")
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_running_average_matches_direct_computation(self):
        text = (P.CSV_HEADER + "\n0,1.0,0.0,1.0,0.0\n"
                "1,0.6,0.0,0.6,0.0\n2,0.0,0.8,0.8,0.0\n")
        svg = P.render_series_svg(text)
        # final running average (0.36 + 0.64) / 2 = 0.5 appears as a tick
        # scale anchor: the panel maximum is 1.1 * 0.5
        assert "0.55" in svg


class TestEmitPlot:
    def test_file_roundtrip(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        svg_path = tmp_path / "s.svg"
        csv_path.write_text(_series_csv(3))
        P.emit_plot(csv_path, svg_path, title="demo")
        out = svg_path.read_text()
        assert out.startswith("<svg")
        assert "demo" in out

    def test_missing_input_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            P.emit_plot(tmp_path / "absent.csv", tmp_path / "o.svg")

    def test_empty_input_raises_config_error(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(P.CSV_HEADER + "\n")
        with pytest.raises(ConfigError):
            P.emit_plot(csv_path, tmp_path / "o.svg")
