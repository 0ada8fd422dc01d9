"""Tests for the deterministic SVG rendering of correlation series."""

import numpy as np
import pytest

import liedeg.dynamics as D
import liedeg.koopman as K
import liedeg.plotting as P
import liedeg.reps as R

FLOW = D.default_flow(1)


def _series(n_max: int = 3) -> K.CorrelationSeries:
    c = D.torus_monomial(FLOW, [[1]])
    rep = R.torus_rep([1])
    probe = K.constant_fiber(rep, [1.0])
    return K.correlation_series(probe, probe, c, FLOW, n_max, D.QuadratureSpec(8))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class TestRenderSeriesSvg:
    def test_marker_counts(self):
        svg = P.render_series_svg(_series(3).values)
        # one magnitude marker per N = 0..3, one average marker per N >= 1
        assert svg.count('class="pt-mag"') == 4
        assert svg.count('class="pt-avg"') == 3

    def test_byte_identical_rerender(self):
        values = _series(4).values
        assert P.render_series_svg(values, "t") == P.render_series_svg(values, "t")

    def test_zero_magnitudes_use_log_floor(self):
        svg = P.render_series_svg(np.array([1.0, 0.0], dtype=complex))
        assert "NaN" not in svg and "-inf" not in svg
        assert svg.count('class="pt-mag"') == 2

    def test_single_row_average_panel_is_empty(self):
        svg = P.render_series_svg(np.array([1.0 + 0.0j]))
        assert svg.count('class="pt-mag"') == 1
        assert svg.count('class="pt-avg"') == 0
        assert "no entries" in svg

    def test_title_is_escaped(self):
        svg = P.render_series_svg(_series(3).values, title="a<b&c")
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_running_average_matches_direct_computation(self):
        svg = P.render_series_svg(np.array([1.0, 0.6, 0.8j]))
        # final running average (0.36 + 0.64) / 2 = 0.5 appears as a tick
        # scale anchor: the panel maximum is 1.1 * 0.5
        assert "0.55" in svg


class TestEmitPlot:
    def test_file_roundtrip(self, tmp_path):
        series = _series(3)
        svg_path = tmp_path / "s.svg"
        P.emit_plot(series, svg_path, title="demo")
        out = svg_path.read_text()
        assert out == P.render_series_svg(series.values, title="demo")
        assert out.startswith("<svg")

    def test_unwritable_svg_path_raises_oserror(self, tmp_path):
        # a path below a regular file cannot be opened, whoever runs the test
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(OSError):
            P.emit_plot(_series(3), blocker / "o.svg")
