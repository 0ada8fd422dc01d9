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


def _panel_formatting_per_use(x0, title, xs, ys, y_lo, y_hi, x_max, marker_class):
    """The panel renderer that formatted each coordinate at every use, point
    by point: the reference for `plotting._panel`."""
    out = [f'<g font-family="monospace" font-size="11">']
    out.append(f'<rect x="{P._fmt(x0)}" y="{P._fmt(P._TOP)}" width="{P._fmt(P._PANEL_W)}" '
               f'height="{P._fmt(P._PANEL_H)}" fill="none" stroke="#444"/>')
    out.append(f'<text x="{P._fmt(x0 + P._PANEL_W / 2)}" y="{P._fmt(P._TOP - 14)}" '
               f'text-anchor="middle" font-size="13">{title}</text>')

    def px(n):
        return x0 + P._PANEL_W * (n / x_max if x_max > 0 else 0.5)

    def py(v):
        return P._TOP + P._PANEL_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    for tv in P._ticks(y_lo, y_hi):
        y = py(tv)
        out.append(f'<line x1="{P._fmt(x0 - 4)}" y1="{P._fmt(y)}" x2="{P._fmt(x0)}" '
                   f'y2="{P._fmt(y)}" stroke="#444"/>')
        out.append(f'<text x="{P._fmt(x0 - 8)}" y="{P._fmt(y + 4)}" '
                   f'text-anchor="end">{P._fmt(tv)}</text>')
    for tn in P._ticks(0.0, x_max):
        x = px(tn)
        out.append(f'<line x1="{P._fmt(x)}" y1="{P._fmt(P._TOP + P._PANEL_H)}" '
                   f'x2="{P._fmt(x)}" y2="{P._fmt(P._TOP + P._PANEL_H + 4)}" stroke="#444"/>')
        out.append(f'<text x="{P._fmt(x)}" y="{P._fmt(P._TOP + P._PANEL_H + 18)}" '
                   f'text-anchor="middle">{P._fmt(round(tn))}</text>')
    out.append(f'<text x="{P._fmt(x0 + P._PANEL_W / 2)}" '
               f'y="{P._fmt(P._TOP + P._PANEL_H + 36)}" text-anchor="middle">N</text>')
    if len(xs):
        pts = " ".join(f"{P._fmt(px(n))},{P._fmt(py(v))}" for n, v in zip(xs, ys))
        if len(xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6feb" '
                       f'stroke-width="1.2"/>')
        for n, v in zip(xs, ys):
            out.append(f'<circle class="{marker_class}" cx="{P._fmt(px(n))}" '
                       f'cy="{P._fmt(py(v))}" r="2.6" fill="#1f6feb"/>')
    else:
        out.append(f'<text x="{P._fmt(x0 + P._PANEL_W / 2)}" '
                   f'y="{P._fmt(P._TOP + P._PANEL_H / 2)}" text-anchor="middle" '
                   f'fill="#888">no entries</text>')
    out.append("</g>")
    return out


def test_panel_formats_each_coordinate_once_with_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(150)
    # N = 0 (one value, an empty average panel), one and two points, then
    # random lengths, scales and phases
    series = [np.array([0.3 + 0.1j]), np.array([1.0, 0.0]), np.array([1.0, 2e-17j])]
    for _ in range(147):
        n = int(rng.integers(1, 80))
        scale = 10.0 ** rng.uniform(-18, 2, size=n)
        series.append(scale * np.exp(2j * np.pi * rng.random(n)))
    for xs, ys in (([], []), ([0], [0.5]), (np.arange(3), np.array([1.0, -2.0, 0.0]))):
        for x_max in (0.0, 2.0):
            args = (60, "p", xs, ys, -3.0, 1.0, x_max, "pt")
            assert P._panel(*args) == _panel_formatting_per_use(*args)
    got = [P.render_series_svg(v, "t") for v in series]
    monkeypatch.setattr(P, "_panel", _panel_formatting_per_use)
    assert got == [P.render_series_svg(v, "t") for v in series]


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
