import hashlib
import re

import numpy as np
import pytest

from drsplit.plotting import render_rate_plot


def series():
    k = np.arange(120)
    return "z residual", k, 2.0 * 0.5 ** k


class TestSvgEmitter:
    def test_emits_valid_standalone_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        text = render_rate_plot(path, *series(), title="decay")
        assert path.read_text() == text
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "<polyline" in text

    def test_pinned_bytes(self, tmp_path):
        text = render_rate_plot(tmp_path / "plot.svg", *series(),
                                guide=(0.5, "rate 0.5"), title="decay")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "12791ff71e4bf4d611278bd6250f73dd1bdc54afb1cc72fc0f917a41dc3a87cc")

    def test_guide_line_present_when_rate_given(self, tmp_path):
        text = render_rate_plot(tmp_path / "plot.svg", *series(),
                                guide=(0.5, "rate 0.5"))
        assert 'id="theory-guide"' in text
        assert "rate 0.5" in text

    def test_guide_line_absent_without_rate(self, tmp_path):
        text = render_rate_plot(tmp_path / "plot.svg", *series())
        assert "theory-guide" not in text

    def test_nonpositive_values_are_dropped_not_fatal(self, tmp_path):
        k = np.arange(50)
        r = 0.5 ** k
        r[10] = 0.0
        text = render_rate_plot(tmp_path / "plot.svg", "r", k, r)
        assert "<polyline" in text

    def test_labels_are_escaped(self, tmp_path):
        text = render_rate_plot(tmp_path / "plot.svg", "a<b&c",
                                np.arange(40), np.full(40, 2.0))
        assert "a&lt;b&amp;c" in text

    @pytest.mark.parametrize("low, labels", [
        (1.4, ["0", "1"]),      # inside one decade: widened to its ends
        (0.5, ["0"]),           # 1e0 lies inside: the range stays
    ])
    def test_y_labels_at_whole_decades(self, tmp_path, low, labels):
        k = np.arange(60)
        values = low + (8.1 - low) * (k % 7) / 6.0
        text = render_rate_plot(tmp_path / "plot.svg", "z step", k, values)
        assert re.findall(r">1e(-?\d+)</text>", text) == labels
