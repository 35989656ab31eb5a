"""ASCII figure renderer tests."""

import pytest

from repro.analysis import evaluate_campaign, topk_sweep
from repro.analysis.figures import (
    figure11_chart,
    hbar_chart,
    line_chart,
    topk_chart,
)


class TestHbar:
    def test_bars_scale_to_peak(self):
        text = hbar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_values_printed(self):
        text = hbar_chart([("model", 12345.0)])
        assert "12,345" in text

    def test_empty(self):
        assert hbar_chart([]) == "(no data)"

    def test_zero_values_no_crash(self):
        text = hbar_chart([("a", 0.0), ("b", 0.0)])
        assert "a" in text and "b" in text


class TestLineChart:
    def test_marks_every_point(self):
        text = line_chart([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], height=4)
        assert text.count("*") == 4

    def test_monotone_series_renders_diagonal(self):
        text = line_chart([1, 2, 3], [1.0, 2.0, 3.0], height=3)
        rows = [line for line in text.splitlines() if line.startswith("  |")]
        assert rows[0][3 + 2] == "*"   # max at the right
        assert rows[-1][3 + 0] == "*"  # min at the left

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_chart([1], [1.0, 2.0])

    def test_flat_series_no_crash(self):
        assert "*" in line_chart([1, 2], [5.0, 5.0])


class TestPaperCharts:
    def test_figure11_chart(self, medium_campaign):
        ev = evaluate_campaign(medium_campaign, seed=0)
        text = figure11_chart(ev)
        assert "Fig 11" in text
        for model in ("base-random", "pred-comb"):
            assert model in text

    def test_topk_chart(self, medium_campaign):
        sweep = topk_sweep(medium_campaign, ks=[1, 4, 7], seed=0)
        text = topk_chart(sweep)
        assert "Figs 12/13" in text
        assert "location accuracy %" in text
        assert "avg LERT" in text

