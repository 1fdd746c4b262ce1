"""Tests for ASCII plotting and CSV export (viz package)."""

import csv

import numpy as np
import pytest

from repro.viz.ascii import ascii_histogram, ascii_line_plot
from repro.viz.export import write_csv


class TestAsciiLinePlot:
    def test_renders_title_axes_and_legend(self):
        x = np.linspace(0, 10, 50)
        out = ascii_line_plot(
            x,
            {"rising": x, "falling": 10 - x},
            title="Test plot",
            x_label="days",
            y_label="feature",
        )
        assert "Test plot" in out
        assert "days" in out
        assert "feature" in out
        assert "legend:" in out
        assert "rising" in out and "falling" in out

    def test_plot_dimensions(self):
        x = np.linspace(0, 1, 10)
        out = ascii_line_plot(x, {"s": x}, width=40, height=8)
        grid_rows = [line for line in out.splitlines() if line.startswith("|")]
        assert len(grid_rows) == 8
        assert all(len(row) == 41 for row in grid_rows)

    def test_monotone_series_fills_corners(self):
        x = np.linspace(0, 1, 100)
        out = ascii_line_plot(x, {"s": x}, width=20, height=5)
        rows = [line[1:] for line in out.splitlines() if line.startswith("|")]
        assert rows[0].rstrip().endswith("*")  # top-right
        assert rows[-1].startswith("*")  # bottom-left

    def test_skips_non_finite_points(self):
        x = np.linspace(0, 1, 10)
        y = x.copy()
        y[3] = np.nan
        out = ascii_line_plot(x, {"s": y})
        assert "legend" in out

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            ascii_line_plot(np.ones(3), {})
        with pytest.raises(ValueError):
            ascii_line_plot(np.ones(3), {"s": np.full(3, np.nan)})

    def test_rejects_misaligned_series(self):
        with pytest.raises(ValueError):
            ascii_line_plot(np.ones(3), {"s": np.ones(4)})


class TestAsciiHistogram:
    def test_bar_lengths_track_counts(self):
        values = np.concatenate([np.zeros(90), np.ones(10)])
        out = ascii_histogram(values, bins=2, width=30, title="hist")
        lines = out.splitlines()
        assert lines[0] == "hist"
        assert lines[1].count("#") == 30
        assert 0 < lines[2].count("#") < 10

    def test_ignores_non_finite(self):
        values = np.asarray([1.0, 2.0, np.nan, np.inf])
        out = ascii_histogram(values, bins=2)
        assert "#" in out

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError):
            ascii_histogram(np.full(3, np.nan))


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        path = write_csv(
            tmp_path / "out.csv", ["a", "b"], [(1, 2.5), (3, "x")]
        )
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2.5"], ["3", "x"]]

    def test_creates_parent_directories(self, tmp_path):
        path = write_csv(tmp_path / "deep" / "nested" / "out.csv", ["a"], [(1,)])
        assert path.exists()

    def test_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [(1,)])
