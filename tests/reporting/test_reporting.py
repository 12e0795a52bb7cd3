"""Tests for table rendering, figure series and the experiment registry."""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError
from repro.reporting.experiments import EXPERIMENTS, get_experiment
from repro.reporting.figures import FigureSeries, cdf_series, curve_series
from repro.reporting.tables import format_percentage, format_table


class TestTables:
    def test_basic_rendering(self):
        table = format_table(
            ["domain", "users"],
            [["alpha.example", 1200], ["beta.example", 35]],
            title="Instances",
        )
        lines = table.splitlines()
        assert lines[0] == "Instances"
        assert "domain" in lines[1] and "users" in lines[1]
        assert "alpha.example" in table
        assert "1,200" in table

    def test_numbers_right_aligned(self):
        table = format_table(["n"], [[1], [1000]])
        lines = table.splitlines()
        assert lines[-1].endswith("1,000")
        assert lines[-2].endswith("    1")

    def test_float_formatting(self):
        table = format_table(["x"], [[0.5]])
        assert "0.50" in table

    def test_row_width_mismatch(self):
        with pytest.raises(AnalysisError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers(self):
        with pytest.raises(AnalysisError):
            format_table([], [])

    def test_format_percentage(self):
        assert format_percentage(0.1234) == "12.3%"
        assert format_percentage(0.5, digits=0) == "50%"

    def test_format_percentage_digits(self):
        assert format_percentage(0.123456, digits=2) == "12.35%"
        assert format_percentage(0.123456, digits=4) == "12.3456%"
        assert format_percentage(0.0) == "0.0%"
        assert format_percentage(1.0) == "100.0%"

    def test_bools_are_not_formatted_as_numbers(self):
        table = format_table(["flag"], [[True], [False]])
        assert "True" in table and "False" in table
        # bools are left-aligned like text, not right-aligned like ints
        lines = table.splitlines()
        assert lines[-2].startswith("True")
        assert lines[-1].startswith("False")

    def test_int_vs_bool_alignment_in_same_column(self):
        table = format_table(["value"], [[1000000], [True]])
        lines = table.splitlines()
        assert lines[-2].endswith("1,000,000")  # int: right-aligned with separators
        assert lines[-1].startswith("True")     # bool: left-aligned, no formatting

    def test_float_thousands_separator(self):
        table = format_table(["x"], [[1234.5678]])
        assert "1,234.57" in table

    def test_ragged_row_error_message_names_widths(self):
        with pytest.raises(AnalysisError, match="row width 3 does not match header width 2"):
            format_table(["a", "b"], [[1, 2], [1, 2, 3]])

    def test_mixed_type_column_width(self):
        table = format_table(["v"], [["a-long-string"], [7]])
        lines = table.splitlines()
        assert lines[-2] == "a-long-string"
        assert lines[-1].endswith("            7")


class TestFigureSeries:
    def test_add_and_export(self):
        figure = FigureSeries("fig7", "Downtime CDF")
        figure.add("instances", [0.0, 0.5, 1.0], [0.1, 0.6, 1.0])
        assert figure.names() == ["instances"]
        payload = figure.to_dict()
        assert payload["figure_id"] == "fig7"
        assert payload["series"]["instances"]["x"] == [0.0, 0.5, 1.0]
        json.dumps(payload)  # must be JSON-serialisable
        assert "fig7" in figure.summary()

    def test_mismatched_lengths_rejected(self):
        figure = FigureSeries("fig", "title")
        with pytest.raises(AnalysisError):
            figure.add("bad", [1, 2], [1])

    def test_cdf_series(self):
        xs, ys = cdf_series([3, 1, 2])
        assert xs == [1, 2, 3]
        assert ys[-1] == 1.0

    def test_curve_series(self):
        xs, ys = curve_series([(0, 1.0), (1, 0.5)])
        assert xs == [0.0, 1.0]
        assert ys == [1.0, 0.5]


class TestExperimentRegistry:
    def test_every_figure_and_table_registered(self):
        expected = {f"fig{i}" for i in range(1, 17)} | {
            "table1",
            "table2",
            "headline",
            "correlated",
            "churn",
        }
        assert expected == set(EXPERIMENTS)

    def test_every_experiment_has_modules_and_a_claim(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.modules
            assert experiment.paper_claim

    def test_get_experiment(self):
        assert get_experiment("fig12").title.startswith("Removing")
        with pytest.raises(AnalysisError):
            get_experiment("fig99")

    def test_registered_modules_importable(self):
        import importlib

        for experiment in EXPERIMENTS.values():
            for module in experiment.modules:
                importlib.import_module(module)
