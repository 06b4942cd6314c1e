"""Tests for the experiment harness infrastructure and the cheap experiments.

The expensive table/figure reproductions are exercised (with assertions on
their shape) by the benchmark suite; here we test the harness plumbing — the
config, result container, formatting, registry and CLI — plus the experiments
that are cheap enough to run inside the unit-test suite (Table 2, Table 5,
Figure 7).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import figure7, table2, table5
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    format_result,
    format_rows,
)
from repro.experiments.runner import available_experiments, main, run_experiment


class TestExperimentConfig:
    def test_fast_defaults(self):
        config = ExperimentConfig(fast=True)
        assert config.sweep_num_jobs == 3_000
        assert config.sweep_frequency_step == 0.05
        assert config.runtime_hours < 18.0

    def test_full_defaults_match_paper(self):
        config = ExperimentConfig(fast=False)
        assert config.sweep_num_jobs == 10_000
        assert config.sweep_frequency_step == 0.01
        assert config.runtime_hours == 18.0

    def test_explicit_overrides_win(self):
        config = ExperimentConfig(fast=True, num_jobs=1234, frequency_step=0.02)
        assert config.sweep_num_jobs == 1234
        assert config.sweep_frequency_step == 0.02


class TestExperimentResult:
    @pytest.fixture()
    def result(self) -> ExperimentResult:
        rows = (
            {"workload": "dns", "frequency": 0.5, "power": 80.0},
            {"workload": "dns", "frequency": 1.0, "power": 120.0},
            {"workload": "google", "frequency": 0.5, "power": 90.0},
        )
        return ExperimentResult(name="demo", description="d", rows=rows)

    def test_column(self, result):
        assert result.column("frequency") == [0.5, 1.0, 0.5]

    def test_filtered(self, result):
        assert len(result.filtered(workload="dns")) == 2
        assert len(result.filtered(workload="dns", frequency=1.0)) == 1
        assert result.filtered(workload="mail") == []

    def test_unique(self, result):
        assert result.unique("workload") == ["dns", "google"]

    def test_empty_rows_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentResult(name="x", description="y", rows=())

    def test_format_rows_renders_all_columns(self, result):
        text = format_rows(result.rows)
        assert "workload" in text
        assert "google" in text
        assert text.count("\n") >= 4

    def test_format_rows_selected_columns(self, result):
        text = format_rows(result.rows, columns=["workload", "power"])
        assert "frequency" not in text

    def test_format_result_includes_notes(self):
        result = ExperimentResult(
            name="n", description="d", rows=({"a": 1},), notes=("check this",)
        )
        assert "note: check this" in format_result(result)

    def test_format_rows_rejects_empty(self):
        with pytest.raises(ExperimentError):
            format_rows([])


class TestRegistryAndCli:
    def test_all_tables_and_figures_registered(self):
        names = available_experiments()
        assert names[:12] == [
            "table2",
            "table5",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
        ]
        # The remaining entries are this reproduction's extension studies.
        assert all(name.startswith("ablation-") for name in names[12:])
        assert "ablation-over-provisioning" in names

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure9" in output

    def test_cli_runs_cheap_experiment(self, capsys):
        assert main(["table2", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Platform total" in output
        assert "completed in" in output


class TestTable2Experiment:
    def test_platform_totals_match_paper(self):
        result = table2.run()
        assert table2.platform_totals_match(result)

    def test_rows_include_components_and_system_states(self):
        result = table2.run()
        components = set(result.column("component"))
        assert {"Chipset", "RAM", "HDD", "NIC", "Fan", "PSU", "Platform total"} <= components
        assert any(name.startswith("system C6S3") for name in components)

    def test_peak_power_metadata(self):
        result = table2.run()
        assert result.metadata["peak_system_power_w"] == pytest.approx(250.0)


class TestTable5Experiment:
    def test_sampled_statistics_match_targets(self):
        result = table5.run(ExperimentConfig(fast=True, seed=0))
        assert table5.max_relative_error(result) < 0.1

    def test_all_three_workloads_present(self):
        result = table5.run(ExperimentConfig(fast=True))
        assert result.unique("workload") == ["dns", "google", "mail"]


class TestFigure7Experiment:
    def test_trace_summaries(self):
        result = figure7.run(ExperimentConfig(fast=True))
        summaries = result.metadata["summaries"]
        assert summaries["file-server"]["max"] <= 0.2
        assert summaries["email-store"]["max"] > 0.7

    def test_hourly_profile_rows(self):
        result = figure7.run(ExperimentConfig(fast=True))
        email_rows = result.filtered(trace="email-store")
        assert len(email_rows) == 24
        afternoon = next(r for r in email_rows if r["hour_of_day"] == 14)
        night = next(r for r in email_rows if r["hour_of_day"] == 4)
        assert afternoon["mean_utilization"] > night["mean_utilization"]


class TestRunExperiments:
    def test_multiple_experiments_serial(self):
        from repro.experiments.base import ExperimentConfig
        from repro.experiments.runner import run_experiments

        results = run_experiments(
            ["table2", "table5"], ExperimentConfig(fast=True, seed=1)
        )
        assert set(results) == {"table2", "table5"}
        assert results["table2"].rows

    def test_parallel_matches_serial(self):
        from repro.experiments.base import ExperimentConfig
        from repro.experiments.runner import run_experiments

        config = ExperimentConfig(fast=True, seed=1)
        serial = run_experiments(["table2", "table5"], config)
        pooled = run_experiments(["table2", "table5"], config, max_workers=2)
        for name in serial:
            assert serial[name].rows == pooled[name].rows

    def test_unknown_name_rejected_before_running(self):
        import pytest as _pytest

        from repro.exceptions import ExperimentError
        from repro.experiments.runner import run_experiments

        with _pytest.raises(ExperimentError):
            run_experiments(["table2", "figure99"])

    def test_cli_accepts_multiple_experiments(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2", "table5", "--parallel", "2", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output and "table5" in output
