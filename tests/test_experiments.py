"""Tests for the experiment modules: each figure runs (with small
parameters) and reproduces the paper's qualitative claims."""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig01_costmodel,
    fig02_case1_strategies,
    fig03_case1_optimality,
    fig04_label_distribution,
    fig05_case2_multi,
    fig06_case3_memory,
    fig07_k_sweep,
    fig08_case3_ranges,
    fig09_case3_queries,
    fig10_case3_sizes,
    fig11_opt_time_hierarchy,
    fig12_opt_time_queries,
    table_incomplete_cuts,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestExperimentResultTable:
    def test_to_text_renders_rows_and_notes(self):
        result = ExperimentResult(
            title="demo", columns=["a", "b"], notes=["note"]
        )
        result.add_row(a=1, b=2.5)
        text = result.to_text()
        assert "demo" in text
        assert "2.50" in text
        assert "# note" in text
        assert result.column("a") == [1]


class TestFig1:
    def test_model_tracks_measurements(self):
        result = fig01_costmodel.run(num_bits=300_000)
        errors = result.column("relative_error")
        assert max(errors) < 0.6
        assert sum(errors) / len(errors) < 0.25


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02_case1_strategies.run(
            runs=2, hierarchy_sizes=(20, 100)
        )

    def test_hybrid_never_worse(self, result):
        for row in result.rows:
            assert (
                row["hybrid_mb"] <= row["inclusive_mb"] + 1e-9
            )
            assert (
                row["hybrid_mb"] <= row["exclusive_mb"] + 1e-9
            )
            assert (
                row["hybrid_mb"] <= row["leaf_only_mb"] + 1e-9
            )

    def test_exclusive_wins_at_90_percent(self, result):
        for row in result.rows:
            if row["range_pct"] == 90:
                assert row["exclusive_mb"] < row["inclusive_mb"]

    def test_covers_both_datasets(self, result):
        assert set(result.column("dataset")) == {"normal", "tpch"}


class TestFig3:
    def test_hybrid_equals_exhaustive(self):
        result = fig03_case1_optimality.run(runs=2)
        for row in result.rows:
            assert row["hybrid_mb"] == pytest.approx(
                row["exhaustive_mb"]
            )
            assert row["exhaustive_mb"] <= row["average_mb"] + 1e-9
            assert row["average_mb"] <= row["worst_mb"] + 1e-9


class TestFig4:
    def test_fractions_sum_to_one_and_follow_regimes(self):
        result = fig04_label_distribution.run(runs=2)
        by_range = {row["range_pct"]: row for row in result.rows}
        for row in result.rows:
            total = (
                row["inclusive_preferred"]
                + row["exclusive_preferred"]
                + row["empty"]
            )
            assert total == pytest.approx(1.0)
        # Small ranges: exclusive rare; large ranges: exclusive wins.
        assert (
            by_range[10]["exclusive_preferred"]
            <= by_range[90]["exclusive_preferred"]
        )
        assert by_range[10]["empty"] > by_range[90]["empty"]


class TestFig5:
    def test_hybrid_is_optimal_for_workloads(self):
        result = fig05_case2_multi.run(
            runs=1, query_counts=(5, 15)
        )
        for row in result.rows:
            assert row["hybrid_mb"] == pytest.approx(
                row["optimal_mb"]
            )
            assert row["optimal_mb"] <= row["average_mb"] + 1e-9
            assert row["optimal_mb"] <= row["leaf_only_mb"] + 1e-9


class TestFig6:
    def test_greedy_tracks_optimum_under_tight_memory(self):
        result = fig06_case3_memory.run(
            runs=1,
            range_fractions=(0.5,),
            memory_fractions=(0.1, 0.9),
        )
        by_memory = {
            row["memory_pct"]: row for row in result.rows
        }
        tight = by_memory[10]
        assert tight["one_cut_mb"] <= tight[
            "exhaustive_mb"
        ] * 1.1 + 1e-9
        for row in result.rows:
            assert (
                row["exhaustive_mb"] <= row["k_cut_mb"] + 1e-9
            )
            assert (
                row["k_cut_mb"] <= row["one_cut_mb"] + 1e-9
            )
            assert (
                row["average_mb"] <= row["worst_mb"] + 1e-9
            )


class TestFig7:
    def test_ratios_at_least_one_and_k_helps(self):
        result = fig07_k_sweep.run(
            runs=1, memory_fractions=(0.1, 0.5, 0.9)
        )
        for row in result.rows:
            assert row["ratio_1_cut"] >= 1.0 - 1e-9
            assert (
                row["ratio_10_cut"]
                <= row["ratio_1_cut"] + 1e-9
            )
            assert (
                row["ratio_auto_stop"]
                <= row["ratio_1_cut"] + 1e-9
            )


class TestFigs8To10:
    def test_fig8_k_cut_tracks_optimum(self):
        result = fig08_case3_ranges.run(runs=1)
        for row in result.rows:
            assert (
                row["exhaustive_mb"] <= row["k_cut_mb"] + 1e-9
            )
            assert row["k_cut_mb"] <= row["average_mb"] + 1e-9

    def test_fig9_rows(self):
        result = fig09_case3_queries.run(
            runs=1, query_counts=(5, 15)
        )
        assert result.column("num_queries") == [5, 15]
        for row in result.rows:
            assert (
                row["exhaustive_mb"] <= row["worst_mb"] + 1e-9
            )

    def test_fig10_rows(self):
        result = fig10_case3_sizes.run(
            runs=1, hierarchy_sizes=(20, 100)
        )
        assert result.column("num_leaves") == [20, 100]


class TestTimingFigures:
    def test_fig11_roughly_linear(self):
        result = fig11_opt_time_hierarchy.run(
            hierarchy_sizes=(200, 800), num_queries=30
        )
        small, large = result.column("time_ms")
        assert large <= 4 * 8 * small + 50  # loose linearity bound

    def test_fig12_increases_with_queries(self):
        result = fig12_opt_time_queries.run(
            num_leaves=300, query_counts=(20, 80)
        )
        small, large = result.column("time_ms")
        assert large > small * 0.5


class TestTable:
    def test_counts_match_paper(self):
        result = table_incomplete_cuts.run()
        for row in result.rows:
            assert (
                row["incomplete_cuts"] == row["paper_reported"]
            )


class TestRunner:
    def test_registry_covers_all_figures(self):
        expected = {f"fig{i}" for i in range(1, 13)} | {
            "compression",
            "table-cuts",
            "ablation-strategies",
            "ablation-costmodel",
            "ablation-kcut",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_experiment_fast(self):
        result = run_experiment("table-cuts", fast=True)
        assert result.rows

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run_experiment("fig99")
