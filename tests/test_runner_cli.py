"""Tests for the hcs-experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments.runner import main, run_experiment


class TestMain:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "table-cuts" in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_runs_single_experiment(self, capsys):
        assert main(["table-cuts"]) == 0
        out = capsys.readouterr().out
        assert "1185922" in out
        assert "completed in" in out

    def test_fast_flag(self, capsys):
        assert main(["fig4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "node-label distribution" in out

    def test_runs_override(self, capsys):
        assert main(["fig4", "--runs", "2"]) == 0
        assert "runs=2" in capsys.readouterr().out

    def test_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class TestRunExperiment:
    def test_runs_parameter_ignored_when_unsupported(self):
        # fig11 has no `runs` parameter; the override must not break it.
        result = run_experiment("table-cuts", runs=3)
        assert result.rows

    def test_fast_parameters_do_not_leak(self):
        # _FAST_OVERRIDES must not be mutated by the runs override.
        run_experiment("fig4", fast=True, runs=1)
        from repro.experiments.runner import _FAST_OVERRIDES

        assert "runs" not in _FAST_OVERRIDES["fig4"] or (
            _FAST_OVERRIDES["fig4"]["runs"] == 1
        )


class TestObservabilityFlags:
    def test_trace_prints_event_summary(self, capsys):
        assert main(["fig2", "--fast", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "# trace:" in out
        assert "span.start" in out

    def test_trace_recorder_is_restored(self):
        from repro.obs import NULL_RECORDER, get_recorder

        main(["fig4", "--fast", "--trace"])
        assert get_recorder() is NULL_RECORDER

    def test_metrics_out_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(["fig2", "--fast", "--metrics-out", str(path)]) == 0
        assert "# metrics written to" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert set(data) == {"counters", "histograms"}
        assert any(
            key.startswith("planner_seconds")
            for key in data["histograms"]
        )

    def test_metrics_out_dash_prints_to_stdout(self, capsys):
        assert main(["fig4", "--fast", "--metrics-out", "-"]) == 0
        out = capsys.readouterr().out
        assert '"histograms"' in out

    def test_metrics_registry_is_restored(self, tmp_path):
        from repro.obs import NULL_METRICS, get_metrics

        main(["fig4", "--fast", "--metrics-out", str(tmp_path / "m.json")])
        assert get_metrics() is NULL_METRICS


class TestMaintenanceIngestCompact:
    """The delta-lifecycle maintenance commands: ingest and compact."""

    @pytest.fixture
    def durable_index(self, tmp_path):
        import numpy as np

        from repro.hierarchy.serialization import save_hierarchy
        from repro.hierarchy.tree import Hierarchy
        from repro.storage.catalog import MaterializedNodeCatalog
        from repro.storage.manifest import DurableBitmapStore

        hierarchy = Hierarchy.from_nested([[2, 2], [3], [2]])
        rng = np.random.default_rng(2)
        column = rng.integers(
            0, hierarchy.num_leaves, size=300, dtype=np.int64
        )
        store_dir = tmp_path / "index"
        store = DurableBitmapStore(store_dir)
        MaterializedNodeCatalog(hierarchy, column, store)
        hierarchy_path = tmp_path / "hierarchy.json"
        save_hierarchy(hierarchy, hierarchy_path)
        return store_dir, hierarchy_path

    def test_ingest_then_compact_round_trip(
        self, durable_index, capsys
    ):
        import json

        from repro.storage.manifest import DurableBitmapStore

        store_dir, hierarchy_path = durable_index
        assert main(
            [
                "ingest",
                "--store-dir", str(store_dir),
                "--hierarchy-json", str(hierarchy_path),
                "--ingest-rows", "40",
                "--ingest-seed", "9",
            ]
        ) == 0
        ingested = json.loads(capsys.readouterr().out)
        assert ingested["committed"] is True
        assert ingested["seq"] == 1
        assert ingested["num_rows"] == 40

        assert main(
            [
                "ingest",
                "--store-dir", str(store_dir),
                "--hierarchy-json", str(hierarchy_path),
                "--ingest-values", "0, 2, 5",
            ]
        ) == 0
        ingested = json.loads(capsys.readouterr().out)
        assert ingested["seq"] == 2
        assert ingested["num_rows"] == 3

        assert main(
            ["compact", "--store-dir", str(store_dir)]
        ) == 0
        compacted = json.loads(capsys.readouterr().out)
        assert compacted["did_work"] is True
        assert compacted["folded_seqs"] == [1, 2]
        assert compacted["folded_rows"] == 43

        store = DurableBitmapStore(store_dir)
        assert store.delta_manifests == ()
        assert store.manifest.num_rows == 343

        # and the folded index scrubs clean
        assert main(
            [
                "verify-index",
                "--store-dir", str(store_dir),
                "--hierarchy-json", str(hierarchy_path),
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["clean"]

    def test_ingest_requires_hierarchy_json(
        self, durable_index, capsys
    ):
        import json

        store_dir, _hierarchy_path = durable_index
        assert main(
            [
                "ingest",
                "--store-dir", str(store_dir),
                "--ingest-rows", "5",
            ]
        ) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "--hierarchy-json" in error

    def test_ingest_requires_a_batch_specifier(
        self, durable_index, capsys
    ):
        import json

        store_dir, hierarchy_path = durable_index
        assert main(
            [
                "ingest",
                "--store-dir", str(store_dir),
                "--hierarchy-json", str(hierarchy_path),
            ]
        ) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "--ingest-values or --ingest-rows" in error

    def test_compact_on_missing_directory_fails(
        self, tmp_path, capsys
    ):
        import json

        assert main(
            ["compact", "--store-dir", str(tmp_path / "nope")]
        ) == 2
        assert "error" in json.loads(capsys.readouterr().out)
