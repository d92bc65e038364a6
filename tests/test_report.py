"""Reporting helpers: tables and experiment records."""

import numpy as np
import pytest

from repro.report import (
    ExperimentRecord,
    append_keyed_bench_record,
    dict_rows_to_table,
    format_table,
    load_keyed_bench,
    load_records,
    relative_error,
    save_records,
)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bbb", 2.0]])
        lines = table.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.235" in table   # default precision 3

    def test_format_table_with_title(self):
        table = format_table(["x"], [[1]], title="My title")
        assert table.splitlines()[0] == "My title"

    def test_dict_rows_to_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        table = dict_rows_to_table(rows)
        assert "a" in table and "4.500" in table

    def test_dict_rows_column_selection(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        table = dict_rows_to_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_empty_rows(self):
        assert "(empty table)" in dict_rows_to_table([])

    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(90.0, 100.0) == pytest.approx(-0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == np.inf


class TestRecords:
    def test_json_roundtrip(self, tmp_path):
        record = ExperimentRecord(
            experiment_id="table4", description="energy", workload="5-shot",
            measured={"energy_mj": 11.2}, paper={"energy_mj": 11.35},
            notes="within 2%")
        restored = ExperimentRecord.from_json(record.to_json())
        assert restored.experiment_id == "table4"
        assert restored.measured["energy_mj"] == pytest.approx(11.2)

    def test_numpy_values_serialize(self):
        record = ExperimentRecord(
            experiment_id="fig3", description="", workload="",
            measured={"acc": np.float32(0.5), "curve": np.array([1.0, 2.0])})
        text = record.to_json()
        assert "0.5" in text

    def test_save_and_load_records(self, tmp_path):
        records = [ExperimentRecord(experiment_id=f"exp{i}", description="d",
                                    workload="w", measured={"x": i})
                   for i in range(3)]
        path = save_records(records, tmp_path / "out" / "records.json")
        assert path.exists()
        loaded = load_records(path)
        assert len(loaded) == 3
        assert loaded[1].measured["x"] == 1


class TestBenchHistory:
    def test_append_creates_latest_and_history(self, tmp_path):
        path = tmp_path / "bench.json"
        append_keyed_bench_record(path, "section", {"run": 1})
        data = append_keyed_bench_record(path, "section", {"run": 2})
        assert data["section"]["latest"] == {"run": 2}
        assert data["section"]["history"] == [{"run": 1}, {"run": 2}]
        assert load_keyed_bench(path) == data

    def test_history_limit_is_enforced(self, tmp_path):
        path = tmp_path / "bench.json"
        append_keyed_bench_record(path, "other", {"run": -1}, limit=3)
        for run in range(5):
            data = append_keyed_bench_record(path, "section", {"run": run},
                                             limit=3)
        assert [entry["run"] for entry in data["section"]["history"]] \
            == [2, 3, 4]
        assert data["section"]["latest"] == {"run": 4}
        assert data["other"]["history"] == [{"run": -1}]

    def test_history_limit_zero_keeps_nothing(self, tmp_path):
        path = tmp_path / "bench.json"
        data = append_keyed_bench_record(path, "section", {"run": 0},
                                         limit=0)
        assert data["section"]["history"] == []
        assert data["section"]["latest"] == {"run": 0}

    def test_corrupt_file_resets_cleanly(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        data = append_keyed_bench_record(path, "section", {"run": 1})
        assert data == {"section": {"latest": {"run": 1},
                                    "history": [{"run": 1}]}}


class TestKeyedBenchMalformedInputs:
    """The keyed helpers normalise every on-disk malformation to a usable
    shape — a half-written artefact file must never take the scenario
    matrix (or its latency-floor gate) down with a parse error."""

    def test_truncated_file_normalises_to_empty(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"kill_shard": {"latest": {"run": 1}, "hist')
        assert load_keyed_bench(path) == {}
        # ...and appending over the wreckage starts a fresh trend.
        data = append_keyed_bench_record(path, "kill_shard", {"run": 2})
        assert data["kill_shard"]["history"] == [{"run": 2}]

    def test_missing_history_backfills_from_latest(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"kill_shard": {"latest": {"run": 3}}}')
        data = load_keyed_bench(path)
        assert data["kill_shard"]["latest"] == {"run": 3}
        assert data["kill_shard"]["history"] == []
        appended = append_keyed_bench_record(path, "kill_shard", {"run": 4})
        assert appended["kill_shard"]["latest"] == {"run": 4}
        assert appended["kill_shard"]["history"] == [{"run": 4}]

    def test_missing_latest_backfills_from_history(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            '{"hang_shard": {"history": [{"run": 1}, {"run": 2}]}}')
        data = load_keyed_bench(path)
        assert data["hang_shard"]["latest"] == {"run": 2}

    def test_non_dict_entries_are_dropped(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            '{"good": {"history": [{"run": 1}, "junk", 4, null,'
            ' {"run": 2}]},'
            ' "bad": "not a trend", "worse": [1, 2, 3]}')
        data = load_keyed_bench(path)
        assert sorted(data) == ["good"]
        assert data["good"]["history"] == [{"run": 1}, {"run": 2}]

    def test_top_level_non_object_normalises_to_empty(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('[{"run": 1}]')
        assert load_keyed_bench(path) == {}
        path.write_text('"just a string"')
        assert load_keyed_bench(path) == {}
        assert load_keyed_bench(tmp_path / "missing.json") == {}
