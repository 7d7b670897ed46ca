"""CSV export of experiment results."""

import csv

import pytest

from repro.errors import ConfigurationError
from repro.io import result_to_csv, rows_to_csv


def read_csv_rows(path):
    """The rows of a CSV file, as strings."""
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class FakeResult:
    def rows(self):
        return [["16nm", 0.53, 100], ["11nm", 0.28, 198]]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = rows_to_csv(FakeResult().rows(), tmp_path / "out.csv")
        rows = read_csv_rows(path)
        assert rows == [["16nm", "0.53", "100"], ["11nm", "0.28", "198"]]

    def test_headers_written(self, tmp_path):
        path = rows_to_csv(
            FakeResult().rows(), tmp_path / "out.csv", headers=["node", "area", "cores"]
        )
        rows = read_csv_rows(path)
        assert rows[0] == ["node", "area", "cores"]
        assert len(rows) == 3

    def test_result_to_csv(self, tmp_path):
        path = result_to_csv(FakeResult(), tmp_path / "r.csv")
        assert path.exists()
        assert len(read_csv_rows(path)) == 2

    def test_empty_rows_ok(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv")
        assert read_csv_rows(path) == []

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="inconsistent"):
            rows_to_csv([[1, 2], [3]], tmp_path / "bad.csv")

    def test_header_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="headers"):
            rows_to_csv([[1, 2]], tmp_path / "bad.csv", headers=["only"])


class TestExperimentIntegration:
    def test_real_experiment_exports(self, tmp_path):
        from repro.experiments import fig01_scaling

        result = fig01_scaling.run()
        path = result_to_csv(result, tmp_path / "fig1.csv")
        rows = read_csv_rows(path)
        assert len(rows) == 4
        assert rows[1][0] == "16nm"

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fig1", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.csv").exists()
        assert "exported" in capsys.readouterr().out
