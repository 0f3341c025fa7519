import csv
import json

import numpy as np
import pytest

from fedfft.cli import main
from fedfft.tensors import ModelWeights, save_weight_dump, load_weight_dump


SMALL_CONFIG = {
    "task": {"clients": 5, "per_client": 25, "dim": 4, "classes": 2, "seed": 1},
    "train": {"rounds": 2, "epochs": 1, "seed": 7},
    "repeats": 2,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_minimal_config_exit_zero_and_row_count(self, tmp_path):
        cfg = dict(SMALL_CONFIG, output_dir=str(tmp_path / "out"))
        code = main(["run", write_config(tmp_path, cfg)])
        assert code == 0
        with open(tmp_path / "out" / "rounds.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "round", "repeat", "aggregator", "attack", "fraction",
            "decision", "detector_score", "accuracy", "loss", "wall_ms",
        ]
        assert len(rows) - 1 == 2 * 2  # rounds x repeats
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "mean" in summary["final_accuracy"]
        assert summary["config"]["repeats"] == 2

    def test_malformed_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["run", str(path)]) == 2

    def test_unknown_field_exit_two(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["task"] = dict(cfg["task"], nope=1)
        assert main(["run", write_config(tmp_path, cfg)]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        config_path = write_config(tmp_path, cfg)
        main(["run", config_path, "--out-dir", str(tmp_path / "a")])
        main(["run", config_path, "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "rounds.csv").read_bytes()
        b = (tmp_path / "b" / "rounds.csv").read_bytes()
        assert a == b


class TestSweep:
    def test_single_point_matches_run(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        config_path = write_config(tmp_path, cfg)
        assert main(["run", config_path, "--out-dir", str(tmp_path / "run")]) == 0
        assert (
            main(["sweep", config_path, "--fractions", "0", "--out-dir", str(tmp_path / "sweep")])
            == 0
        )
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        with open(tmp_path / "sweep" / "matrix.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "fedavg"]
        assert float(rows[1][1]) == pytest.approx(
            summary["final_accuracy"]["mean"], abs=1e-6
        )

    def test_requires_exactly_one_grid(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", config_path]) == 2
        assert main(["sweep", config_path, "--fractions", "0", "--thresholds", "0.1"]) == 2

    def test_threshold_sweep_over_named_aggregators(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["aggregators"] = {
            "dynamic:kde": {"kind": "dynamic", "detector": {"subset_size": 2}},
        }
        config_path = write_config(tmp_path, cfg)
        out = tmp_path / "tsweep"
        assert main(["sweep", config_path, "--thresholds", "0.02,1.0", "--out-dir", str(out)]) == 0
        with open(out / "matrix.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "dynamic:kde"]
        assert len(rows) == 3


class TestAggregateCommand:
    def make_dumps(self, tmp_path, layers_list):
        paths = []
        for i, layers in enumerate(layers_list):
            p = tmp_path / f"w{i}.json"
            save_weight_dump(ModelWeights([np.asarray(l, float) for l in layers]), str(p))
            paths.append(str(p))
        return paths

    def test_single_input_identity(self, tmp_path):
        (path,) = self.make_dumps(tmp_path, [[[1.0, 2.0, 3.0]]])
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", path, "--method", "median", "--out", out]) == 0
        assert load_weight_dump(out) == load_weight_dump(path)

    def test_median_of_three_scalars(self, tmp_path):
        paths = self.make_dumps(tmp_path, [[[1.0]], [[2.0]], [[100.0]]])
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", *paths, "--method", "median", "--out", out]) == 0
        assert load_weight_dump(out).layers[0].tolist() == [2.0]

    def test_shape_mismatch_exit_four(self, tmp_path):
        paths = self.make_dumps(tmp_path, [[[1.0, 2.0]], [[1.0, 2.0, 3.0]]])
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", *paths, "--out", out]) == 4

    def test_bad_file_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "layers": []}')
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", str(bad), "--out", out]) == 2

    def test_non_finite_dump_exit_two(self, tmp_path):
        # Python's json reads NaN and Infinity, so a dump can carry them
        for token in ("NaN", "Infinity"):
            bad = tmp_path / f"{token}.json"
            bad.write_text('{"version": 1, "layers": [{"shape": [2], "data": [1.0, %s]}]}' % token)
            out = str(tmp_path / "out.json")
            assert main(["aggregate", "--in", str(bad), "--out", out]) == 2

    def test_fft_method(self, tmp_path):
        paths = self.make_dumps(
            tmp_path, [[[0.0, 0.0]], [[0.01, 0.02]], [[-0.01, 0.01]], [[9.0, 9.0]]]
        )
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", *paths, "--method", "fft", "--out", out]) == 0
        vals = load_weight_dump(out).layers[0]
        assert np.all(np.abs(vals) <= 0.02)


class TestKsTestCommand:
    def test_output_format(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n".join(str(v) for v in [1, 2, 3, 4]))
        b.write_text("\n".join(str(v) for v in [2, 3, 4, 5]))
        assert main(["ks-test", str(a), str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "statistic 0.250000"
        assert out[1].startswith("p-value 0.") and len(out[1].split()[1].split(".")[1]) == 6

    def test_missing_file(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1\n2\n")
        assert main(["ks-test", str(a), str(tmp_path / "nope.txt")]) == 2


class TestSelftestCommand:
    def test_passes_and_reports_suites(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        assert "FAIL" not in out
