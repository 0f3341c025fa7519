import csv
import json

import numpy as np
import pytest

from fedfft import cli, oracles
from fedfft.aggregators import KrumParam, TrimParam, coordinate_median, fed_avg, krum, trimmed_mean
from fedfft.cli import load_config, main
from fedfft.detector import dynamic_aggregate
from fedfft.fedsim import AGGREGATORS, AggregatorSpec
from fedfft.fft_aggregator import FftStrategy, fft_aggregate
from fedfft.tensors import ClientUpdate, ModelWeights, save_weight_dump, load_weight_dump


SMALL_CONFIG = {
    "task": {"clients": 5, "per_client": 25, "dim": 4, "classes": 2, "seed": 1},
    "train": {"rounds": 2, "epochs": 1, "seed": 7},
    "repeats": 2,
}


# (task, train) overrides of SMALL_CONFIG whose rule cannot fit the clients
UNFIT_RULES = [
    ({}, {"aggregator": {"kind": "trimmed_mean", "trim_n": 3}}),  # 2*3 >= 5
    ({}, {"aggregator": {"kind": "krum", "krum_f": 3}}),  # 5 - 3 - 2 < 1
    (  # 3 - 1 - 2 < 1, with f the attacker count
        {"clients": 3},
        {
            "aggregator": {"kind": "krum"},
            "attack": {"kind": "random_weights", "attacker_fraction": 0.4},
        },
    ),
    ({}, {"aggregator": {"kind": "dynamic"}}),  # subset_size 5 >= 5
]


def small_config(task, train):
    """SMALL_CONFIG with its task and train sections overridden."""
    return dict(
        SMALL_CONFIG,
        task=dict(SMALL_CONFIG["task"], **task),
        train=dict(SMALL_CONFIG["train"], **train),
    )


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
        # valid JSON whose values do not fit the config's fields
        for command, doc in [
            ("run", {"repeats": "x"}),
            ("run", {"repeats": 0}),
            ("run", {"repeats": 2.7}),
            ("run", {"repeats": True}),
            ("run", {"train": 5}),
            ("run", {"train": {"aggregator": {"strategy": 3}}}),
            ("sweep", dict(SMALL_CONFIG, aggregators={"x": 5})),
            # values outside their field's range, refused before round 1
            ("run", small_config({"dirichlet_alpha": 0}, {})),
            ("run", small_config({"dirichlet_alpha": -1}, {})),
            ("run", small_config({}, {"batch_size": 0})),
            ("run", small_config({}, {"hidden": 0})),
            ("run", small_config({"dim": 0}, {})),
            ("run", small_config({"noise_sigma": -1}, {})),
        ]:
            argv = [command, write_config(tmp_path, doc), "--out-dir", str(tmp_path / "out")]
            if command == "sweep":
                argv += ["--fractions", "0"]
            assert main(argv) == 2, doc
            assert not (tmp_path / "out").exists(), doc

    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"train": {"rounds": true}}', "train.rounds"),  # an int field refuses a bool
            ('{"task": {"seed": 1.5}}', "task.seed"),
            ("nope", "not valid JSON"),
            # int-or-null fields refuse a bool, a float and a string
            ('{"train": {"aggregator": {"kind": "trimmed_mean", "trim_n": true}}}', "train.aggregator.trim_n"),
            ('{"train": {"aggregator": {"kind": "trimmed_mean", "trim_n": 1.7}}}', "train.aggregator.trim_n"),
            ('{"train": {"aggregator": {"kind": "krum", "krum_f": "2"}}}', "train.aggregator.krum_f"),
        ],
        ids=["bool-for-int", "float-for-int", "not-json", "bool-for-trim-n", "float-for-trim-n", "str-for-krum-f"],
    )
    def test_config_error_names_file_and_field(self, tmp_path, capsys, text, named):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "task,train",
        [({}, {"aggregator": {"kind": "trimmed_mean", "trim_n": 1}}), ({"dirichlet_alpha": 0.5}, {})],
        ids=["iid-trim-n", "dirichlet"],
    )
    def test_summary_config_loads_back_equal(self, tmp_path, task, train):
        path = write_config(tmp_path, small_config(task, train))
        out = tmp_path / "out"
        assert main(["run", path, "--out-dir", str(out)]) == 0
        echoed = json.loads((out / "summary.json").read_text())["config"]
        assert load_config(write_config(tmp_path, echoed, "echo.json")) == (load_config(path)[0], {})

    def test_unknown_field_exit_two(self, tmp_path):
        for section, doc in [
            ("task", dict(SMALL_CONFIG["task"], nope=1)),
            ("train", {"aggregator": {"detector": {"score_mode": "mean_p_value"}}}),
            ("train", {"aggregator": {"detector": {"coordinate_fraction": 0.25}}}),
        ]:
            cfg = dict(SMALL_CONFIG, **{section: doc})
            assert main(["run", write_config(tmp_path, cfg)]) == 2, doc

    def test_grid_size_is_not_a_config_field(self, tmp_path, capsys):
        # the kde scores the client values, so it has no grid to size
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config({}, {"aggregator": {"strategy": {"kind": "kde", "grid_size": 256}}}))
        assert main(["run", path, "--out-dir", str(out)]) == 2
        assert "train.aggregator.strategy.grid_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task,train", UNFIT_RULES)
    def test_rule_that_cannot_fit_exit_two(self, tmp_path, task, train):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config(task, train))
        assert main(["run", path, "--out-dir", str(out)]) == 2
        assert not out.exists()  # refused before round 1

    def test_rerun_byte_identical(self, tmp_path):
        # the dynamic config decides fft in every row, so the density rule reruns too
        detecting = dict(
            SMALL_CONFIG,
            task={"clients": 12, "per_client": 25, "dim": 4, "classes": 2, "seed": 1},
            train=dict(
                SMALL_CONFIG["train"],
                aggregator={"kind": "dynamic"},
                attack={"kind": "random_weights", "attacker_fraction": 0.34},
            ),
        )
        for name, cfg in [("small", SMALL_CONFIG), ("detecting", detecting)]:
            config_path = write_config(tmp_path, cfg, f"{name}.json")
            blobs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                assert main(["run", config_path, "--out-dir", str(out)]) == 0
                blobs.append((out / "rounds.csv").read_bytes())
            assert blobs[0] == blobs[1], name
        with open(tmp_path / "detecting_a" / "rounds.csv") as fh:
            assert "fft" in [row["decision"] for row in csv.DictReader(fh)]

    def test_failing_run_exit_three(self, tmp_path, monkeypatch, capsys):
        def crash(*_):
            raise RuntimeError("training diverged")

        monkeypatch.setattr(cli, "run_experiment", crash)
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: training diverged"]


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

    def test_point_csvs_match_run(self, tmp_path):
        task = {"clients": 12, "per_client": 25, "dim": 4, "classes": 2, "seed": 1}
        aggregators = {"fedavg": {"kind": "fedavg"}, "dynamic": {"kind": "dynamic"}}
        train = dict(SMALL_CONFIG["train"], attack={"kind": "random_weights"})
        cfg = dict(SMALL_CONFIG, task=task, train=train, aggregators=aggregators)
        out = tmp_path / "sweep"
        argv = ["sweep", write_config(tmp_path, cfg), "--fractions", "0,0.34", "--out-dir", str(out)]
        assert main(argv) == 0
        assert len(list(out.glob("rounds_*.csv"))) == 4
        for fraction in (0, 0.34):
            for name, spec in aggregators.items():
                attack = {"kind": "random_weights", "attacker_fraction": fraction}
                point = dict(SMALL_CONFIG, task=task, train=dict(train, aggregator=spec, attack=attack))
                tag = f"{name}_fraction{fraction:g}"
                path = write_config(tmp_path, point, f"{tag}.json")
                assert main(["run", path, "--out-dir", str(tmp_path / tag)]) == 0
                run_csv = (tmp_path / tag / "rounds.csv").read_bytes()
                assert (out / f"rounds_{tag}.csv").read_bytes() == run_csv, tag

    def test_requires_exactly_one_grid(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["sweep", config_path]) == 2
        assert main(["sweep", config_path, "--fractions", "0", "--thresholds", "0.1"]) == 2

    @pytest.mark.parametrize("task,train", UNFIT_RULES)
    def test_rule_that_cannot_fit_exit_two(self, tmp_path, task, train):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config(task, train))
        # the last fraction gives the attacker count that breaks krum's fit
        assert main(["sweep", path, "--fractions", "0,0.4", "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "aggregators,named",
        [
            ({"k": {"kind": "krum", "krum_f": "2"}}, "aggregators.k.krum_f"),
            ({"t": {"kind": "trimmed_mean", "trim_n": 1.7}}, "aggregators.t.trim_n"),
            ({"x": {"kind": "fedavg", "nope": 1}}, "aggregators.x"),
            ([], "'aggregators'"),
        ],
        ids=["str-for-krum-f", "float-for-trim-n", "unknown-field", "not-an-object"],
    )
    def test_aggregators_error_names_file_and_field(self, tmp_path, capsys, aggregators, named):
        path = write_config(tmp_path, dict(SMALL_CONFIG, aggregators=aggregators))
        out = tmp_path / "out"
        assert main(["sweep", path, "--fractions", "0", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert path in err and named in err
        assert not out.exists()

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


def dynamic_config(clients, subset_size, reject_level=0.05):
    detector = {"subset_size": subset_size, "reject_level": reject_level}
    return dict(
        SMALL_CONFIG,
        task=dict(SMALL_CONFIG["task"], clients=clients),
        train=dict(
            SMALL_CONFIG["train"],
            aggregator={"kind": "dynamic", "detector": detector},
            attack={"kind": "random_weights", "attacker_fraction": 0.3},
        ),
    )


class TestSmallKWarning:
    """dynamic warns once when its K - subset_size retained values cannot
    reach a p-value below reject_level (six or fewer at 0.05), and runs as
    before."""

    @pytest.mark.parametrize(
        "clients,subset_size,warned", [(3, 2, True), (8, 2, True), (9, 2, False), (11, 5, True), (12, 5, False)]
    )
    def test_run_warns_once_at_six_or_fewer_retained(self, tmp_path, capsys, clients, subset_size, warned):
        path = write_config(tmp_path, dynamic_config(clients, subset_size))
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == (1 if warned else 0)
        if warned:
            assert "cannot reject" in err and f"subset_size {subset_size}" in err

    @pytest.mark.parametrize(
        "clients,subset_size,level,warned",
        [(4, 2, 0.2, True), (5, 2, 0.2, True), (6, 2, 0.1, True), (8, 3, 0.2, False), (8, 2, 0.1, False)],
    )
    def test_run_warns_at_levels_above_five_percent(self, tmp_path, capsys, clients, subset_size, level, warned):
        # two to four retained values cannot reject at 0.1-0.2 either; five
        # reach a p-value of about 0.12 and six of about 0.06
        path = write_config(tmp_path, dynamic_config(clients, subset_size, reject_level=level))
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.count("warning:") == (1 if warned else 0)

    def test_no_warning_at_a_level_five_values_can_reject(self, tmp_path, capsys):
        # five retained values reach p of about 0.12, below a level of 0.2,
        # so the rule does switch
        path = write_config(tmp_path, dynamic_config(8, 3, reject_level=0.2))
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert ",fft," in (tmp_path / "out" / "rounds.csv").read_text()

    def test_warning_leaves_rounds_csv_unchanged(self, tmp_path, capsys):
        from fedfft.cli import _run_repeats, _write_rounds_csv, load_config

        path = write_config(tmp_path, dynamic_config(8, 2))
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.count("warning:") == 1
        cfg, _ = load_config(path)
        _write_rounds_csv(tmp_path / "direct.csv", cfg, _run_repeats(cfg))
        assert (tmp_path / "out" / "rounds.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_sweep_warns_once_over_all_points(self, tmp_path, capsys):
        cfg = dynamic_config(8, 2)
        cfg["aggregators"] = {
            "a": {"kind": "dynamic", "detector": {"subset_size": 2}},
            "b": {"kind": "dynamic", "detector": {"subset_size": 3}},
            "c": {"kind": "fedavg"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["sweep", path, "--fractions", "0,0.3", "--out-dir", str(tmp_path / "s")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "subset_size 2, 3" in err

    def test_other_rules_never_warn(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CONFIG)
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["sweep", path, "--fractions", "0", "--out-dir", str(tmp_path / "s")]) == 0
        assert "warning:" not in capsys.readouterr().err


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

    @pytest.mark.parametrize("method", ["fedavg", "median", "trimmed_mean", "krum", "fft", "dynamic"])
    def test_shape_mismatch_exit_four_for_every_method(self, tmp_path, method):
        # too few dumps for krum and dynamic: the shapes are checked first
        paths = self.make_dumps(tmp_path, [[[1.0, 2.0]], [[1.0, 2.0, 3.0]]])
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", *paths, "--method", method, "--out", out]) == 4

    def test_bad_file_exit_two(self, tmp_path, capsys):
        (good,) = self.make_dumps(tmp_path, [[[1.0, 2.0, 3.0]]])
        out = str(tmp_path / "out.json")
        for name, text in [
            ("version.json", '{"version": 99, "layers": []}'),
            ("true.json", '{"version": true, "layers": [{"shape": [1], "data": [1.0]}]}'),
            ("float.json", '{"version": 1.0, "layers": [{"shape": [1], "data": [1.0]}]}'),
            ("shape.json", '{"version": 1, "layers": [{"shape": [3], "data": [1.0, 2.0]}]}'),
            ("text.json", "not json"),
        ]:
            bad = tmp_path / name
            bad.write_text(text)
            assert main(["aggregate", "--in", good, str(bad), "--out", out]) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and good not in err

    @pytest.mark.parametrize(
        "layer",
        [
            {"shape": [1.5], "data": [1.0]},
            {"shape": [True], "data": [1.0]},
            {"shape": ["2"], "data": [1.0, 2.0]},
            {"shape": [2**32, 2**32], "data": []},  # the extent product wraps in int64
            {"shape": [1], "data": True},
            {"shape": [1], "data": ["1"]},
            {"shape": [1, 1], "data": [[1.0]]},
            {"shape": [1], "data": [10**400]},
            {"shape": [1]},
            [1.0],
        ],
    )
    def test_malformed_layer_exit_two(self, tmp_path, capsys, layer):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "layers": [{"shape": [1], "data": [1.0]}, layer]}))
        assert main(["aggregate", "--in", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "layer 1" in err

    def test_non_finite_dump_exit_two(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity, and 1e999 overflows to inf,
        # so a dump can carry non-finite values
        for token in ("NaN", "Infinity", "1e999"):
            bad = tmp_path / f"{token}.json"
            bad.write_text('{"version": 1, "layers": [{"shape": [2], "data": [1.0, %s]}]}' % token)
            out = str(tmp_path / "out.json")
            assert main(["aggregate", "--in", str(bad), "--out", out]) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and "non-finite" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "trimmed_mean", "--trim-n", "2"],
            ["--method", "trimmed_mean", "--trim-n", "-1"],
            ["--method", "krum", "--krum-f", "1"],
            ["--method", "dynamic"],
        ],
    )
    def test_bad_rule_parameters_exit_two(self, tmp_path, args):
        # three dumps: too few for these parameters (and for dynamic's subset of 5)
        paths = self.make_dumps(tmp_path, [[[1.0]], [[2.0]], [[3.0]]])
        out = str(tmp_path / "out.json")
        assert main(["aggregate", "--in", *paths, *args, "--out", out]) == 2

    @pytest.mark.parametrize(
        "kind,strategy",
        [
            (k, s)
            for k in AGGREGATORS
            for s in (("kde", "literal") if k in ("fft", "dynamic") else ("kde",))
        ],
    )
    def test_every_method_matches_library(self, tmp_path, kind, strategy):
        rng = np.random.default_rng(3)
        rows = rng.normal(0.0, 0.1, (8, 2, 3))
        rows[7] += 5.0  # one far client, so the robust rules have work to do
        paths = self.make_dumps(tmp_path, [[row[0], row[1]] for row in rows])
        updates = [ClientUpdate(i, load_weight_dump(p), 1) for i, p in enumerate(paths)]
        density = FftStrategy(kind=strategy)
        expected = {
            "fedavg": lambda: fed_avg(updates),
            "median": lambda: coordinate_median(updates),
            "trimmed_mean": lambda: trimmed_mean(updates, TrimParam(1)),
            "krum": lambda: krum(updates, KrumParam(1)),
            "fft": lambda: fft_aggregate(updates, density),
            "dynamic": lambda: dynamic_aggregate(updates, AggregatorSpec().detector, density, 0)[0],
        }[kind]()
        out = str(tmp_path / "out.json")
        argv = ["aggregate", "--in", *paths, "--method", kind, "--out", out]
        argv += ["--trim-n", "1", "--krum-f", "1", "--fft-strategy", strategy]
        assert main(argv) == 0
        assert load_weight_dump(out) == expected

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

    def test_non_finite_exit_two(self, tmp_path, capsys):
        for a_text, b_text in [("1\n2\nnan\n", "1\n5\ninf\n"), ("nan\nnan\n", "nan\n")]:
            a = tmp_path / "a.txt"
            b = tmp_path / "b.txt"
            a.write_text(a_text)
            b.write_text(b_text)
            assert main(["ks-test", str(a), str(b)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(a) in captured.err and "non-finite" in captured.err

    def test_malformed_line_names_file_and_line(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1\n2\n")
        b.write_text("1\n\nx\n")
        assert main(["ks-test", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{b}:3:" in captured.err and "'x'" in captured.err

    def test_missing_file(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1\n2\n")
        assert main(["ks-test", str(a), str(tmp_path / "nope.txt")]) == 2


class TestSelftestCommand:
    @pytest.mark.parametrize("name", list(oracles.CHECKS))
    def test_check_passes(self, name):
        assert oracles.CHECKS[name]() is None

    def test_failing_check_exit_one(self, monkeypatch, capsys):
        table = {"holds": lambda: None, "breaks": lambda: "n=97"}
        monkeypatch.setattr(oracles, "CHECKS", table)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["PASS holds", "FAIL breaks: n=97"]
        assert out[2].startswith("1/2 checks passed in ")

    def test_crashing_check_exit_three(self, monkeypatch, capsys):
        def crash():
            raise RuntimeError("check crashed")

        monkeypatch.setattr(oracles, "CHECKS", {"crash": crash})
        assert main(["selftest"]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: check crashed"]
