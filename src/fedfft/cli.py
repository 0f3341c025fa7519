"""Command-line entry point: experiment runs, sweeps, offline aggregation,
KS tests, and a numeric self-test.

Config files are JSON documents with ``task``, ``train``, ``repeats`` and
``output_dir`` fields; every field has a default, and the fully resolved
config is echoed into the summary for provenance. All randomness flows from
the config seed: re-running a config byte-reproduces the rounds CSV. The
``wall_ms`` CSV column is fixed at 0 for that reason; measured timing goes
to the summary JSON instead. ``FEDFFT_THREADS`` caps worker threads
(0 or unset picks a machine default).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .adversary import AttackSpec
from .aggregators import KrumParam, TrimParam, coordinate_median, fed_avg, krum, trimmed_mean
from .detector import DetectorConfig, ks_test
from .fedsim import AggregatorSpec, RoundRecord, SyntheticTask, TrainConfig, run_experiment
from .fft_aggregator import FftStrategy, fft_aggregate
from .tensors import (
    BadWeightDump,
    ClientUpdate,
    ModelWeights,
    ShapeMismatch,
    load_weight_dump,
    save_weight_dump,
    validate_uniform,
)

CSV_HEADER = [
    "round",
    "repeat",
    "aggregator",
    "attack",
    "fraction",
    "decision",
    "detector_score",
    "accuracy",
    "loss",
    "wall_ms",
]

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_SHAPE_MISMATCH = 4


def _worker_count() -> int:
    raw = os.environ.get("FEDFFT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = min(8, os.cpu_count() or 1)
    return n


class ConfigError(ValueError):
    pass


def _build(cls, doc: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_task(doc: dict) -> SyntheticTask:
    doc = dict(doc)
    if doc.get("dirichlet_alpha") is None:
        doc.pop("dirichlet_alpha", None)
    return _build(SyntheticTask, doc, "task")


def parse_aggregator(doc: dict) -> AggregatorSpec:
    doc = dict(doc)
    if "strategy" in doc:
        doc["strategy"] = _build(FftStrategy, doc["strategy"], "aggregator.strategy")
    if "detector" in doc:
        doc["detector"] = _build(DetectorConfig, doc["detector"], "aggregator.detector")
    return _build(AggregatorSpec, doc, "aggregator")


def parse_train(doc: dict) -> TrainConfig:
    doc = dict(doc)
    if "aggregator" in doc:
        doc["aggregator"] = parse_aggregator(doc["aggregator"])
    if "attack" in doc:
        doc["attack"] = _build(AttackSpec, doc["attack"], "train.attack")
    return _build(TrainConfig, doc, "train")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    task: SyntheticTask
    train: TrainConfig
    repeats: int = 5
    output_dir: str = "out"

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def load_config(path: str) -> tuple[ExperimentConfig, dict]:
    """Parse a config file; returns the config and any extra top-level fields."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    extras = {k: v for k, v in doc.items() if k not in ("task", "train", "repeats", "output_dir")}
    cfg = ExperimentConfig(
        task=parse_task(doc.get("task", {})),
        train=parse_train(doc.get("train", {})),
        repeats=int(doc.get("repeats", 5)),
        output_dir=str(doc.get("output_dir", "out")),
    )
    return cfg, extras


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, float) and math.isinf(obj):
        return None
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def aggregator_label(spec: AggregatorSpec) -> str:
    if spec.kind == "fft":
        return f"fft:{spec.strategy.kind}"
    if spec.kind == "dynamic":
        return f"dynamic:{spec.strategy.kind}"
    return spec.kind


def _record_row(rec: RoundRecord, repeat: int, train: TrainConfig) -> list[str]:
    return [
        str(rec.round),
        str(repeat),
        aggregator_label(train.aggregator),
        train.attack.kind,
        f"{train.attack.attacker_fraction:.6f}",
        rec.decision,
        "" if rec.detector_score is None else f"{rec.detector_score:.6f}",
        f"{rec.global_accuracy:.6f}",
        f"{rec.global_loss:.6f}",
        "0",
    ]


def _run_repeats(cfg: ExperimentConfig) -> list[list[RoundRecord]]:
    """One run per repeat, seeds train.seed + 0 .. repeats-1, in repeat order."""
    trains = [
        dataclasses.replace(cfg.train, seed=cfg.train.seed + r) for r in range(cfg.repeats)
    ]
    workers = min(_worker_count(), cfg.repeats)
    if workers <= 1:
        return [run_experiment(t, cfg.task) for t in trains]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: run_experiment(t, cfg.task), trains))


def _write_rounds_csv(path: Path, cfg: ExperimentConfig, results: list[list[RoundRecord]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for repeat, records in enumerate(results):
            for rec in records:
                writer.writerow(_record_row(rec, repeat, cfg.train))


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg, _ = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        started = time.perf_counter()
        results = _run_repeats(cfg)
        out_dir = Path(args.out_dir or cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_rounds_csv(out_dir / "rounds.csv", cfg, results)
        finals = [records[-1].global_accuracy for records in results]
        summary = {
            "config": _jsonable(cfg),
            "final_accuracy": {
                "mean": float(np.mean(finals)),
                "std": float(np.std(finals)),
                "per_repeat": finals,
            },
            "wall_ms_total": int((time.perf_counter() - started) * 1000.0),
        }
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote {out_dir / 'rounds.csv'} and {out_dir / 'summary.json'}")
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _parse_grid(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --{name} list: {exc}") from exc
    if not values:
        raise ConfigError(f"--{name} list is empty")
    return values


def _sweep_aggregators(extras: dict, base: TrainConfig) -> dict[str, AggregatorSpec]:
    doc = extras.get("aggregators")
    if doc is None:
        spec = base.aggregator
        return {aggregator_label(spec): spec}
    if not isinstance(doc, dict) or not doc:
        raise ConfigError("'aggregators' must be a non-empty object of name -> spec")
    return {name: parse_aggregator(spec) for name, spec in doc.items()}


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg, extras = load_config(args.config)
        if (args.fractions is None) == (args.thresholds is None):
            raise ConfigError("exactly one of --fractions / --thresholds is required")
        if args.fractions is not None:
            grid_name, grid = "fraction", _parse_grid(args.fractions, "fractions")
        else:
            grid_name, grid = "threshold", _parse_grid(args.thresholds, "thresholds")
        aggregators = _sweep_aggregators(extras, cfg.train)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        out_dir = Path(args.out_dir or cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        points = []
        for value in grid:
            for name, agg in aggregators.items():
                train = dataclasses.replace(cfg.train, aggregator=agg)
                if grid_name == "fraction":
                    train = dataclasses.replace(
                        train, attack=dataclasses.replace(train.attack, attacker_fraction=value)
                    )
                else:
                    detector = dataclasses.replace(agg.detector, threshold=value)
                    train = dataclasses.replace(
                        train, aggregator=dataclasses.replace(agg, detector=detector)
                    )
                points.append((value, name, dataclasses.replace(cfg, train=train)))

        workers = min(_worker_count(), len(points))
        def run_point(point):
            value, name, point_cfg = point
            results = _run_repeats(point_cfg)
            tag = f"{name}_{grid_name}{value:g}".replace("/", "-").replace(":", "-")
            _write_rounds_csv(out_dir / f"rounds_{tag}.csv", point_cfg, results)
            finals = [records[-1].global_accuracy for records in results]
            return value, name, float(np.mean(finals))

        if workers <= 1:
            outcomes = [run_point(p) for p in points]
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run_point, points))

        table: dict[float, dict[str, float]] = {}
        for value, name, acc in outcomes:
            table.setdefault(value, {})[name] = acc
        matrix_path = out_dir / "matrix.csv"
        with open(matrix_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([grid_name] + list(aggregators))
            for value in grid:
                writer.writerow(
                    [f"{value:g}"] + [f"{table[value][name]:.6f}" for name in aggregators]
                )
        print(f"wrote {matrix_path}")
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_aggregate(args: argparse.Namespace) -> int:
    try:
        updates = [
            ClientUpdate(client_id=i, weights=load_weight_dump(p), dataset_size=1)
            for i, p in enumerate(args.inputs)
        ]
    except (BadWeightDump, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        validate_uniform(updates)
    except ShapeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE_MISMATCH
    try:
        method = args.method
        if method == "fedavg":
            result = fed_avg(updates)
        elif method == "median":
            result = coordinate_median(updates)
        elif method == "trimmed_mean":
            result = trimmed_mean(updates, TrimParam(args.trim_n))
        elif method == "krum":
            result = krum(updates, KrumParam(args.krum_f))
        else:
            result = fft_aggregate(updates, FftStrategy(kind=args.fft_strategy))
        save_weight_dump(result, args.out)
        print(f"wrote {args.out}")
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def cmd_ks_test(args: argparse.Namespace) -> int:
    try:
        samples = []
        for path in (args.sample_a, args.sample_b):
            with open(path) as fh:
                values = [float(line) for line in fh if line.strip()]
            if not values:
                raise ValueError(f"{path} holds no numbers")
            samples.append(np.array(values))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    result = ks_test(samples[0], samples[1])
    print(f"statistic {result.statistic:.6f}")
    print(f"p-value {result.p_value:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest: quick versions of the numeric oracle suites
# ---------------------------------------------------------------------------

def _suite_fft_vs_dft() -> bool:
    from .spectral import dft_naive, fft

    rng = np.random.default_rng(7)
    for n in list(range(1, 65)) + [97, 127, 128, 257]:
        for _ in range(3):
            x = rng.normal(size=n)
            if np.max(np.abs(fft(x) - dft_naive(x))) >= 1e-9:
                return False
    return True


def _suite_ks_bruteforce() -> bool:
    from .detector import ks_statistic

    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.integers(0, 5, rng.integers(1, 7)).astype(float)
        b = rng.integers(0, 5, rng.integers(1, 7)).astype(float)
        grid = np.unique(np.concatenate([a, b]))
        brute = max(
            abs(np.mean(a <= t) - np.mean(b <= t)) for t in grid
        )
        if ks_statistic(a, b) != brute:
            return False
    return True


def _suite_krum_exhaustive() -> bool:
    from .aggregators import krum_select

    rng = np.random.default_rng(9)
    for _ in range(100):
        K = int(rng.integers(4, 8))
        f = int(rng.integers(0, K - 3)) if K > 3 else 0
        flat = rng.normal(size=(K, 3))
        updates = [
            ClientUpdate(i, ModelWeights([flat[i]]), 1) for i in range(K)
        ]
        nn = K - f - 2
        scores = []
        for i in range(K):
            d2 = sorted(float(np.sum((flat[i] - flat[j]) ** 2)) for j in range(K) if j != i)
            scores.append(sum(d2[:nn]))
        if krum_select(updates, f) != int(np.argmin(scores)):
            return False
    return True


def _suite_minmax_gamma() -> bool:
    from .adversary import min_max_craft
    from .tensors import ModelWeights

    rng = np.random.default_rng(10)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        pts = rng.normal(size=(m, dim)) * rng.uniform(0.5, 2.0)
        mal = [ModelWeights([row]) for row in pts]
        res = min_max_craft(mal)
        mean = pts.mean(axis=0)
        pert = res.perturbation_vec.flat()
        diam = max(
            float(np.linalg.norm(pts[i] - pts[j])) for i in range(m) for j in range(i + 1, m)
        )
        grid = np.linspace(0.0, max(4.0 * diam, 1.0), 100_000)
        worst = np.max(
            np.linalg.norm(
                (mean[None, :] + grid[:, None] * pert[None, :])[:, None, :] - pts[None, :, :],
                axis=2,
            ),
            axis=1,
        )
        best = float(grid[np.nonzero(worst <= diam)[0][-1]])
        if abs(res.gamma - best) > 1e-4 * max(1.0, best):
            return False
    return True


def _suite_grad_check() -> bool:
    from .fedsim import MlpModel, grad_check

    model = MlpModel(dim=4, hidden=5, classes=3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        weights = model.init_weights(seed)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        if grad_check(model, weights, x, y) >= 1e-5:
            return False
    return True


def _suite_kde_direct() -> bool:
    from .spectral import kde_density, kde_density_direct

    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 65))
        s = rng.normal(0.0, rng.uniform(0.3, 2.0), n)
        if np.all(s == s[0]):
            continue
        est = kde_density(s, 256)
        ref = kde_density_direct(s, est.grid)
        if np.max(np.abs(est.density - ref) / ref) >= 1e-6:
            return False
        # the aggregator's own density sum must pick the value nearest the
        # oracle's mode on the same grid
        updates = [ClientUpdate(k, ModelWeights([np.array([x])]), 1) for k, x in enumerate(s)]
        picked = fft_aggregate(updates, FftStrategy()).layers[0][0]
        if picked != s[int(np.argmin(np.abs(s - est.grid[int(np.argmax(ref))])))]:
            return False
    return True


def cmd_selftest(_: argparse.Namespace) -> int:
    suites = [
        ("fft-vs-naive-dft", _suite_fft_vs_dft),
        ("ks-brute-force", _suite_ks_bruteforce),
        ("krum-exhaustive", _suite_krum_exhaustive),
        ("minmax-gamma-grid", _suite_minmax_gamma),
        ("gradient-finite-difference", _suite_grad_check),
        ("kde-direct-sum", _suite_kde_direct),
    ]
    started = time.perf_counter()
    failed = 0
    for name, suite in suites:
        ok = suite()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += 0 if ok else 1
    elapsed = time.perf_counter() - started
    print(f"{len(suites) - failed}/{len(suites)} suites passed in {elapsed:.1f}s")
    if elapsed > 60.0:
        print("warning: selftest exceeded its 60 s budget", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_SELFTEST_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfft",
        description="Byzantine-robust federated aggregation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep attacker fractions or thresholds")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--fractions", default=None, help="comma-separated attacker fractions")
    p_sweep.add_argument("--thresholds", default=None, help="comma-separated switch thresholds")
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_agg = sub.add_parser("aggregate", help="aggregate weight-dump files offline")
    p_agg.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_agg.add_argument(
        "--method",
        choices=["fedavg", "median", "trimmed_mean", "krum", "fft"],
        default="fedavg",
    )
    p_agg.add_argument("--trim-n", type=int, default=0)
    p_agg.add_argument("--krum-f", type=int, default=0)
    p_agg.add_argument("--fft-strategy", choices=["literal", "kde"], default="kde")
    p_agg.add_argument("--out", required=True)
    p_agg.set_defaults(func=cmd_aggregate)

    p_ks = sub.add_parser("ks-test", help="two-sample KS test on two numeric files")
    p_ks.add_argument("sample_a")
    p_ks.add_argument("sample_b")
    p_ks.set_defaults(func=cmd_ks_test)

    p_self = sub.add_parser("selftest", help="run the numeric oracle suites")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
