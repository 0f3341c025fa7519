"""Command-line entry point: experiment runs, sweeps, offline aggregation,
KS tests, and a numeric self-test.

Config files are JSON documents with ``task``, ``train``, ``repeats`` and
``output_dir`` fields; every field has a default, and the fully resolved
config is echoed into the summary for provenance. All randomness flows from
the config seed: re-running a config byte-reproduces the rounds CSV, whose
``wall_ms`` column is always 0. Measured timing goes to the summary JSON.
Repeats and sweep points run one after another.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

import numpy as np

from .aggregators import TooFewClients, TrimTooLarge
from .detector import SubsetTooLarge, ks_test
from .fedsim import (
    AGGREGATORS,
    AggregatorSpec,
    RoundRecord,
    SyntheticTask,
    TrainConfig,
    aggregate,
    run_experiment,
)
from .fft_aggregator import FftStrategy, fft_aggregate
from .tensors import (
    ClientUpdate,
    ModelWeights,
    ShapeMismatch,
    load_weight_dump,
    save_weight_dump,
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


class ConfigError(ValueError):
    pass


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _build(cls, doc, path: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``doc``, typed by its annotations.

    A dataclass-typed field is a nested section, built the same way; ``X |
    None`` also takes null; a float field also takes integers; every other
    field takes only its own JSON type. ``path`` is the section's dotted
    name, empty at the top level, and every error names the section or field.
    """
    section = path or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object")
    hints = get_type_hints(cls)
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown fields {', '.join(f'{path}.{n}' if path else n for n in unknown)}")
    values = {}
    for name, value in doc.items():
        field, hint = f"{path}.{name}" if path else name, hints[name]
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value, field)
        elif not (value is None and type(None) in get_args(hint)):
            want = next((t for t in get_args(hint) if t is not type(None)), hint)
            if type(value) not in ((int, float) if want is float else (want,)):
                null = "" if want is hint else " or null"
                raise ConfigError(f"{field} must be {_JSON_TYPES[want]}{null}, not {json.dumps(value)}")
        values[name] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    task: SyntheticTask = dataclasses.field(default_factory=SyntheticTask)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    repeats: int = 5
    output_dir: str = "out"

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def load_config(path: str) -> tuple[ExperimentConfig, dict]:
    """The config of a file, and its extra top-level fields; errors name the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        cfg = _build(ExperimentConfig, {k: v for k, v in doc.items() if k in names})
    except OSError as exc:  # its message names the file
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a ConfigError, or a file that is not text
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg, {k: v for k, v in doc.items() if k not in names}


# a rule's parameters do not fit the number of client updates
_FIT_ERRORS = (TrimTooLarge, TooFewClients, SubsetTooLarge)

# The exit code of a failed command, from the most specific class of its
# exception listed here; any other exception exits EXIT_RUNTIME.
_EXIT_CODES = {
    ConfigError: EXIT_BAD_CONFIG,
    **dict.fromkeys(_FIT_ERRORS, EXIT_BAD_CONFIG),
    ShapeMismatch: EXIT_SHAPE_MISMATCH,
}


def _check_fit(train: TrainConfig, task: SyntheticTask) -> None:
    """Refuse a run whose rule cannot fit its client count, before round 1.

    The rule runs once on as many identical one-parameter updates as the
    run has clients, so the fit is decided by the checks a real round makes.
    """
    probe = [ClientUpdate(k, ModelWeights([np.zeros(1)]), 1) for k in range(task.clients)]
    try:
        aggregate(train.aggregator, probe, train.attack.attacker_count(task.clients), 0)
    except _FIT_ERRORS as exc:
        raise ConfigError(f"aggregator {train.aggregator.label}: {exc}") from exc


def _warn_blind_dynamic(trains: Sequence[TrainConfig], task: SyntheticTask) -> None:
    """One stderr warning if a ``dynamic`` rule's test cannot reject at this K."""
    detectors = [t.aggregator.detector for t in trains if t.aggregator.kind == "dynamic"]
    blind = sorted({d.subset_size for d in detectors if d.cannot_reject(task.clients)})
    if blind:
        sizes = ", ".join(str(b) for b in blind)
        print(
            f"warning: dynamic with {task.clients} clients and subset_size {sizes} retains "
            "so few values per coordinate that its contamination test cannot reject at its "
            "reject_level: it runs as plain FedAvg whatever the attack",
            file=sys.stderr,
        )


def _record_row(rec: RoundRecord, repeat: int, train: TrainConfig) -> list[str]:
    return [
        str(rec.round),
        str(repeat),
        train.aggregator.label,
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
    return [
        run_experiment(dataclasses.replace(cfg.train, seed=cfg.train.seed + r), cfg.task)
        for r in range(cfg.repeats)
    ]


def _write_rounds_csv(path: Path, cfg: ExperimentConfig, results: list[list[RoundRecord]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for repeat, records in enumerate(results):
            for rec in records:
                writer.writerow(_record_row(rec, repeat, cfg.train))


def cmd_run(args: argparse.Namespace) -> int:
    cfg, _ = load_config(args.config)
    _check_fit(cfg.train, cfg.task)
    _warn_blind_dynamic([cfg.train], cfg.task)
    started = time.perf_counter()
    results = _run_repeats(cfg)
    out_dir = Path(args.out_dir or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_rounds_csv(out_dir / "rounds.csv", cfg, results)
    finals = [records[-1].global_accuracy for records in results]
    summary = {
        "config": dataclasses.asdict(cfg),
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
        return {spec.label: spec}
    if not isinstance(doc, dict) or not doc:
        raise ConfigError("'aggregators' must be a non-empty object of name -> spec")
    return {name: _build(AggregatorSpec, spec, f"aggregators.{name}") for name, spec in doc.items()}


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, extras = load_config(args.config)
    if (args.fractions is None) == (args.thresholds is None):
        raise ConfigError("exactly one of --fractions / --thresholds is required")
    if args.fractions is not None:
        grid_name, grid = "fraction", _parse_grid(args.fractions, "fractions")
    else:
        grid_name, grid = "threshold", _parse_grid(args.thresholds, "thresholds")
    try:
        aggregators = _sweep_aggregators(extras, cfg.train)
    except ConfigError as exc:  # named after the file, as load_config's errors are
        raise ConfigError(f"{args.config}: {exc}") from exc
    points = []
    for value in grid:
        for name, agg in aggregators.items():
            train = dataclasses.replace(cfg.train, aggregator=agg)
            try:
                if grid_name == "fraction":
                    attack = dataclasses.replace(train.attack, attacker_fraction=value)
                    train = dataclasses.replace(train, attack=attack)
                else:
                    detector = dataclasses.replace(agg.detector, threshold=value)
                    train = dataclasses.replace(
                        train, aggregator=dataclasses.replace(agg, detector=detector)
                    )
            except ValueError as exc:
                raise ConfigError(f"--{grid_name}s value {value:g}: {exc}") from exc
            _check_fit(train, cfg.task)
            points.append((value, name, dataclasses.replace(cfg, train=train)))
    _warn_blind_dynamic([point_cfg.train for _, _, point_cfg in points], cfg.task)

    out_dir = Path(args.out_dir or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table: dict[float, dict[str, float]] = {}
    for value, name, point_cfg in points:
        results = _run_repeats(point_cfg)
        tag = f"{name}_{grid_name}{value:g}".replace("/", "-").replace(":", "-")
        _write_rounds_csv(out_dir / f"rounds_{tag}.csv", point_cfg, results)
        finals = [records[-1].global_accuracy for records in results]
        table.setdefault(value, {})[name] = float(np.mean(finals))
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


def cmd_aggregate(args: argparse.Namespace) -> int:
    try:
        spec = AggregatorSpec(
            kind=args.method,
            trim_n=args.trim_n,
            krum_f=args.krum_f,
            strategy=FftStrategy(kind=args.fft_strategy),
        )
    except ValueError as exc:  # a negative --trim-n or --krum-f
        raise ConfigError(str(exc)) from exc
    updates = []
    for i, path in enumerate(args.inputs):
        try:
            weights = load_weight_dump(path)
        except OSError as exc:  # its message names the file
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        updates.append(ClientUpdate(client_id=i, weights=weights, dataset_size=1))
    result, _, _ = aggregate(spec, updates, 0, 0)
    save_weight_dump(result, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _read_sample(path: str) -> np.ndarray:
    """The numbers of a file with one value per line; blank lines are skipped."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a number: {line.strip()!r}") from None
    if not values:
        raise ValueError(f"{path} holds no numbers")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path} holds non-finite values")
    return np.array(values)


def cmd_ks_test(args: argparse.Namespace) -> int:
    try:
        samples = [_read_sample(path) for path in (args.sample_a, args.sample_b)]
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    result = ks_test(samples[0], samples[1])
    print(f"statistic {result.statistic:.6f}")
    print(f"p-value {result.p_value:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest: quick versions of the numeric oracle suites, against fedfft.oracles
# ---------------------------------------------------------------------------

def _one_layer_updates(rows: np.ndarray) -> list[ClientUpdate]:
    return [ClientUpdate(k, ModelWeights([row]), 1) for k, row in enumerate(rows)]


def _suite_fft_vs_dft() -> bool:
    from .oracles import dft_naive
    from .spectral import fft

    rng = np.random.default_rng(7)
    for n in list(range(1, 65)) + [97, 127, 128, 257]:
        for _ in range(3):
            x = rng.normal(size=n)
            if np.max(np.abs(fft(x) - dft_naive(x))) >= 1e-9:
                return False
    # literal's batched selection agrees with fft_select only if every row of
    # a batch transforms bit for bit as it does alone
    batch = rng.normal(size=(37, 50))
    return all(np.array_equal(got, fft(row)) for got, row in zip(fft(batch), batch))


def _suite_ks_bruteforce() -> bool:
    from .detector import DetectorConfig, gaussian_ks_statistic, ks_statistic, mal_test
    from .oracles import ecdf_distance, gaussian_ks_distance

    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.integers(0, 5, rng.integers(1, 7)).astype(float)
        b = rng.integers(0, 5, rng.integers(1, 7)).astype(float)
        if ks_statistic(a, b) != ecdf_distance(a, b):
            return False
    # the one-sample distance the detector scores with, on (rows x n) batches
    for _ in range(20):
        n = int(rng.integers(1, 21))
        batch = np.round(rng.normal(size=(8, n)), 1)
        mu = rng.normal(0.0, 0.3, 8)
        sigma = rng.uniform(0.5, 2.0, 8)
        got = gaussian_ks_statistic(batch, mu, sigma)
        for s, m, sd, d in zip(batch, mu, sigma, got):
            if abs(d - gaussian_ks_distance(s, m, sd)) > 1e-15:
                return False
    # the detector scores each draw at unit scale, so a power-of-two factor
    # on every client, even one whose squares overflow or underflow, moves
    # no score bit
    mat = rng.normal(size=(30, 40))
    mat[:8, ::2] += 4.0
    scores = mal_test(_one_layer_updates(mat), DetectorConfig(), seed=1)
    return all(
        np.array_equal(mal_test(_one_layer_updates(mat * factor), DetectorConfig(), seed=1), scores)
        for factor in (2.0**600, 2.0**-600)
    )


def _suite_ks_band_vs_exact() -> bool:
    from .detector import DetectorConfig, mal_test
    from .oracles import ks_draw_scores

    # the detector's bulk pass (Floyd draws in rank space, decided by the
    # critical band) against every draw by its p-value, on matrices where a
    # quarter of the clients is shifted on half of the coordinates, with tied
    # and unanimous coordinates among them; 7 retained values at level 0.9
    # take the band's widest bounds
    rng = np.random.default_rng(12)
    for k, cfg in (
        (8, DetectorConfig(subset_size=2, reject_level=0.5)),
        (20, DetectorConfig(reject_level=0.2)),
        (50, DetectorConfig()),
        (12, DetectorConfig(reject_level=0.9)),
    ):
        mat = rng.normal(size=(k, 14))
        mat[: k // 4, ::2] += rng.uniform(3.0, 8.0, 7)
        mat[:, 3] = np.round(mat[:, 3])
        mat[:, 5] = mat[0, 5]
        seed = int(rng.integers(1 << 30))
        got = mal_test(_one_layer_updates(mat), cfg, seed)
        # a one-layer model's draws come from the stream keyed (seed, 0)
        want = ks_draw_scores(mat, cfg, np.random.default_rng([seed, 0]))
        if not (np.array_equal(got, want) and got.max() > 0.0 and got.min() == 0.0):
            return False
    return True


def _suite_krum_exhaustive() -> bool:
    from .aggregators import krum_select
    from .oracles import broadcast_sq_distances, exact_krum_pick, krum_scores
    from .tensors import pairwise_sq_distances

    rng = np.random.default_rng(9)
    for _ in range(100):
        K = int(rng.integers(4, 8))
        f = int(rng.integers(0, K - 3)) if K > 3 else 0
        flat = rng.normal(size=(K, 3))
        if krum_select(_one_layer_updates(flat), f) != int(np.argmin(krum_scores(flat, f))):
            return False
    # Krum's distance kernel against the broadcast (K, K, P) tensor, duplicates
    # included, on row subsets of every size; 9000 values pass numpy's 8192-element einsum buffer
    for K, P in ((1, 40), (2, 40), (3, 9000), (6, 9000), (11, 9000)):
        rows = rng.normal(size=(K, P))
        rows[K // 2] = rows[0]
        want = broadcast_sq_distances(rows)
        for which in [rng.choice(K, size, replace=False) for size in range(K + 1)]:
            got = pairwise_sq_distances(rows, which)
            if not np.array_equal(got[which], want[which]) or not np.array_equal(got.T[which], want.T[which]):
                return False
    # the Gram-bounded pick against the exact matrix's, at 9000 values, on
    # duplicated rows and on near ties over a large common offset
    for _ in range(20):
        K = int(rng.integers(4, 13))
        f = int(rng.integers(0, K - 3 + 1))
        rows = rng.normal(size=(K, 9000))
        rows[K // 2 :] = rows[rng.integers(0, K // 2)]
        for cand in (rows, 1e3 + 1e-4 * rows):
            if krum_select(_one_layer_updates(cand), f) != exact_krum_pick(cand, f):
                return False
    return True


def _suite_minmax_gamma() -> bool:
    from .adversary import min_max_craft
    from .oracles import diameter, min_max_gamma_grid

    rng = np.random.default_rng(10)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        pts = rng.normal(size=(m, dim)) * rng.uniform(0.5, 2.0)
        res = min_max_craft([ModelWeights([row]) for row in pts])
        best = min_max_gamma_grid(pts, res.perturbation_vec.flat(), max(4.0 * diameter(pts), 1.0))
        if abs(res.gamma - best) > 1e-4 * max(1.0, best):
            return False
    return True


def _suite_grad_check() -> bool:
    from .fedsim import MlpModel
    from .oracles import grad_check

    model = MlpModel(dim=4, hidden=5, classes=3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        weights = model.init_weights(seed)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        if grad_check(model, weights, x, y) >= 1e-5:
            return False
    return True


def _suite_local_sgd_loop() -> bool:
    from .fedsim import MlpModel, gen_task, local_updates
    from .oracles import sgd_loop

    # 23 training rows per shard: batches of 8, 8 and a short 7, over three
    # classes, and over 2, 8 and 10 (numpy's class-axis sum turns pairwise at 8)
    cases = [(clients, hidden, 8, 3) for clients, hidden in ((1, 4), (3, 4), (7, 4), (5, 64))]
    cases += [(4, 8, 8, classes) for classes in (2, 8, 10)]
    # and batches of one through a unit that no input reaches (its bias is
    # -1e300) but whose outgoing weights overflow its gradient: the ReLU mask
    # must give 0.0 there, where a multiply by the mask gives inf * 0 = NaN
    cases.append((3, 8, 1, 3))
    epochs, lr = 2, 0.1
    for clients, hidden, batch, classes in cases:
        task = SyntheticTask(dim=3, classes=classes, per_client=29, clients=clients, seed=clients)
        data = gen_task(task)
        model = MlpModel(dim=3, hidden=hidden, classes=classes)
        start = model.init_weights(clients)
        if batch == 1:
            w1, b1, w2, b2 = (a.copy() for a in start.layers)
            b1[0] = -1e300
            w2[0] = [1.7e308, -1.7e308, 1.7e308]
            start = ModelWeights([w1, b1, w2, b2])
        rng = lambda k: np.random.default_rng([clients, k])  # noqa: E731
        # gen_task's stack view, and the contiguous copy of the odd shards
        # that run_experiment trains once the attackers drop out
        everyone = list(range(clients))
        inputs = [(everyone, data.train_x, data.train_y)]
        odd = everyone[1::2]
        if odd:
            inputs.append((odd, data.train_x[odd], data.train_y[odd]))
        for ids, xs, ys in inputs:
            with np.errstate(over="ignore"):
                try:
                    rngs = [rng(k) for k in ids]
                    batched = local_updates(model, start, xs, ys, epochs, batch, lr, rngs, ids)
                except ValueError:
                    return False
                for k, update in zip(ids, batched):
                    shard = data.clients[k]
                    want = sgd_loop(start, shard.train_x, shard.train_y, epochs, batch, lr, rng(k))
                    got = update.weights.layers
                    if update.client_id != k or any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
                        return False
    return True


def _suite_kde_direct() -> bool:
    from .oracles import kde_density_direct, kde_pick
    from .spectral import kde_density

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
    # the banded pass against a double loop over the distinct values, on
    # tie-heavy columns (repeated integers, mirrored clusters, one odd value)
    # and on far-spread ones shaped like a random-weights attack, whose
    # kernel terms take the guarded exp
    checked = total = 0
    for k in range(2, 51, 3):
        spread = (2 * k) // 5
        cols = np.stack(
            [
                rng.integers(-3, 4, k).astype(float),
                np.resize(np.concatenate([[-1.5, 1.5], np.round(rng.normal(0.0, 0.1, 4), 1)]), k),
                np.concatenate([np.full(k - 1, rng.normal()), [rng.normal(0.0, 5.0)]]),
                np.concatenate([-np.abs(rng.normal(2.0, 0.2, k // 2)), np.abs(rng.normal(2.0, 0.2, k - k // 2))]),
                np.concatenate([rng.normal(0.0, 0.3, spread), rng.normal(0.0, 0.01, k - spread)]),
                np.concatenate([rng.normal(0.0, 0.3, spread), rng.normal(0.0, 0.01, k - spread)]),
            ],
            axis=1,
        )
        picked = fft_aggregate(_one_layer_updates(cols), FftStrategy()).layers[0]
        for col, got in zip(cols.T, picked):
            want = kde_pick(col)
            total += 1
            if want is not None:
                checked += 1
                if got != want:
                    return False
    return checked >= 0.8 * total


def cmd_selftest(_: argparse.Namespace) -> int:
    suites = [
        ("fft-vs-naive-dft", _suite_fft_vs_dft),
        ("ks-brute-force", _suite_ks_bruteforce),
        ("ks-band-vs-exact", _suite_ks_band_vs_exact),
        ("krum-exhaustive", _suite_krum_exhaustive),
        ("minmax-gamma-grid", _suite_minmax_gamma),
        ("gradient-finite-difference", _suite_grad_check),
        ("local-sgd-loop", _suite_local_sgd_loop),
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
        choices=list(AGGREGATORS),
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
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: the one exit path of a failure
        print(f"error: {exc}", file=sys.stderr)
        return next((_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
