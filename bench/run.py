"""Run one workload of the fedfft benchmark and print its metrics.

    python3 bench/run.py --workload sim-onset --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. The last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the provenance record and the run's details. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones. ``bench/series.py`` runs it over many
seeds and records both lines for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# one process, one BLAS thread: the rounds are Python-bound, and a single
# thread keeps the timings steady on a small shared machine
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is repeated this many times and reported as its median
SETUP_REPEATS = 5
# a fresh interpreter times its import of numpy and fedfft on the CPU clock
# of speed.clock, then calibrates (it needs numpy to)
IMPORT_PROBE = (
    "import sys, time; t = time.process_time(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, fedfft; t = time.process_time() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; print(t, speed.calibrate())"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_seconds() -> tuple[list[float], list[float]]:
    """Time to import numpy and fedfft, once here and in fresh interpreters.

    Returns the raw CPU seconds and the same at the reference speed. Each
    import is corrected by a calibration in the same process right after it,
    because calibrating needs numpy. (A calibration here, around a fresh
    interpreter, would follow an idle wait and read slow.)
    """
    began = time.process_time()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import fedfft

    raw = [time.process_time() - began]
    if os.path.dirname(os.path.abspath(fedfft.__file__)) != os.path.join(SRC, "fedfft"):
        raise SystemExit(f"fedfft was imported from {fedfft.__file__}, not from {SRC}")
    sys.path.insert(0, BENCH)
    import speed

    calibrations = [speed.calibrate()]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, BENCH],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, calibration = map(float, probe.stdout.split())
        raw.append(seconds)
        calibrations.append(calibration)
    return raw, [speed.corrected(t, c, c) for t, c in zip(raw, calibrations)]


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without the dict form
        blas_name = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "fedfft")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "machine": platform.machine(),
    }


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs, pct: int) -> float:
    import numpy as np

    return float(np.percentile(xs, pct)) if xs else 0.0


def measure(workload, inputs, seconds: float, tally, tracer=None, alternate=None) -> list[float]:
    """Repeat passes while the next one is expected to fit in ``seconds``.

    The run's length is kept on the wall clock; the wall seconds of every
    pass, checks included, are returned.

    Untraced, at least one pass per input set runs, so that the quality
    metrics cover every input the workload draws from the seed whatever the
    machine's speed.

    ``alternate``, when given, is a tally for untraced passes interleaved with
    the traced ones (traced run only), so that both halves see the same
    machine conditions and the tracing overhead is their ratio. Pairs
    alternate which half goes first, so that a cold first pass does not
    always land on the same half. The traced run reports no quality metric
    and needs only one pair.
    """
    least = workload.input_seeds if alternate is None else 1
    began = time.perf_counter()
    index = 0
    pass_times: list[float] = []
    while True:
        started = time.perf_counter()
        if alternate is not None and index % 2 == (index // 2) % 2:
            workload.run_pass(inputs, index // 2, alternate)
        else:
            if tracer is not None:
                tracer.install()
            try:
                workload.run_pass(inputs, index // 2 if alternate is not None else index, tally, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        pass_times.append(time.perf_counter() - started)
        index += 1
        elapsed = time.perf_counter() - began
        if alternate is not None and index % 2:
            continue  # always finish an untraced/traced pair
        if len(tally.passes) < least:
            continue
        if elapsed + statistics.mean(pass_times) * (2 if alternate is not None else 1) > seconds:
            return pass_times


def end_to_end(workload, tally, setup: float) -> dict:
    rounds = [s for _, s in tally.rounds]
    clean = [s for phase, s in tally.rounds if phase == "clean"]
    attacked = [s for phase, s in tally.rounds if phase == "attacked"]
    share = tally.attacker_coords / tally.selected_coords if tally.selected_coords else 0.0
    return {
        "setup_s": (setup, "s"),
        "run_s": (median(tally.passes), "s"),
        "round_ms_p50": (1e3 * median(rounds), "ms"),
        "round_ms_tail": (1e3 * tail(rounds, workload.tail_pct), "ms"),
        "clean_round_ms_p50": (1e3 * median(clean), "ms"),
        "attacked_round_ms_p50": (1e3 * median(attacked), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_accuracy": (statistics.mean(tally.accuracy.values()) if tally.accuracy else 0.0, "share"),
        "switch_accuracy": (tally.switch_hits / tally.switch_total if tally.switch_total else 0.0, "share"),
        "kde_attacker_share": (share, "share"),
    }


def per_layer(tally, untraced, tracer, totals, columns_us) -> dict:
    inclusive, _, calls = totals
    counts = tracer.counts
    rounds = max(1, len(tally.rounds))

    def ms(name):
        return 1e3 * inclusive.get(name, 0.0) / rounds

    def per_coord(name, coords):
        return 1e6 * inclusive.get(name, 0.0) / coords if coords else 0.0

    gen_calls = calls.get("fedsim.gen_task", 0)
    krum_calls = calls.get("aggregators.krum", 0)
    traced_s, untraced_s = median(tally.passes), median(untraced.passes)
    fft_us, kde_us = columns_us
    return {
        "fedsim.local_update.ms": (ms("fedsim.local_update"), "ms"),
        "fedsim.local_update.calls": (calls.get("fedsim.local_update", 0) / rounds, "count"),
        "fedsim.gen_task.ms": (
            1e3 * inclusive.get("fedsim.gen_task", 0.0) / gen_calls if gen_calls else 0.0, "ms"
        ),
        "fedsim.evaluate.ms": (ms("fedsim.evaluate"), "ms"),
        "tensors.ModelWeights.built": (calls.get("tensors.ModelWeights", 0) / rounds, "count"),
        "tensors.ModelWeights.ms": (ms("tensors.ModelWeights"), "ms"),
        "tensors.layer_matrices.calls": (calls.get("tensors.layer_matrices", 0) / rounds, "count"),
        "tensors.layer_matrices.ms": (ms("tensors.layer_matrices"), "ms"),
        "adversary.apply_attack.ms": (ms("adversary.apply_attack"), "ms"),
        "adversary.min_max_craft.ms": (ms("adversary.min_max_craft"), "ms"),
        "detector.mal_test.ms": (ms("detector.mal_test"), "ms"),
        "detector.mal_test.coords_scored": (counts["detector.mal_test.coords_scored"] / rounds, "count"),
        "detector.mal_test.us_per_coord": (
            per_coord("detector.mal_test", counts["detector.mal_test.coords_scored"]), "us"
        ),
        "detector.dynamic_aggregate.ms": (ms("detector.dynamic_aggregate"), "ms"),
        "detector.decisions_fft": (counts["detector.decisions_fft"] / rounds, "count"),
        "detector.decisions_fedavg": (counts["detector.decisions_fedavg"] / rounds, "count"),
        "fft_aggregator.kde.ms": (ms("fft_aggregator.kde"), "ms"),
        "fft_aggregator.kde.us_per_coord": (
            per_coord("fft_aggregator.kde", counts["fft_aggregator.kde.coords"]), "us"
        ),
        "fft_aggregator.literal.ms": (ms("fft_aggregator.literal"), "ms"),
        "fft_aggregator.literal.us_per_coord": (
            per_coord("fft_aggregator.literal", counts["fft_aggregator.literal.coords"]), "us"
        ),
        "spectral.fft.calls": (counts["spectral.fft.calls"] / rounds, "count"),
        "spectral.fft.k.us": (fft_us, "us"),
        "spectral.kde_density.us": (kde_us, "us"),
        "aggregators.fed_avg.ms": (ms("aggregators.fed_avg"), "ms"),
        "aggregators.coordinate_median.ms": (ms("aggregators.coordinate_median"), "ms"),
        "aggregators.trimmed_mean.ms": (ms("aggregators.trimmed_mean"), "ms"),
        "aggregators.krum.ms": (ms("aggregators.krum"), "ms"),
        "aggregators.krum.bytes": (
            counts["aggregators.krum.bytes"] / krum_calls if krum_calls else 0.0, "bytes"
        ),
        "bench.trace_overhead.pct": (
            100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0, "%"
        ),
    }


def traced_run(workload, inputs, args, tally, detail) -> dict:
    """Alternate untraced and traced passes; per-layer metrics and span file."""
    import speed
    import workloads as wl
    from tracing import Tracer

    tracer = Tracer()
    untraced = wl.Tally()
    detail["wall_s_per_pass"] = median(
        measure(workload, inputs, args.seconds, tally, tracer, alternate=untraced)
    )
    # spans are brought to the reference speed by the run's median calibration
    factor = speed.REFERENCE_S / median(tally.calibrations + untraced.calibrations)
    inclusive, self_time, calls = tracer.totals()
    inclusive = {k: v * factor for k, v in inclusive.items()}
    self_time = {k: v * factor for k, v in self_time.items()}
    columns_us = tuple(us * factor for us in wl.spectral_timings(tally.columns))
    metrics = per_layer(tally, untraced, tracer, (inclusive, self_time, calls), columns_us)

    rounds = max(1, len(tally.rounds))
    detail["self_ms_per_round"] = {k: 1e3 * v / rounds for k, v in sorted(self_time.items())}
    detail["calls_per_round"] = {k: v / rounds for k, v in sorted(calls.items())}
    # round time that no wrapped layer covers: the glue between layers
    detail["unwrapped_ms_per_round"] = 1e3 * factor * (
        sum(b - a for a, b in tally.intervals) - tracer.covered_seconds(tally.intervals)
    ) / rounds
    detail["traced_pass_s"] = median(tally.passes)
    detail["untraced_pass_s"] = median(untraced.passes)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)

    # the untraced passes are checked too, and their failures count
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.wrong += untraced.wrong
    tally.errors += untraced.errors
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedfft", "__init__.py")):
        print(f"no fedfft sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS

    raw_imports, imports = import_seconds()
    import speed
    import workloads as wl

    table = wl.TINY if args.scale == "tiny" else wl.WORKLOADS
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    raw_builds, builds = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.calibrate()
        began = speed.clock()
        inputs = workload.setup(args.seed)
        raw_builds.append(speed.clock() - began)
        builds.append(speed.corrected(raw_builds[-1], before, speed.calibrate()))
    setup = median(imports) + median(builds)

    tally = wl.Tally()
    detail: dict = {"workload": args.workload, "scale": args.scale, "seconds": args.seconds}
    began = time.perf_counter()
    if args.trace:
        metrics = traced_run(workload, inputs, args, tally, detail)
    else:
        detail["wall_s_per_pass"] = median(measure(workload, inputs, args.seconds, tally))
        metrics = end_to_end(workload, tally, setup)
    detail["measured_s"] = time.perf_counter() - began

    detail.update(
        passes=len(tally.passes),
        rounds=len(tally.rounds),
        tail_pct=workload.tail_pct,
        rounds_beyond_tail=len(tally.rounds) - math.ceil(len(tally.rounds) * workload.tail_pct / 100),
        failed_share=tally.failed / tally.attempted if tally.attempted else 0.0,
        errors=sorted(set(tally.errors)),
        wrong=sorted(set(tally.wrong)),
        import_s=imports,
        build_s=builds,
        raw_cpu_import_s=raw_imports,
        raw_cpu_build_s=raw_builds,
        raw_cpu_s_per_pass=median(tally.raw_passes),
        calibration_ms=[1e3 * min(tally.calibrations), 1e3 * median(tally.calibrations),
                        1e3 * max(tally.calibrations)],
    )
    result = {
        "correct": not tally.wrong and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"provenance": provenance(args.seed), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
