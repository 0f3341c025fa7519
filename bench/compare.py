"""Summarise or compare benchmark runs recorded with ``bench/series.py``.

    python3 bench/compare.py runs.jsonl              # one side: medians, quartiles, spread
    python3 bench/compare.py pair.jsonl              # a series run with --base: paired
    python3 bench/compare.py base.jsonl new.jsonl    # two files: paired where seeds match

Runs are grouped by workload and by traced or untraced. For each metric the
median and the quartiles of ``statistics.quantiles(values, n=4)`` are shown;
the spread is the distance between the quartiles as a share of the median.

A comparison pairs each new run with the base run of the same workload,
trace setting and seed. It prints both sides' medians and quartiles, the
ratio of the medians, the median of the per-seed ratios new/base, and the
share of seeds on which the new run was better, ties counting for
neither. The verdict on an end-to-end metric uses the per-seed ratios: it
is "unresolved" when their spread is wider than the metric's bound, unless
every new run reads better than every base run; "worse" when the median
ratio is worse than 1 by more than the bound; "better" when the new side
won nine seeds in ten and the medians differ by more than the distance
between the base runs' quartiles. Paired runs made alternately by
``series.py --base`` see the same machine conditions, so the machine's slow
drift cancels out of the ratios. When no seeds match, the medians of the
two sides are compared instead, with the wider of the two spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> tuple[dict, dict]:
    """{side: {(workload, trace): {seed: {metric: value}}}} and the units seen."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    units: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            values = {name: m["value"] for name, m in rec["metrics"].items()}
            units |= {name: m["unit"] for name, m in rec["metrics"].items()}
            values["_correct"] = 1.0 if rec["correct"] else 0.0
            values["_failed_share"] = rec["failed"] / rec["attempted"]
            key = (rec["workload"], rec["trace"])
            runs[rec.get("side", "new")][key][rec["seed"]] = values
    return runs, units


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def fmt(x: float) -> str:
    return f"{x:.4g}"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]} | {
        m["name"]: dict(m, bound=None) for m in spec["per_layer"]
    }


def column(by_seed: dict, name: str) -> list[float]:
    return [v[name] for v in by_seed.values() if name in v]


def summarise(side: dict, units: dict, spec: dict) -> None:
    for (workload, trace), by_seed in sorted(side.items()):
        print(f"\n## {workload}  ({'traced' if trace else 'untraced'}, {len(by_seed)} runs)")
        print(f"{'metric':40s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
        names = sorted({n for v in by_seed.values() for n in v})
        for name in names:
            med, q1, q3, spread = stats(column(by_seed, name))
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "steady" if spread <= bound / 3 else ("ok" if spread <= bound else "TOO WIDE")
            print(
                f"{name:40s} {fmt(med):>11s} {fmt(q1):>11s} {fmt(q3):>11s} "
                f"{spread:8.3f} {'' if bound is None else bound:>6} {flag} {units.get(name, '')}"
            )


def verdict(base: dict, new: dict, name: str, metric: dict) -> tuple[str, str, str]:
    """Median per-seed ratio, share of seeds won by new, and the verdict."""
    sign = 1.0 if metric.get("better", "lower") == "lower" else -1.0
    bcol, ncol = column(base, name), column(new, name)
    bmed, bq1, bq3, bspread = stats(bcol)
    nmed, _, _, nspread = stats(ncol)
    seeds = [s for s in new if s in base and name in new[s] and name in base[s] and base[s][name]]
    if seeds:
        ratios = [new[s][name] / base[s][name] for s in seeds]
        ratio, _, _, spread = stats(ratios)
        wins = sum(sign * (r - 1.0) < 0 for r in ratios) / len(ratios)  # ties count for neither
    else:  # nothing to pair: compare the medians of the two sides
        ratio = nmed / bmed if bmed else float("nan")
        spread = max(bspread, nspread)
        wins = float("nan")
    bound = metric.get("bound")
    shown = ("n/a" if ratio != ratio else fmt(ratio), "n/a" if wins != wins else f"{wins:.2f}")
    if bound is None or ratio != ratio:
        return (*shown, "")
    change = sign * (ratio - 1.0)
    all_better = max(ncol) < min(bcol) if sign > 0 else min(ncol) > max(bcol)
    if spread > bound and not all_better:
        return (*shown, "unresolved")
    if change > bound:
        return (*shown, "worse")
    if (wins >= 0.9 or all_better) and sign * (bmed - nmed) > bq3 - bq1:
        return (*shown, "better")
    return (*shown, "within bound")


def compare(base_side: dict, new_side: dict, units: dict, spec: dict) -> int:
    worse = 0
    for key in sorted(set(base_side) | set(new_side)):
        workload, trace = key
        base, new = base_side.get(key, {}), new_side.get(key, {})
        paired = len(set(base) & set(new))
        print(f"\n## {workload}  ({'traced' if trace else 'untraced'}; base {len(base)} runs, "
              f"new {len(new)} runs, {paired} paired by seed)")
        print(f"{'metric':40s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s} "
              f"{'new/base':>9s} {'per-seed':>9s} {'won':>5s}  verdict")
        names = sorted({n for v in base.values() for n in v} | {n for v in new.values() for n in v})
        for name in names:
            bcol, ncol = column(base, name), column(new, name)
            if not bcol or not ncol:
                print(f"{name:40s} {'(only on one side)':>30s}")
                continue
            bmed, bq1, bq3, _ = stats(bcol)
            nmed, nq1, nq3, _ = stats(ncol)
            ratio, wins, v = verdict(base, new, name, spec.get(name, {}))
            worse += v == "worse"
            print(
                f"{name:40s} {f'{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]':>30s} "
                f"{f'{fmt(nmed)} [{fmt(nq1)}, {fmt(nq3)}]':>30s} "
                f"{(f'{nmed / bmed:.3f}' if bmed else 'n/a'):>9s} {ratio:>9s} {wins:>5s}  "
                f"{v} {units.get(name, '')}"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    args = p.parse_args(argv)
    spec = load_spec()
    runs, units = load_runs(args.base)
    if args.new is not None:
        new_runs, new_units = load_runs(args.new)
        base_side = {k: v for side in runs.values() for k, v in side.items()}
        new_side = {k: v for side in new_runs.values() for k, v in side.items()}
        return compare(base_side, new_side, units | new_units, spec)
    if "base" in runs and "new" in runs:
        return compare(runs["base"], runs["new"], units, spec)
    for side in runs.values():
        summarise(side, units, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
