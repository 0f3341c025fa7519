"""Smoke check of the benchmark on a tiny configuration; takes about half a minute.

    python3 bench/smoke.py

Runs every workload at ``--scale tiny``, untraced and traced, and validates
each result line against ``BENCHMARK.json``: exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and exactly the end-to-end or the
per-layer metrics with their units. Each configuration runs twice, as the
two sides of a paired comparison, and ``compare.py`` must read the pairs
and give its verdicts. It then checks that the benchmark refuses to run, without
printing a result, in a copy that holds only ``BENCHMARK.json`` and
``bench/``. The file is not named ``test_*.py`` on purpose: pytest collects
the repository recursively, and the check must not lengthen the test run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import series

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "smoke")


def run(cmd: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(line: str, expected: dict[str, str], where: str) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{where}: {name} has keys {sorted(m)}")
        elif m["unit"] != expected.get(name):
            problems.append(f"{where}: {name} unit {m['unit']!r}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} value {m['value']!r}")
    return problems


def main() -> int:
    spec = series.load_spec(ROOT)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    records = os.path.join(OUT, "runs.jsonl")
    problems: list[str] = []
    with open(records, "w") as out:
        for w in spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                where = f"{w['name']} trace={trace}"
                for side in ("base", "new"):
                    record, why = series.run_once(
                        ROOT, w["name"], 3, 1, trace, side, ("--scale", "tiny")
                    )
                    if record is None:
                        problems.append(f"{where}: {why}")
                        break
                    out.write(json.dumps(record) + "\n")
                    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
                    expected = {m["name"]: m["unit"] for m in spec[group]}
                    problems += check_result(json.dumps(result), expected, f"{where} {side}")
                print(f"{where}: ok", flush=True)

    proc = run([sys.executable, os.path.join(HERE, "compare.py"), records], ROOT)
    # 1-second timings may differ by more than a bound; exit 1 only reports that
    if proc.returncode not in (0, 1) or "within bound" not in proc.stdout:
        problems.append(f"compare: exit {proc.returncode}: {proc.stdout[-400:]}{proc.stderr[-400:]}")
    else:
        print("compare: ok")

    bare = os.path.join(OUT, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(
        [sys.executable, "bench/run.py", "--workload", "sim-onset", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        bare,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"bare copy: refused with exit {proc.returncode}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
