"""Run workloads once per seed and append every record to a JSON-lines file.

    python3 bench/series.py --workload sim-onset --seeds 1-10 --out .bench_out/new.jsonl
    python3 bench/series.py --workload sim-onset --seeds 1-10 --out .bench_out/pair.jsonl \\
        --base ../parent-checkout

Runs go one after another, never in parallel, each for ``run_seconds`` from
``BENCHMARK.json``. With ``--base``, every seed is run in the other checkout
too, right before or right after this one, in an order that alternates from
seed to seed. Each record is tagged with its side, ``base`` or ``new``, so
that ``bench/compare.py`` can compare the two runs of each seed: both saw
the same machine conditions, and slow drift of the machine cancels out of
their ratio. Summarise or compare the file with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int,
             side: str, extra: tuple[str, ...] = ()) -> tuple[dict | None, str]:
    """Run the benchmark command of the checkout at ``root`` once.

    Returns the record (the result line plus workload, seed, trace, side and
    the detail line when there is one), or None and the reason it failed.
    """
    command = load_spec(root)["command"]
    if command[0] in ("python", "python3"):
        command = [sys.executable, *command[1:]]
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr[-400:]}"
    record = {"workload": workload, "seed": seed, "trace": trace, "side": side,
              **json.loads(lines[-1])}
    try:
        detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    except json.JSONDecodeError:
        detail = {}  # a checkout whose benchmark prints no detail line
    if isinstance(detail, dict):
        record.update(detail)
    return record, ""


def main(argv=None) -> int:
    seconds = load_spec(ROOT)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", help="root of a second checkout to run alternately as the base")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sides = [("new", ROOT)] + ([("base", os.path.abspath(args.base))] if args.base else [])
    status = 0
    with open(args.out, "a") as out:
        for workload in args.workload:
            for n, seed in enumerate(seed_list(args.seeds)):
                for side, root in sides if n % 2 else sides[::-1]:
                    record, why = run_once(root, workload, seed, seconds, args.trace, side)
                    if record is None:
                        print(f"{side} {workload} seed {seed}: {why}", file=sys.stderr)
                        status = 1
                        continue
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    summary = json.dumps({k: record[k] for k in ("correct", "attempted", "failed")})
                    print(f"{side} {workload} seed {seed}: {summary}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
