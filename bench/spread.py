#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``bench/run.py`` once per seed, one process at a time, and prints
for each metric its median and the distance between the first and
third quartile as a share of the median, next to the bound that
``BENCHMARK.json`` fixes for it.

    python3 bench/spread.py --workload reference --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from stats import relative_iqr  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = values[name]
        spread = relative_iqr(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<14} {statistics.median(vals):>12.6g} {spread:>8.4f} {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
