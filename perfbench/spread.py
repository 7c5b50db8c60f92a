"""Run-to-run spread of the benchmark, raw and calibrated.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds S]

Runs the benchmark once per seed (1..runs), untraced, and prints for each
end-to-end metric, and for the uncalibrated round time, the median and the
quartile spread (Q3 - Q1) / median over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    series = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout.splitlines()
        result = json.loads(out[-1])
        raw = next(float(w.split("=")[1]) for line in out for w in line.split()
                   if w.startswith("run_raw_s="))
        row = {k: v["value"] for k, v in result["metrics"].items()}
        row["run_raw_s"] = raw
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            series.setdefault(k, []).append(v)
    for k, values in series.items():
        med, rel = spread(values)
        print(f"{args.workload} {k}: median {med:.4f} spread {100 * rel:.2f}%")


if __name__ == "__main__":
    main()
