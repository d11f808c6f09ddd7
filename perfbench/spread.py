#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints,
per metric, the median and the interquartile range as a share of the
median, next to the metric's bound in BENCHMARK.json. With --against
(the --out file of an earlier set), it also prints how far each median
moved, in the metric's worse direction, against the earlier set's. Run
it from the root of a checkout:

    python3 perfbench/spread.py --workloads serve_fill sweep_grid --seeds 1-10 --out set1.jsonl
    python3 perfbench/spread.py --workloads serve_fill sweep_grid --seeds 11-20 --against set1.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def medians(path):
    """{(workload, metric): median} of an earlier --out file."""
    values = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        for name, m in row["metrics"].items():
            values.setdefault((row["workload"], name), []).append(m["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="append every result line to this JSON-lines file")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = medians(args.against) if args.against else {}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT, {result['failed']} of "
                      f"{result['attempted']} failed")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            bound = metrics[name]["bound"]
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median
            worst = max(worst, spread / bound)
            line = (f"  {name:14s} median {median:14.4f}  iqr/median {spread:7.4f}"
                    f"  bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}")
            old = before.get((workload, name))
            if old:
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (median - old) / old
                worst = max(worst, worse / bound)
                line += f"  worse by {worse:+.4f} vs earlier set"
            print(line)
    print(f"worst spread (or median shift) / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
