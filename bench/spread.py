"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds 20] [--trace 0]

Runs ``bench/run.py`` once per seed, one after another, and prints per
metric the median, the first and third quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median, with the failed share of the
operations attempted.  The raw results go to ``.bench_results/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".bench_results"


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        runs.append(dict(json.loads(proc.stdout.strip().splitlines()[-1]), seed=seed))
        print(f"seed {seed}: {runs[-1]['attempted']} attempted, {runs[-1]['failed']} failed",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-trace{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps(runs, indent=1))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{args.workload}: {len(runs)} runs, failed shares {shares}, raw results in {out}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:42s} median {med:12.6g} {first['unit']:5s} q1 {q1:12.6g} "
              f"q3 {q3:12.6g} spread {spread:7.2%}")


if __name__ == "__main__":
    main()
