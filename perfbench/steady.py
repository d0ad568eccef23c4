"""Steadiness check: two sets of runs on the same code, spread against bounds.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a lietrace checkout.  Each set runs every workload of
BENCHMARK.json --runs times, each run with its own seed (set 1 takes seeds
1..runs, set 2 the next --runs seeds), at BENCHMARK.json's run_seconds.  For
every end-to-end metric it prints each set's median and spread, the spread
being the distance between the first and third quartile
(statistics.quantiles(n=4)) as a share of the median, next to the metric's
bound, and the drift of set 2's median from set 1's in the worse direction.
A metric is steady when both spreads stay under a third of its bound and the
drift stays under the bound.  Exit code 0 when every metric is steady, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, seed, seconds)
                 for seed in range(1 + k * args.runs, 1 + (k + 1) * args.runs)]
                for k in range(2)]
        print(f"{workload}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<16} {'median 1':>11} {'spread 1':>9} "
              f"{'median 2':>11} {'spread 2':>9} {'drift':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (m1, s1), (m2, s2) = (spread([r[name] for r in runs]) for runs in sets)
            drift = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            ok = drift <= bound and max(s1, s2) < bound / 3
            steady &= ok
            print(f"  {name:<16} {m1:>11.5g} {s1:>9.3f} {m2:>11.5g} {s2:>9.3f} "
                  f"{drift:>7.3f} {bound:>6.2f}{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
