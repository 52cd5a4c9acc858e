"""Steadiness check: repeat the benchmark and print each metric's spread.

    python3 perfbench/steady.py --runs 10 --first-seed 100 [--workload NAME ...]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...)
on every workload, each run in its own process, and prints for every
metric the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json.  With
--trace it adds one traced run per workload.  Raw results go to
perfbench/out/steady-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]), "log": lines[:-1]}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workload or names:
        runs = [run_once(workload, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)]
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}; correct "
              f"{all(r['result']['correct'] for r in runs)}; failed/attempted "
              f"{sorted(shares)}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        table = {}
        for metric in bounds:
            vals = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            table[metric] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            flag = "" if spread < bounds[metric] / 3 else "  <- above a third of the bound"
            print(f"  {metric:<14}{med:12.4f}{q1:12.4f}{q3:12.4f}{spread:9.3%}"
                  f"{bounds[metric]:8.2f}{flag}")
        report[workload] = {"runs": runs, "metrics": table}
        if args.trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            report[workload]["traced"] = traced
            print("  traced run:")
            for line in traced["log"]:
                print(f"    {line}")
            for name, m in traced["result"]["metrics"].items():
                print(f"    {name:<28}{m['value']:14.6g} {m['unit']}")
    out = BENCH / "out" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nraw results: {out}")


if __name__ == "__main__":
    main()
