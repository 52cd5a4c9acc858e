"""Benchmark of the qeflab CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload readme-sweep --seed 1 --seconds 34 --trace 0

Run from anywhere inside a source checkout; the program is imported
from its `src` directory.  With --trace 0 the run is a closed loop with
one client: a fixed number of rounds of CLI subcommands, each in a
fresh interpreter started only after the previous one ended, sized so
the run takes about --seconds on the reference machine.  Every output
is checked against perfbench/oracles.py.  With --trace 1 the run repeats an in-process pass over the library's
layers instead, alternating traced and untraced passes, and writes the
spans to perfbench/out/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from layers import CLI_MC_K, LAYER_METRICS, Tracer, run_pass, span_cost  # noqa: E402

# One round of CLI calls per workload.  Short calls repeat so that each
# subcommand's samples spread over the round; eigen, whose time is
# bimodal under two BLAS threads, never follows validate (see
# README.md); qef runs before validate, whose check reads qef's xi.
ROUNDS = {
    "readme-sweep": ("eigen", "eigen", "qef", "eigen", "eigen", "validate", "fock"),
    "readme-oracles": ("eigen", "qef", "eigen", "qef", "validate", "qef", "fock"),
}
# Seconds one round takes on the reference machine at its fast speed
# (2-core VM, see README.md).  A run makes round(--seconds / this)
# rounds, at least one, so every run of a workload makes the same calls whatever the machine's
# speed at the time.
ROUND_S = {"readme-sweep": 14.0, "readme-oracles": 14.0}
RUN_DEADLINE_S = 165.0         # a run must end within 180 s, slow machine or not


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_setting() -> str:
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    set_ = [f"{n}={os.environ[n]}" for n in names if n in os.environ]
    return ", ".join(set_) or "library default"


def run_child(sub: str, config: Path, out: Path, timeout: float) -> dict:
    """One CLI call in a fresh interpreter; {} when it died or timed out without a result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), sub, str(config), str(out)],
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:       # run() has killed and reaped the child
        print(f"{sub}: no result within {timeout:.0f} s", file=sys.stderr)
        return {}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{sub}: child exited {proc.returncode} without a result\n{proc.stderr}",
              file=sys.stderr)
        return {}
    if result["rc"] != 0:
        result["stderr"] = proc.stderr.strip()
    return result


def another_round(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more round of average length ends within a quarter round of `seconds`."""
    return elapsed + 0.75 * elapsed / done <= seconds


def xi_by_theta(qef_out: Path) -> dict[float, float]:
    return {float(r["theta"]): oracles.number(r["xi"])
            for r in oracles.read_csv(qef_out / "qef.csv")}


def gate_breaches(mc_out: Path, xi: dict[float, float]) -> list[str]:
    """Rows of mc.csv outside the CLI's own 3-stderr acceptance."""
    return [f"theta={r['theta']} {r['estimator']}: |mean-xi|="
            f"{abs(float(r['mean']) - xi[float(r['theta'])]):.3g}, 3*stderr="
            f"{CLI_MC_K * float(r['stderr']):.3g}"
            for r in oracles.read_csv(mc_out / "mc.csv")
            if not abs(float(r["mean"]) - xi[float(r["theta"])]) <= CLI_MC_K * float(r["stderr"])]


def run_cli(args, paths: dict[str, Path], cfgs: dict[str, dict], out: Path) -> dict:
    ref = oracles.Reference(cfgs["qef"])
    calls: dict[str, list[float]] = {sub: [] for sub in workloads.SUBCOMMANDS}
    setups, rss, log = [], [], []
    attempted = failed = 0
    errors: list[str] = []
    xi: dict[float, float] = {}
    start = time.perf_counter()
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    for _ in range(rounds):
        for sub in ROUNDS[args.workload]:
            sub_out = out / sub
            attempted += 1
            res = run_child(sub, paths[sub], sub_out,
                            RUN_DEADLINE_S - (time.perf_counter() - T0))
            log.append({"sub": sub, "at_s": time.perf_counter() - start, **res})
            if not res:
                failed += 1
                continue
            setups.append(res["setup_s"])
            rss.append(res["maxrss_kb"])
            calls[sub].append(res["call_s"])
            if res["rc"] != 0:
                failed += 1
                why = res["stderr"]
                if sub == "validate" and (sub_out / "mc.csv").exists():
                    why = "; ".join(gate_breaches(sub_out, xi)) or why
                print(f"{sub}: exit {res['rc']}: {why}", file=sys.stderr)
                continue
            if sub == "eigen":
                errors += oracles.check_eigen(ref, sub_out)
            elif sub == "qef":
                errors += oracles.check_qef(ref, sub_out)
                xi = xi_by_theta(sub_out)
            elif sub == "validate":
                errors += oracles.check_validate(sub_out, xi)
            else:
                errors += oracles.check_fock(sub_out)
    (out / "calls.json").write_text(json.dumps(log, indent=1))
    for e in sorted(set(errors)):
        print(f"check failed: {e}", file=sys.stderr)
    metrics = {"setup_s": (statistics.median(setups), "s")} if setups else {}
    for sub in workloads.SUBCOMMANDS:
        if calls[sub]:
            metrics[f"{sub}_s"] = (statistics.median(calls[sub]), "s")
    if rss:
        metrics["peak_rss_mb"] = (max(rss) / 1024.0, "MB")
    print(f"rounds {rounds} in {time.perf_counter() - start:.1f} s; calls "
          f"{ {sub: len(v) for sub, v in calls.items()} }; BLAS threads: {blas_setting()}; "
          f"cores {os.cpu_count()}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(args, paths: dict[str, Path], cfgs: dict[str, dict], out: Path) -> dict:
    sys.path.insert(0, str(SRC))
    configs = {sub: str(p) for sub, p in paths.items()}
    traced: list[Tracer] = []
    per_pass: list[dict[str, float]] = []
    untraced_s: list[float] = []
    missing: set[str] = set()
    errors: list[str] = []
    failed = 0
    start = time.perf_counter()
    passes = 0
    while True:
        tracer = Tracer(enabled=passes % 2 == 0)
        t0 = time.perf_counter()
        metrics, why, errs, gate_ok = run_pass(tracer, configs, cfgs)
        wall = time.perf_counter() - t0
        # a pass stands for one round of CLI calls; its validate fails as the CLI's would
        if gate_ok is False:
            failed += ROUNDS[args.workload].count("validate")
        if tracer.enabled:
            traced.append(tracer)
            per_pass.append(metrics)
            missing |= why
            errors += errs
        else:
            untraced_s.append(wall)
        passes += 1
        if not another_round(time.perf_counter() - start, passes, args.seconds):
            break
    merged = {m: statistics.median(p[m] for p in per_pass if m in p)
              for m in LAYER_METRICS if any(m in p for p in per_pass)}
    for m in LAYER_METRICS:
        if m not in merged:
            print(f"missing layer: {m}", file=sys.stderr)
    for reason in sorted(missing):
        print(f"missing because: {reason}", file=sys.stderr)
    for e in sorted(set(errors)):
        print(f"check failed: {e}", file=sys.stderr)

    spans = [t.self_times() for t in traced]
    traced_wall = [next(s["duration"] for s in ss if s["name"] == "pass") for ss in spans]
    # The pass difference is within the machine's pass-to-pass noise; the
    # bookkeeping estimate times the spans themselves.
    overhead = (statistics.median(traced_wall) - statistics.median(untraced_s)
                if untraced_s else math.nan)
    bookkeeping = len(spans[0]) * span_cost()
    self_by_name: dict[str, list[float]] = {}
    for ss in spans:
        for s in ss:
            self_by_name.setdefault(s["name"], []).append(s["self"])
    summary = {name: {"calls_per_pass": len(v) / len(spans), "self_s_per_pass": sum(v) / len(spans)}
               for name, v in self_by_name.items()}
    (out / "trace.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "passes": spans,
         "self_time": summary, "traced_pass_s": traced_wall, "untraced_pass_s": untraced_s,
         "tracing_overhead_s": overhead, "span_bookkeeping_s": bookkeeping}, indent=1))
    print(f"passes {passes} ({len(traced)} traced); tracing overhead per pass: traced minus "
          f"untraced {overhead:.4f} s, span bookkeeping {bookkeeping:.2e} s "
          f"({len(spans[0])} spans); spans in {out / 'trace.json'}")
    for name, v in sorted(summary.items(), key=lambda kv: -kv[1]["self_s_per_pass"]):
        print(f"  self {v['self_s_per_pass']:9.4f} s  x{v['calls_per_pass']:g}  {name}")
    metrics = {m: (v, "1/s" if m == "mc.samples_per_s" else "s") for m, v in merged.items()}
    return {"correct": not errors, "attempted": passes * len(ROUNDS[args.workload]),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qeflab" / "cli.py").is_file():
        print(f"no qeflab sources under {SRC}", file=sys.stderr)
        return 2
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    paths = workloads.write(args.workload, args.seed, out / "configs")
    cfgs = {sub: json.loads(p.read_text()) for sub, p in paths.items()}
    run = run_traced if args.trace else run_cli
    result = run(args, paths, cfgs, out)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
