"""Seeded workload configurations for the qeflab CLI benchmark.

    python3 perfbench/workloads.py --seed 3 --out perfbench/out/configs

writes, for every workload, one config per CLI subcommand
(`<workload>.<subcommand>.json`).  The same seed always gives the same
files.  What the seed draws, and what it does not, is listed per
workload below; see perfbench/README.md for why.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from oracles import J2

SUBCOMMANDS = ("eigen", "qef", "validate", "fock")


def readme_oscillator() -> dict:
    return {"n": 2, "m": 2, "Theta": J2.tolist(), "R": np.eye(2).tolist(),
            "M": np.eye(2).tolist(), "T": 1.0, "theta": 0.348}


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def readme_sweep(rng: np.random.Generator) -> dict[str, dict]:
    """README oscillator, 8x16 grid, 24 thetas in [0, 1.5] for qef.

    The sweep holds 0 (for the xi(0) = 1 check), the two validate thetas
    0.348 and 0.87, and 21 thetas the seed jitters inside equal cells of
    (0, 1.5).  validate runs only the two fixed thetas with a fixed
    Monte-Carlo seed; fock draws omega from the seed.
    """
    cells = (np.arange(21) + rng.uniform(0.0, 1.0, 21)) / 21.0
    sweep = sorted({0.0, 0.348, 0.87, *(_round(1.5 * c) for c in cells)})
    cfg = {"oscillator": readme_oscillator(),
           "grid": {"panels": 8, "nodes_per_panel": 16},
           "eigen": {"capture_fraction": 0.99},
           "qef": {"theta_list": sweep},
           "mc": {"samples": 400, "seed": 0, "batch": 20},
           "fock": {"N": 32, "omega_list": [_round(rng.uniform(0.1, 0.2))],
                    "quad_order": 32},
           "output_dir": "out"}
    validate = {**cfg, "qef": {"theta_list": [0.348, 0.87]}}
    return {"eigen": cfg, "qef": cfg, "validate": validate, "fock": cfg}


def readme_oracles(rng: np.random.Generator) -> dict[str, dict]:
    """README config, thetas {0, 0.348, 0.87}, heavy Monte-Carlo and Fock.

    Only the Fock omega comes from the seed.  theta = 0 stays in validate
    on purpose: it trips the CLI's 3-stderr gate on every call.
    """
    cfg = {"oscillator": readme_oscillator(),
           "grid": {"panels": 8, "nodes_per_panel": 16},
           "eigen": {"capture_fraction": 0.99},
           "qef": {"theta_list": [0.0, 0.348, 0.87]},
           "mc": {"samples": 3000, "seed": 0, "batch": 100},
           "fock": {"N": 44, "omega_list": [_round(rng.uniform(0.1, 0.2))],
                    "quad_order": 44},
           "output_dir": "out"}
    return {sub: cfg for sub in SUBCOMMANDS}


WORKLOADS = {
    "readme-sweep": readme_sweep,
    "readme-oracles": readme_oracles,
}


def generate(workload: str, seed: int) -> dict[str, dict]:
    """Per-subcommand configs of one workload for one seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


def write(workload: str, seed: int, out: Path) -> dict[str, Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for sub, cfg in generate(workload, seed).items():
        paths[sub] = out / f"{workload}.{sub}.json"
        paths[sub].write_text(json.dumps(cfg, indent=1) + "\n")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name in WORKLOADS:
        for sub, path in write(name, args.seed, args.out).items():
            print(path)


if __name__ == "__main__":
    main()
