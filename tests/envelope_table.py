"""Outcome table of the operating-envelope corpus, per CLI command.

    PYTHONPATH=src python tests/envelope_table.py --seed 22 --count 120

draws conftest.envelope_config(numpy.random.default_rng([seed, i])) for
i < count, runs model-check, eigen, qef and validate on each config in
process, and prints how often each command ended in each exit code and
error name ("-" for an empty stderr).  A run that raises a numpy
RuntimeWarning, or whose stderr is neither empty nor one JSON line, is
counted under "breach" as well, and any breach makes the script exit 1.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
from conftest import envelope_config

from qeflab import cli

COMMANDS = ("model-check", "eigen", "qef", "validate")


def outcome(command: str, path: str) -> tuple[int, str, bool]:
    """(exit code, error name or "-", breach) of one in-process run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", path])
    lines = err.getvalue().splitlines()
    try:
        name = json.loads(lines[0])["error"] if len(lines) == 1 else "-"
    except (ValueError, KeyError, TypeError):
        name = "?"
    breach = (len(lines) > 1 or name == "?"
              or any(issubclass(w.category, RuntimeWarning) for w in caught))
    return code, name, breach


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=22)
    parser.add_argument("--count", type=int, default=120)
    args = parser.parse_args()
    tables = {command: Counter() for command in COMMANDS}
    breaches = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.count):
            out = Path(tmp) / str(i)
            cfg = envelope_config(np.random.default_rng([args.seed, i]), out)
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(cfg))
            for command in COMMANDS:
                code, name, breach = outcome(command, str(path))
                tables[command][code, name] += 1
                breaches[command] += breach
    print(f"envelope corpus: seed {args.seed}, {args.count} configs")
    print("| command | exit | error | runs |")
    print("|---|---|---|---|")
    for command in COMMANDS:
        for (code, name), runs in sorted(tables[command].items()):
            print(f"| {command} | {code} | {name} | {runs} |")
        print(f"| {command} | | breach | {breaches[command]} |")
    return 1 if any(breaches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
