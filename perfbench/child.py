"""One CLI invocation in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py <subcommand> <config> <out-dir>

Needs `src` on PYTHONPATH.  setup_s covers importing qeflab.cli and
loading the config; call_s covers one `cli.main([...])`, config to CSV.
The CLI's own stdout is discarded; the last stdout line is one JSON
object with both times, the exit code and the peak RSS.
"""

import contextlib
import io
import json
import resource
import sys
import time

t0 = time.perf_counter()
from qeflab import cli  # noqa: E402  (the import is what setup_s times)

sub, config, out = sys.argv[1:4]
cli.load_config(config)
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main([sub, "--config", config, "--out", out])
t2 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0, "call_s": t2 - t1, "rc": rc,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
