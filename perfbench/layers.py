"""Traced in-process pass over qeflab's public functions, one span per layer.

Spans (name, start, end, parent) are recorded here, around the calls,
not inside the program.  A layer whose function is gone or no longer
accepts the arguments below is reported as missing; the layers that
need its result are then missing too, and the pass goes on.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

LAYER_METRICS = (
    "cli.load_config_s", "kernels.lambda_grid_s", "kernels.covariance_grid_s",
    "eigensolver.scan_s", "eigensolver.build_basis_s", "eigensolver.nystrom_s",
    "qkl.build_qkl_s", "qef.spectral_cache_s", "qef.lambdas_s", "qef.compute_qef_s",
    "qef.critical_theta_s", "mc.geometry_s", "mc.samples_per_s",
    "fock.lhs_s", "fock.rhs_s", "fock.verify_ode_s",
)
CRITICAL_ATOL = 1e-6          # theta_c * r(PK(theta_c)) = 1
CLI_MC_K = 3.0                # cmd_validate's own acceptance, in standard errors
# Samples per theta of the traced full estimate, at least: the sampling
# time it adds over the 2 x batch geometry call (about 1 s on the
# reference machine) must dwarf that call's own noise, or the rate's
# denominator can come out at or below zero.
MC_RATE_SAMPLES = 6000


class Missing(Exception):
    """A layer's public function is gone or its signature changed."""


class Tracer:
    """In-memory spans; a disabled tracer only runs the calls."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str | None, owner, attr: str, *args, **kwargs):
        """Run owner.attr(*args, **kwargs) inside a span named `name`.

        owner is a qeflab module name or an object the pass already holds;
        with name None the call is checked the same way but not traced.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(f"qeflab.{owner}")
        fn = getattr(owner, attr, None)
        if fn is None:
            raise Missing(name)
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            raise Missing(name) from exc
        with self.span(name) if name else nullcontext():
            return fn(*args, **kwargs)

    def self_times(self) -> list[dict]:
        """Each span with its duration and self time (duration minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [{**s, "duration": s["end"] - s["start"],
                 "self": s["end"] - s["start"] - child[s["id"]]} for s in self.spans]


def span_cost(reps: int = 20000) -> float:
    """Seconds one empty span costs: the tracer's own share of a traced pass."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(reps):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - t0) / reps


def _durations(tracer: Tracer, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in tracer.spans if s["name"] == name]


def run_pass(tracer: Tracer, configs: dict[str, str], cfgs: dict[str, dict]) -> tuple[
        dict[str, float], set[str], list[str], bool | None]:
    """One pass over every layer.

    configs maps a subcommand to its config file, cfgs to the parsed
    config.  Returns the metrics, the reasons layers went missing, the
    failed checks, and whether the Monte-Carlo estimates pass the CLI's
    validate acceptance (None when they were not computed).
    """
    state: dict = {}
    errors: list[str] = []
    missing: set[str] = set()

    def need(*keys):
        for k in keys:
            if k not in state:
                raise Missing(f"needs {k}")

    def stage(fn):
        with tracer.span(f"stage.{fn.__name__}"):
            try:
                fn()
            except Missing as exc:
                missing.add(str(exc))
            except Exception as exc:  # a program error fails the pass, not the run
                errors.append(f"trace: stage {fn.__name__} raised {exc!r}")

    def setup():
        tracer.call("cli.load_config", "cli", "load_config", configs["eigen"])
        osc = cfgs["eigen"]["oscillator"]
        spec = tracer.call(
            None, "model", "OscillatorSpec", n=osc["n"], m=osc["m"],
            Theta=np.array(osc["Theta"]), R=np.array(osc["R"]), M=np.array(osc["M"]),
            T=float(osc["T"]), theta=float(osc["theta"]))
        g = cfgs["eigen"]["grid"]
        grid = tracer.call(None, "quadrature", "make_grid", spec.T, panels=g["panels"],
                           order=g["nodes_per_panel"])
        ctx = tracer.call("kernels.make_context", "kernels", "make_context", spec, grid)
        state["ctx"] = ctx
        state["P0"] = tracer.call(None, "model", "solve_state_ale", ctx.sys.A, ctx.sys.B).P0

    def kernels():
        need("ctx", "P0")
        ctx = state["ctx"]
        if inspect.getattr_static(ctx, "lambda_grid", None) is None:
            raise Missing("kernels.lambda_grid")
        with tracer.span("kernels.lambda_grid"):
            ctx.lambda_grid                    # a lazy property: the first read builds it
        tracer.call("kernels.covariance_grid", "kernels", "covariance_on_grid",
                    ctx, state["P0"])

    def eigensolver():
        need("ctx")
        ctx = state["ctx"]
        capture = cfgs["eigen"]["eigen"]["capture_fraction"]
        omega_max = 1.05 * math.sqrt(ctx.hs_total / 2.0)      # build_basis's default band
        tracer.call("eigensolver.scan", "eigensolver", "scan_eigenfrequencies",
                    ctx, omega_max / 10.0, omega_max)
        state["basis"] = tracer.call("eigensolver.build_basis", "eigensolver",
                                     "build_basis", ctx, capture)
        tracer.call("eigensolver.nystrom", "eigensolver", "nystrom_oracle", ctx)

    def qef():
        need("ctx", "P0", "basis")
        ctx, P0, basis = state["ctx"], state["P0"], state["basis"]
        qkls = [tracer.call("qkl.build_qkl", "qkl", "build_qkl", basis, th)
                for th in cfgs["qef"]["qef"]["theta_list"]]
        cache = tracer.call("qef.spectral_cache", "qef", "SpectralCache", ctx, qkls[0], P0)
        state["cache"] = cache
        for q in qkls:
            tracer.call("qef.lambdas", cache, "lambdas", q.theta)
            tracer.call("qef.compute_qef", "qef", "compute_qef", ctx, q, P0)
        theta_c = tracer.call("qef.critical_theta", "qef", "find_critical_theta", cache)
        g = theta_c * float(cache.lambdas(theta_c)[0])
        if not abs(g - 1.0) <= CRITICAL_ATOL:
            errors.append(f"trace: theta_c * r(PK(theta_c)) = {g!r}")

    def mc():
        need("ctx", "P0", "basis", "cache")
        ctx, P0, basis = state["ctx"], state["P0"], state["basis"]
        mcfg = cfgs["validate"]["mc"]
        small, full = (tracer.call(None, "mc", "McConfig", samples=s, seed=mcfg["seed"],
                                   batch=mcfg["batch"])
                       for s in (2 * mcfg["batch"], max(mcfg["samples"], MC_RATE_SAMPLES)))
        for th in cfgs["validate"]["qef"]["theta_list"]:
            q = tracer.call(None, "qkl", "build_qkl", basis, th)
            xi = tracer.call(None, "qef", "compute_qef", ctx, q, P0, cache=state["cache"]).xi
            tracer.call("mc.geometry", "mc", "estimate_qef_mc", ctx, q, P0, small)
            est = tracer.call("mc.estimate", "mc", "estimate_qef_mc", ctx, q, P0, full)
            state["gate_ok"] = state.get("gate_ok", True) and all(
                abs(e.mean - xi) <= CLI_MC_K * e.stderr for e in (est.z, est.n))
        state["mc_extra"] = len(cfgs["validate"]["qef"]["theta_list"]) * (
            full.samples - small.samples)

    def fock():
        fcfg = cfgs["fock"]["fock"]
        pair = tracer.call(None, "fock", "build_pair", fcfg["N"])
        order = fcfg["quad_order"]
        for omega in fcfg["omega_list"]:
            tracer.call("fock.lhs", "fock", "lhs_exponential", pair, omega)
            tracer.call("fock.rhs", "fock", "rhs_average", pair, omega, order)
            sigma = math.sqrt(2.0 * math.tanh(omega))
            tracer.call("fock.verify_ode", "fock", "verify_ode", pair, [sigma],
                        quad_order=order, step=fcfg.get("ode_step", 1e-3))

    with tracer.span("pass"):
        for fn in (setup, kernels, eigensolver, qef, mc, fock):
            stage(fn)
    return _metrics(tracer, state), missing, errors, state.get("gate_ok")


def _metrics(tracer: Tracer, state: dict) -> dict[str, float]:
    """Per-layer metrics of one pass: single calls as timed, repeated calls as medians."""
    out = {}
    for metric in LAYER_METRICS:
        times = _durations(tracer, metric[:-2])
        if times:
            out[metric] = statistics.median(times)
    extra = sum(_durations(tracer, "mc.estimate")) - sum(_durations(tracer, "mc.geometry"))
    if "mc_extra" in state and extra > 0.0:
        out["mc.samples_per_s"] = state["mc_extra"] / extra
    return out
