"""Command-line pipeline: JSON config in, CSV results out.

The command line is ``qeflab <command> --config PATH [--seed N] [--out DIR]``.
Every subcommand reads one schema-validated configuration, runs a slice
of the pipeline and writes CSV files into the output directory.  Exit
codes: 0 success (and ``-h``/``--help``), 2 configuration problems and
malformed command lines (``UsageError``), 3 numeric pipeline failures,
4 statistical validation mismatch.  Errors are reported as a single
JSON object on stderr.  Output is deterministic for a fixed config and
seed.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import fock as fockmod
from . import model
from .eigensolver import basis_gram, build_basis, nystrom_oracle
from .errors import (
    InvalidParameter,
    QeflabError,
    SchemaViolation,
    SupercriticalTheta,
    UsageError,
)
from .kernels import KernelContext, make_context
from .mc import McConfig, estimate_qef_mc_many
from .qef import QefReport, SpectralCache, compute_qef, find_critical_theta
from .qkl import build_qkl
from .quadrature import make_grid

PR_RTOL = 1e-12
RECOVERY_RTOL = 1e-8
ALE_RTOL = 1e-8


def _fmt(value) -> str:
    """One CSV cell: integers plain, reals with 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise SchemaViolation(f"cannot write output file: {exc}") from exc
    print(f"wrote {path}")


_BOUNDS = {"minimum": (lambda v, b: v < b, "less than the minimum"),
           "maximum": (lambda v, b: v > b, "greater than the maximum"),
           "exclusiveMinimum": (lambda v, b: v <= b, "less than or equal to the minimum"),
           "exclusiveMaximum": (lambda v, b: v >= b, "greater than or equal to the maximum")}
_SIZED = {"minItems": list, "minLength": str}
_TYPES = dict(object=dict, array=list, string=str, number=(int, float), integer=int)
_KEYWORDS = {"$schema", "title", "$defs", "$ref", "type", *_BOUNDS, *_SIZED, "items",
             "required", "properties", "additionalProperties"}


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test: a bool is not a number, 2.0 is an integer."""
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return not isinstance(value, bool) and isinstance(value, _TYPES[name])


def _violations(value, schema: dict, defs: dict, path: tuple = ()):
    """Yield (path, message) per violation, in jsonschema's order and wording."""
    for key, arg in schema.items():
        if key not in _KEYWORDS or key == "additionalProperties" and arg is not False:
            raise ValueError(f"unimplemented schema keyword {key}: {arg!r}")
        if key == "$ref":
            yield from _violations(value, defs[arg.removeprefix("#/$defs/")], defs, path)
        elif key == "type" and not _is_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key in _BOUNDS and _is_type(value, "number") and _BOUNDS[key][0](value, arg):
            yield path, f"{value!r} is {_BOUNDS[key][1]} of {arg!r}"
        elif key in _SIZED and isinstance(value, _SIZED[key]) and len(value) < arg:
            yield path, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _violations(item, arg, defs, path + (i,))
        elif key == "required" and isinstance(value, dict):
            for name in [n for n in arg if n not in value]:
                yield path, f"{name!r} is a required property"
        elif key == "properties" and isinstance(value, dict):
            for name in filter(value.__contains__, arg):
                yield from _violations(value[name], arg[name], defs, path + (name,))
        elif key == "additionalProperties" and isinstance(value, dict):
            if extra := sorted(value.keys() - schema.get("properties", {}).keys()):
                verb = "was" if len(extra) == 1 else "were"
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} {verb} unexpected)")


def load_config(path: str) -> dict:
    """Parse a run configuration and check it against the packaged schema.

    Reports jsonschema's ``best_match``: the shallowest error, then the last sibling.
    """
    def _reject(token):
        raise SchemaViolation(f"non-finite number {token!r} in config")

    def _finite(parse):
        # 1e999 parses to inf, and an integer beyond the double range would
        # fail only where a later step converts it to float
        def number(token):
            try:
                value = parse(token)
                if math.isfinite(value):
                    return value
            except (OverflowError, ValueError):    # int() refuses 4300+ digits
                pass
            raise SchemaViolation(f"number {token} in config is outside the double range")
        return number

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject, parse_float=_finite(float),
                            parse_int=_finite(int))
    except OSError as exc:
        raise SchemaViolation(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaViolation("config nests deeper than the JSON parser's recursion limit") from exc
    schema = json.loads(
        resources.files("qeflab").joinpath("config_schema.json").read_text())
    error = max(_violations(cfg, schema, schema["$defs"]),
                key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise SchemaViolation(f"{'/'.join(map(str, error[0])) or '(root)'}: {error[1]}")
    thetas = cfg.get("qef", {}).get("theta_list", [])
    if sorted(thetas) != list(thetas):
        raise SchemaViolation("qef.theta_list must be sorted ascending")
    return cfg


def _spec_from(cfg: dict) -> model.OscillatorSpec:
    osc = cfg["oscillator"]
    for key in ("Theta", "R", "M"):
        if len({len(row) for row in osc[key]}) > 1:
            raise SchemaViolation(f"oscillator/{key}: rows must all have the same length")
    return model.OscillatorSpec(
        n=int(osc["n"]), m=int(osc["m"]),
        Theta=np.array(osc["Theta"], dtype=float),
        R=np.array(osc["R"], dtype=float),
        M=np.array(osc["M"], dtype=float),
        T=float(osc["T"]), theta=float(osc["theta"]),
    )


def _context_from(cfg: dict) -> KernelContext:
    spec = _spec_from(cfg)
    grid = make_grid(spec.T, panels=int(cfg["grid"]["panels"]),
                     order=int(cfg["grid"]["nodes_per_panel"]))
    return make_context(spec, grid)


def _require(cfg: dict, section: str) -> dict:
    if section not in cfg:
        raise SchemaViolation(f"config section {section!r} is required here")
    return cfg[section]


def cmd_model_check(cfg: dict, out: Path, seed: int | None) -> int:
    """Write model.csv; the CCR and ALE rows need a Hurwitz A and are left out without one."""
    spec = _spec_from(cfg)
    sysm = model.build_system(spec)
    # relative to the terms that cancel, not to mho alone (zero when M = 0)
    terms = (sysm.A @ spec.Theta, spec.Theta @ sysm.A.T, sysm.mho)
    pr_rel = sysm.pr_residual / max(sum(model.frobenius(t) for t in terms), 1e-300)
    checks = [("pr_residual_rel", pr_rel, PR_RTOL, pr_rel <= PR_RTOL)]
    if sysm.hurwitz:
        recovered = model.recover_ccr(sysm.A, sysm.mho)
        ccr_rel = float(np.linalg.norm(recovered - spec.Theta)
                        / np.linalg.norm(spec.Theta))
        P0 = model.solve_state_ale(sysm.A, sysm.B).P0
        BBt = sysm.B @ sysm.B.T
        ale_rel = float(np.linalg.norm(sysm.A @ P0 + P0 @ sysm.A.T + BBt)
                        / max(float(np.linalg.norm(BBt)), 1e-300))
        checks += [("ccr_roundtrip_rel", ccr_rel, RECOVERY_RTOL, ccr_rel <= RECOVERY_RTOL),
                   ("ale_residual_rel", ale_rel, ALE_RTOL, ale_rel <= ALE_RTOL)]
    abscissa = float(np.max(np.linalg.eigvals(sysm.A).real))
    checks.append(("spectral_abscissa", abscissa, -model.HURWITZ_MARGIN, sysm.hurwitz))
    rows = [[name, val, thr, "pass" if ok else "fail"]
            for name, val, thr, ok in checks]
    _write_csv(out / "model.csv", ["check", "value", "threshold", "status"], rows)
    passed = all(ok for *_, ok in checks)
    print("model-check: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 3


def _closed_form(cfg: dict, eig: dict, thetas: list) -> tuple[SpectralCache, list[QefReport]]:
    """The run's one closed-form pass: its one SpectralCache and a report per theta.

    Callers read every config section they need first, so a config error
    exits 2 before any numeric work; P0 comes before the eigen scan, so a
    drift that is not Hurwitz exits 3 before it.
    """
    ctx = _context_from(cfg)
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    basis = build_basis(ctx, eig["capture_fraction"])
    qkls = [build_qkl(basis, theta) for theta in thetas]
    cache = SpectralCache(ctx, qkls[0], P0)
    return cache, [compute_qef(ctx, q, P0, cache=cache) for q in qkls]


def cmd_eigen(cfg: dict, out: Path, seed: int | None) -> int:
    eig = _require(cfg, "eigen")
    ctx = _context_from(cfg)
    basis = build_basis(ctx, eig["capture_fraction"])
    r = basis.omegas.size
    rows = [[k, basis.omegas[k], basis.multiplicity[k], basis.bvp_residual[k]] for k in range(r)]
    _write_csv(out / "eigen_shooting.csv",
               ["k", "omega", "multiplicity", "bvp_residual"], rows)
    rows = [[k, w] for k, w in enumerate(nystrom_oracle(ctx)[:2 * r])]
    _write_csv(out / "eigen_nystrom.csv", ["k", "omega"], rows)
    gram = basis_gram(basis)
    rows = [[j, k, p, q, gram[j, k, p, q]]
            for j in range(gram.shape[0]) for k in range(gram.shape[1])
            for p in range(2) for q in range(2)]
    _write_csv(out / "basis_gram.csv", ["j", "k", "p", "q", "value"], rows)
    print(f"eigen: {r} pairs capture "
          f"{basis.hs_captured / basis.hs_total:.6f} of the HS norm")
    return 0


def cmd_qef(cfg: dict, out: Path, seed: int | None) -> int:
    eig, qcfg = _require(cfg, "eigen"), _require(cfg, "qef")
    cache, reps = _closed_form(cfg, eig, qcfg["theta_list"])
    qef_rows = []
    qkl_rows = []
    for rep in reps:
        qef_rows.append([
            rep.theta, rep.C, rep.tail_C, rep.spectral_radius,
            rep.theta_critical,
            "diverged" if rep.xi is None else rep.xi,
            "diverged" if rep.xi_classical is None else rep.xi_classical,
        ])
        tanc = cache.k_eigenvalues(rep.theta)[::2]
        qkl_rows += [[rep.theta, k, omega, tanc[k]] for k, omega in enumerate(cache.basis.omegas)]
    _write_csv(out / "qef.csv",
               ["theta", "C", "tail_C", "spectral_radius", "theta_critical",
                "xi", "xi_classical"], qef_rows)
    _write_csv(out / "qkl.csv",
               ["theta", "k", "omega_k", "tanhc_theta_omega_k"], qkl_rows)
    return 0


def cmd_validate(cfg: dict, out: Path, seed: int | None) -> int:
    """Monte-Carlo check of the closed form at every subcritical theta.

    Exits 4 unless both routes land within 3 standard errors of xi, and
    then prints each missing route's z-score and 2 theta r, r the spectral
    radius: the estimator's variance is infinite once 2 theta r >= 1.
    Skips supercritical thetas and raises SupercriticalTheta if none is left.
    Each route's unreliable flag and batch-mean kurtosis are written to
    mc.csv but do not set the exit code: with KURTOSIS_LIMIT = 10, an
    ordinary last-bit change can move a borderline route (kurtosis near
    10 on the README oscillator at theta = 0.87) across the limit.
    Every theta is estimated from the same draws, so the rows are
    correlated across theta and the per-theta verdicts are not
    independent.
    """
    eig, qcfg, mc_cfg = _require(cfg, "eigen"), _require(cfg, "qef"), _require(cfg, "mc")
    if seed is None:
        seed = int(mc_cfg["seed"])
    sizes = {key: int(mc_cfg[key]) for key in ("batch", "increments_per_panel") if key in mc_cfg}
    config = McConfig(samples=int(mc_cfg["samples"]), seed=seed, **sizes)
    cache, reps = _closed_form(cfg, eig, qcfg["theta_list"])
    # only subcritical thetas are testable; one Monte-Carlo pass serves them all
    tested = [rep for rep in reps if rep.xi is not None]
    if not tested:
        raise SupercriticalTheta(
            f"no theta in qef.theta_list is below the critical value "
            f"{find_critical_theta(cache):.6g}; validate has nothing to test")
    results = estimate_qef_mc_many(cache, tested, config)
    rows, misses = [], []
    for rep, result in zip(tested, results):
        for name, est in (("Z", result.z), ("N", result.n)):
            rows.append([result.theta, name, est.mean, est.stderr, est.n_eff,
                         est.diverged_fraction, seed, est.unreliable, est.kurtosis])
            if not abs(est.mean - rep.xi) <= 3.0 * est.stderr:
                with np.errstate(divide="ignore", invalid="ignore"):
                    z = np.float64(est.mean - rep.xi) / est.stderr
                x = 2.0 * rep.theta * rep.spectral_radius
                misses.append(f"validate: theta {rep.theta:.6g} route {name} misses xi by z = "
                              f"{z:+.3g} standard errors; 2 theta r = {x:.3g} " + (
                                  ">= 1, where the estimator's variance is infinite"
                                  if x >= 1.0 else "< 1"))
    _write_csv(out / "mc.csv",
               ["theta", "estimator", "mean", "stderr", "n_eff",
                "diverged_fraction", "seed", "unreliable", "kurtosis"], rows)
    print("\n".join([*misses, "validate: " + ("FAIL" if misses else "PASS")]))
    return 4 if misses else 0


def cmd_fock(cfg: dict, out: Path, seed: int | None) -> int:
    fcfg = _require(cfg, "fock")
    N = int(fcfg["N"])
    pair = fockmod.build_pair(N)
    corner_tol = fcfg.get("corner_tol")
    rows = []
    passed = True
    for omega in fcfg["omega_list"]:
        # a cell that leaves the double range is one JSON error, not numpy
        # warnings on stderr and a non-finite row
        with np.errstate(all="ignore"):
            err = fockmod.corner_error(pair, omega)
            sigma = fockmod.sigma_from_omega(omega)
            ode = fockmod.verify_ode(pair, [sigma])
        if not (np.isfinite(err) and np.isfinite(ode)):
            raise InvalidParameter(
                f"fock.omega_list value {omega} with fock.N = {N} gives corner_error "
                f"{err} and ode_residual {ode}: the Gaussian average leaves the double range")
        rows.append([N, omega, err, ode])
        if corner_tol is not None:
            passed = passed and err <= corner_tol
    _write_csv(out / "fock.csv", ["N", "omega", "corner_error", "ode_residual"], rows)
    print("fock: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 3


COMMANDS = {
    "model-check": cmd_model_check,
    "eigen": cmd_eigen,
    "qef": cmd_qef,
    "validate": cmd_validate,
    "fock": cmd_fock,
}


USAGE = "usage: qeflab {" + ",".join(COMMANDS) + "} --config PATH [--seed N] [--out DIR]"
_OPTIONS = ("--config", "--seed", "--out")


def parse_args(argv: list[str]) -> tuple[str, str, int | None, str | None]:
    """(command, config, seed, out) from ``<command> --config PATH [--seed N] [--out DIR]``.

    An option is ``--name value`` or ``--name=value``; the last occurrence
    wins.  Raises UsageError, naming the offending argument, on anything else.
    """
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{got}: expected one of {', '.join(COMMANDS)}")
    opts: dict[str, str] = {}
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            kind = "unknown option" if arg.startswith("-") else "unexpected argument"
            raise UsageError(f"{kind} {arg!r}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"option {name} needs a value")
        opts[name] = value
    if "--config" not in opts:
        raise UsageError("missing required option --config")
    seed = opts.get("--seed")
    return argv[0], opts["--config"], None if seed is None else _seed(seed), opts.get("--out")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2 ** 64:
        raise UsageError(f"--seed must be an integer in [0, 2**64), got {text!r}")
    return seed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        command, config, seed, out_dir = parse_args(argv)
        cfg = load_config(config)
        out = Path(out_dir if out_dir is not None else cfg["output_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SchemaViolation(f"cannot create output directory: {exc}") from exc
        try:
            return COMMANDS[command](cfg, out, seed)
        except MemoryError as exc:
            # a size the schema allows can still need more memory than exists
            raise InvalidParameter(
                f"the config needs an allocation this machine cannot make: {exc}") from exc
    except QeflabError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
