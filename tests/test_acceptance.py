"""Acceptance gate: one test per contract criterion, pinned tolerances.

Each test prints a single "criterion NN PASS" line on success; the
pytest verdict line doubles as the machine-readable pass/fail record.
Criteria run at desk scale (n, m <= 4, grids <= 256 nodes) and the
whole module stays within a few minutes single-threaded.
"""

import json
import time

import numpy as np
import pytest
from conftest import BASIS_CAPTURE, J2, dense_kernel, random_hurwitz_spec, random_spec
from oracles import (
    apply_K,
    green_function,
    green_gram,
    hk_of,
    inner,
    omega_from_sigma,
    relative_corner_error,
    surrogate_covariance,
)

from qeflab import cli, fock, mc, model, qef
from qeflab.eigensolver import basis_gram, build_basis, nystrom_oracle
from qeflab.kernels import make_context
from qeflab.qkl import build_qkl
from qeflab.quadrature import make_grid


def _tame_spec(rng, n, rho=0.4):
    # rescale so e^{5F} stays within double-precision headroom: the
    # determinant law is checked at 1e-8, which measures assembly
    # correctness only while the exponential itself is well conditioned
    spec = random_spec(rng, n)
    A = model.build_system(spec).A
    s = rho / max(np.abs(np.linalg.eigvals(A)))
    return model.OscillatorSpec(n=n, m=n, Theta=spec.Theta, R=s * spec.R,
                                M=np.sqrt(s) * spec.M, T=spec.T,
                                theta=spec.theta)


def test_01_pr_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(50):
        sysm = model.build_system(random_spec(rng, 2 if i % 2 == 0 else 4))
        worst = max(worst, sysm.pr_residual / np.linalg.norm(sysm.mho))
    assert worst <= 1e-12
    print(f"criterion 01 PASS: PR identity, 50 specs, worst rel {worst:.2e}")


def test_02_ccr_roundtrip():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(50):
        spec = random_hurwitz_spec(rng, 2 if i % 2 == 0 else 4)
        rec = model.recover_ccr(model.build_system(spec).A,
                                model.build_system(spec).mho)
        worst = max(worst, np.linalg.norm(rec - spec.Theta)
                    / np.linalg.norm(spec.Theta))
    assert worst <= 1e-8
    print(f"criterion 02 PASS: CCR round-trip, 50 systems, worst rel {worst:.2e}")


def test_03_green_function_equivalence(ctx):
    def max_gap(c):
        ss = np.linspace(0.0, c.grid.T, 10)
        ref = dense_kernel(c.sys.A, c.Theta, ss, ss)
        return max(np.abs(green_function(c, s, t) - ref[a, b]).max()
                   for a, s in enumerate(ss) for b, t in enumerate(ss))

    worst = max_gap(ctx)
    rng = np.random.default_rng(1003)
    grid = make_grid(1.0)
    for i in range(10):
        worst = max(worst, max_gap(make_context(
            random_spec(rng, 2 if i % 2 == 0 else 4), grid)))
    assert worst <= 1e-8
    print(f"criterion 03 PASS: Green function equals kernel, worst {worst:.2e}")


def test_04_determinant_law():
    # det G(T) = e^{-T tr A} det(-mho Theta^-1) for the companion form's
    # G(T) = U e^{TF} V, which holds only with realizability
    rng = np.random.default_rng(1004)
    grid = make_grid(1.0)
    worst = 0.0
    for i in range(20):
        ctx = make_context(_tame_spec(rng, 2 if i % 2 == 0 else 4), grid)
        logdet_rhs0 = np.linalg.slogdet(-ctx.sys.mho @ np.linalg.inv(ctx.Theta))
        for T in (0.1, 1.0, 5.0):
            sign_l, log_l = np.linalg.slogdet(green_gram(ctx, T))
            log_r = logdet_rhs0[1] - T * float(np.trace(ctx.sys.A))
            worst = max(worst, abs(sign_l * np.exp(log_l - log_r)
                                   - logdet_rhs0[0]))
    assert worst <= 1e-8
    print(f"criterion 04 PASS: determinant law, 20x3 horizons, worst rel {worst:.2e}")


def test_05_eigen_cross_validation(ctx, basis, osc_spec):
    coarse = nystrom_oracle(ctx)
    r = basis.omegas.size
    d1 = np.abs(coarse[:r] - basis.omegas) / basis.omegas
    assert np.all(d1 <= 5e-3)
    doubled = nystrom_oracle(make_context(osc_spec, make_grid(1.0, panels=16)))
    d2 = np.abs(doubled[:r] - basis.omegas) / basis.omegas
    assert np.all(d2 <= 0.6 * d1)
    print(f"criterion 05 PASS: shooting vs discretized, worst rel {d1.max():.2e}, "
          f"doubling ratio {float((d2 / d1).max()):.3f}")


def test_06_basis_orthonormality(basis):
    gram = basis_gram(basis)
    r = gram.shape[0]
    target = 0.5 * np.einsum('jk,pq->jkpq', np.eye(r), np.eye(2))
    dev = float(np.max(np.abs(gram - target)))
    assert dev <= 1e-6
    print(f"criterion 06 PASS: Gram deviation {dev:.2e}")


def test_07_hs_identity(ctx, basis):
    gap = abs(basis.hs_captured - ctx.hs_total)
    bound = (1.0 - BASIS_CAPTURE) * ctx.hs_total + 1e-6
    assert gap <= bound
    print(f"criterion 07 PASS: HS identity gap {gap:.4e} <= {bound:.4e}")


def test_08_mercer_truncation(ctx, basis):
    hk = hk_of(basis)
    recon = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', basis.omegas, hk, J2, hk)
    misfit = recon - ctx.lambda_grid
    w = ctx.grid.weights
    msq = float(np.einsum('a,b,abij,abij->', w, w, misfit, misfit))
    bound = basis.hs_total - basis.hs_captured + 1e-6
    assert msq <= bound
    print(f"criterion 08 PASS: Mercer residual {msq:.4e} <= {bound:.4e}")


def test_09_wiener_identity(basis, grid):
    q0 = build_qkl(basis, 0.0)
    ts = np.linspace(0.0, 1.0, 10)
    cov = surrogate_covariance(q0, ts)
    target = np.einsum('ab,ij->abij', np.minimum.outer(ts, ts), np.eye(2))
    msq = float(np.mean(np.sum((cov - target) ** 2, axis=(2, 3))))
    tail = basis.hs_total - basis.hs_captured
    assert msq <= tail + 1e-6
    qf = build_qkl(basis, 0.348)
    rng = np.random.default_rng(99)
    for _ in range(100):
        f = rng.standard_normal((grid.size, 2))
        assert inner(grid, f, apply_K(qf, f)) <= inner(grid, f, f) * (1 + 1e-12)
    print(f"criterion 09 PASS: Wiener msq {msq:.4e} <= tail {tail:.4e}; "
          f"K contraction on 100 functions")


def test_10_qef_oracle_agreement(ctx, basis, state):
    t0 = time.time()
    cache = qef.SpectralCache(ctx, build_qkl(basis, 0.0), state.P0)
    thc0 = qef.compute_qef(ctx, build_qkl(basis, 0.0), state.P0,
                           cache=cache).theta_critical
    worst = 0.0
    for frac in (0.2, 0.5):
        theta = frac * thc0
        qkl = build_qkl(basis, theta)
        rep = qef.compute_qef(ctx, qkl, state.P0, cache=cache)
        r = mc.estimate_qef_mc(ctx, qkl, state.P0,
                               mc.McConfig(samples=100000, seed=0, batch=100))
        for est in (r.z, r.n):
            assert not est.unreliable
            assert abs(est.mean - rep.xi) <= 3.0 * est.stderr
            worst = max(worst, abs(est.mean - rep.xi) / est.stderr)
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    print(f"criterion 10 PASS: both routes within 3 stderr (worst "
          f"{worst:.2f}) in {elapsed:.0f}s")


def test_11_criticality():
    # a detuned second mode gives this system a genuine finite crossing
    spec = model.OscillatorSpec(n=2, m=2, Theta=J2, R=np.diag([1.0, 2.0]),
                                M=np.eye(2), T=1.0, theta=0.0)
    ctx = make_context(spec, make_grid(1.0))
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    basis = build_basis(ctx, 0.99)
    qkl = build_qkl(basis, 0.0)
    cache = qef.SpectralCache(ctx, qkl, P0)
    thc = qef.find_critical_theta(cache)
    assert np.isfinite(thc)
    below = qef.compute_qef(ctx, build_qkl(basis, 0.999 * thc), P0, cache=cache)
    above = qef.compute_qef(ctx, build_qkl(basis, 1.001 * thc), P0, cache=cache)
    assert below.xi is not None and np.isfinite(below.xi)
    assert above.xi is None
    print(f"criterion 11 PASS: finite at 0.999 thc (xi {below.xi:.2f}), "
          f"diverged at 1.001 thc (thc {thc:.6f})")


def test_12_classical_limit(ctx, basis, state):
    theta = 0.348
    qkl = build_qkl(basis, theta)
    cache = qef.SpectralCache(ctx, qkl, state.P0)
    rep = qef.compute_qef(ctx, qkl, state.P0, cache=cache)
    sign, logdet = np.linalg.slogdet(np.eye(cache.P.shape[0]) - theta * cache.P)
    assert sign > 0.0
    direct = float(np.exp(-0.5 * logdet))
    rel = abs(rep.xi_classical - direct) / direct
    assert rel <= 1e-8
    print(f"criterion 12 PASS: K = I limit matches dense log-det, rel {rel:.2e}")


def test_13_corner_identity():
    pinned = fock.corner_error(fock.build_pair(40), 0.2)
    assert pinned <= 1e-6
    rels = [relative_corner_error(fock.build_pair(N), 0.2)
            for N in (20, 40, 80)]
    assert rels[1] <= rels[0]
    assert rels[2] <= rels[1]
    print(f"criterion 13 PASS: corner error {pinned:.2e} <= 1e-6, "
          f"decreasing in N: {[f'{r:.1e}' for r in rels]}")


def test_14_ode_and_bijection():
    # the README's Fock check: exact f and f' meet the ODE to rounding on
    # the corner, relative to its scale e^{omega (N - 1)}
    pair = fock.build_pair(40)
    rels = [fock.verify_ode(pair, [fock.sigma_from_omega(om)])
            / np.exp(om * (pair.N - 1)) for om in (0.1, 0.2)]
    assert max(rels) <= 1e-6
    for om in (0.1, 0.4, 2.0):
        s = fock.sigma_from_omega(om)
        assert abs(omega_from_sigma(s) - om) <= 1e-12
    print(f"criterion 14 PASS: ODE residuals {[f'{r:.1e}' for r in rels]} of scale; "
          f"bijection to 1e-12")


def test_15_deterministic_csvs(tmp_path):
    cfg = {
        "oscillator": {"n": 2, "m": 2, "Theta": [[0.0, 1.0], [-1.0, 0.0]],
                       "R": [[1.0, 0.0], [0.0, 1.0]],
                       "M": [[1.0, 0.0], [0.0, 1.0]],
                       "T": 1.0, "theta": 0.348},
        "grid": {"panels": 8, "nodes_per_panel": 16},
        "eigen": {"capture_fraction": 0.99},
        "qef": {"theta_list": [0.348]},
        "mc": {"samples": 400, "seed": 11, "batch": 20},
        "fock": {"N": 8, "omega_list": [0.1], "quad_order": 12},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    csvs = ["model.csv", "eigen_shooting.csv", "eigen_nystrom.csv",
            "basis_gram.csv", "qef.csv", "qkl.csv", "mc.csv", "fock.csv"]

    def run_all():
        for command in ("model-check", "eigen", "qef", "validate", "fock"):
            assert cli.main([command, "--config", str(path)]) == 0
        return {name: (tmp_path / "out" / name).read_bytes() for name in csvs}

    first = run_all()
    assert run_all() == first
    print("criterion 15 PASS: byte-identical CSVs across reruns")
