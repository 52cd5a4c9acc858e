"""Monte-Carlo estimators: samplers, determinism, and route agreement."""

import numpy as np
import pytest
from conftest import dense_kernel

from qeflab import kernels, mc, qef
from qeflab.errors import (
    CovarianceNotPSD,
    GridMismatch,
    NonpositiveOmega,
    OverflowDominated,
    SupercriticalTheta,
)
from qeflab.qkl import build_qkl, surrogate_covariance


@pytest.fixture(scope="module")
def qkl348(basis):
    return build_qkl(basis, 0.348)


def test_config_validation():
    mc.McConfig(samples=200, seed=0, batch=100)
    with pytest.raises(NonpositiveOmega):
        mc.McConfig(samples=199, seed=0, batch=100)
    with pytest.raises(NonpositiveOmega):
        mc.McConfig(samples=10, seed=0, batch=0)
    with pytest.raises(NonpositiveOmega):
        mc.McConfig(samples=10, seed=0, batch=5, increments_per_panel=0)
    with pytest.raises(NonpositiveOmega):
        mc.McConfig(samples=10, seed=-1, batch=5)
    with pytest.raises(NonpositiveOmega):
        mc.McConfig(samples=10, seed=2 ** 64, batch=5)


def test_sample_Z_starts_at_zero(qkl348):
    cfg = mc.McConfig(samples=50, seed=1, batch=25)
    Z = mc.sample_Z_paths(qkl348, cfg, np.array([0.0, 0.5, 1.0]))
    assert Z.shape == (50, 3, 2)
    assert np.max(np.abs(Z[:, 0, :])) == 0.0


def test_sample_Z_covariance(qkl348):
    # deterministic by seed; the tolerance is ~2x the observed deviation
    cfg = mc.McConfig(samples=20000, seed=42, batch=100)
    ts = np.array([0.25, 0.5, 0.75, 1.0])
    Z = mc.sample_Z_paths(qkl348, cfg, ts)
    emp = np.einsum('sai,sbj->abij', Z, Z) / cfg.samples
    cov = surrogate_covariance(qkl348, ts)
    assert np.max(np.abs(emp - cov)) <= 0.05


def test_sample_N_zero_state(ctx, grid):
    cfg = mc.McConfig(samples=20, seed=3, batch=10)
    paths = mc.sample_N_paths(np.zeros((2, 2)), ctx.sys.A, grid, cfg)
    assert np.max(np.abs(paths)) == 0.0


def test_sample_N_one_point_covariance(ctx, grid, state):
    cfg = mc.McConfig(samples=20000, seed=7, batch=100)
    paths = mc.sample_N_paths(state.P0, ctx.sys.A, grid, cfg)
    assert paths.shape == (20000, grid.size, 2)
    one = np.einsum('sai,saj->ij', paths, paths) / (cfg.samples * grid.size)
    assert np.max(np.abs(one - state.P0)) <= 0.02


def test_sample_N_rejects_indefinite_state(ctx, grid):
    cfg = mc.McConfig(samples=20, seed=3, batch=10)
    with pytest.raises(CovarianceNotPSD):
        mc.sample_N_paths(-np.eye(2), ctx.sys.A, grid, cfg)


def test_path_factor_continuous_in_covariance(ctx, state):
    # the README oscillator's node covariance has exactly degenerate
    # eigenvalue pairs; a square root that depends on the basis eigh picks
    # inside them jumps under a rounding-level perturbation
    blocks = kernels.covariance_on_grid(ctx, state.P0)
    N, n = blocks.shape[0], blocks.shape[2]
    mat = blocks.transpose(0, 2, 1, 3).reshape(N * n, N * n)
    noise = np.random.default_rng(0).standard_normal(mat.shape)
    noise = 1e-15 * np.max(np.abs(mat)) * 0.5 * (noise + noise.T)
    F0 = mc._psd_factor(mat, "node covariance")
    F1 = mc._psd_factor(mat + noise, "node covariance")
    assert np.max(np.abs(F1 - F0)) <= 1e-12 * np.max(np.abs(F0))
    assert np.max(np.abs(F0 @ F0.T - mat)) <= 1e-13 * np.max(np.abs(mat))


def test_estimate_deterministic_across_threads(ctx, qkl348, state, monkeypatch):
    cfg = mc.McConfig(samples=400, seed=11, batch=20)
    monkeypatch.delenv("QEFLAB_THREADS", raising=False)
    a = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    b = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    assert (a.z.mean, a.z.stderr, a.n.mean, a.n.stderr) == \
           (b.z.mean, b.z.stderr, b.n.mean, b.n.stderr)
    monkeypatch.setenv("QEFLAB_THREADS", "4")
    c = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    assert (a.z.mean, a.z.stderr, a.n.mean, a.n.stderr) == \
           (c.z.mean, c.z.stderr, c.n.mean, c.n.stderr)
    assert a.seed == cfg.seed


def test_estimate_agrees_with_closed_form(ctx, qkl348, state):
    rep = qef.compute_qef(ctx, qkl348, state.P0)
    cfg = mc.McConfig(samples=4000, seed=2024, batch=100)
    r = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    for est in (r.z, r.n):
        assert not est.unreliable
        assert est.n_eff == cfg.samples
        assert est.diverged_fraction == 0.0
        assert abs(est.mean - rep.xi) <= 5.0 * est.stderr


def test_discrete_model_determinant_matches_closed_form(ctx, basis, state):
    # the Z-route quadratic form is Gaussian, so its exact expectation is
    # a finite determinant; with the shared-dH projection it reproduces
    # the closed form at the default increment resolution
    theta = 0.87
    qkl = build_qkl(basis, theta)
    rep = qef.compute_qef(ctx, qkl, state.P0)
    est = mc._Estimator(ctx, qkl, state.P0,
                        mc.McConfig(samples=200, seed=0, batch=100))
    m, n = est.n_inc, 2
    L = np.eye(m * n)
    for k in range(est.dH.shape[0]):
        for p in range(2):
            u = est.dH[k, :, :, p].reshape(-1)
            L -= est.corr[k] * np.outer(u, u) / est.dt
    Sig = est.dt * (L @ L.T)
    Pm = est.Pm.transpose(0, 2, 1, 3).reshape(m * n, m * n)
    Pm = 0.5 * (Pm + Pm.T)
    w, V = np.linalg.eigh(Sig)
    half = V * np.sqrt(np.clip(w, 0.0, None)) @ V.T
    evs = np.linalg.eigvalsh(half @ Pm @ half)
    xi_disc = float(np.exp(-est.C) * np.prod(1.0 - theta * evs) ** -0.5)
    assert xi_disc == pytest.approx(rep.xi, rel=5e-4)


def test_midpoint_geometry_matches_dense_expm(ctx, qkl348, state):
    est = mc._Estimator(ctx, qkl348, state.P0, mc.McConfig(samples=200, seed=0, batch=100))
    bounds = np.linspace(0.0, ctx.grid.T, est.n_inc + 1)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    ref = dense_kernel(ctx.sys.A, state.P0, mids, mids)
    assert np.max(np.abs(est.Pm - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_supercritical_theta_refused(ctx, qkl348, state):
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    with pytest.raises(SupercriticalTheta):
        mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg, theta=15.0)


def test_infinite_variance_flagged(ctx, qkl348, state):
    # at theta = 1.5 the mean is finite but 2 theta r(PK) >= 1, so the
    # second moment diverges and both routes must self-report
    cfg = mc.McConfig(samples=200, seed=5, batch=100)
    r = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg, theta=1.5)
    assert r.z.unreliable
    assert r.n.unreliable


def test_grid_mismatch(ctx, osc_spec, state):
    from qeflab import eigensolver as es
    from qeflab import kernels, quadrature
    other_grid = quadrature.make_grid(1.0, panels=4)
    other_ctx = kernels.make_context(osc_spec, other_grid)
    other_qkl = build_qkl(es.build_basis(other_ctx, 0.97), 0.348)
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    with pytest.raises(GridMismatch):
        mc.estimate_qef_mc(ctx, other_qkl, state.P0, cfg)


def test_aggregate_overflow_guard():
    means = np.full(10, 1.0)
    sizes = np.full(10, 100)
    with pytest.raises(OverflowDominated):
        mc._aggregate(means, sizes, clipped=20, variance_finite=True)
    est = mc._aggregate(means, sizes, clipped=5, variance_finite=True)
    assert est.n_eff == 995
    assert est.diverged_fraction == pytest.approx(0.005)
    # a constant estimator (every theta = 0 sample is exactly 1) is exact
    assert (est.mean, est.stderr) == (1.0, 0.0)
    const = mc._aggregate(np.ones(100), mc._batch_sizes(3000, 100), clipped=0,
                          variance_finite=True)
    assert (const.mean, const.stderr) == (1.0, 0.0)


def test_aggregate_kurtosis_guard():
    rng = np.random.default_rng(0)
    means = rng.standard_normal(50)
    sizes = np.full(50, 10)
    ok = mc._aggregate(means, sizes, clipped=0, variance_finite=True)
    assert not ok.unreliable
    means_out = means.copy()
    means_out[0] = 50.0
    bad = mc._aggregate(means_out, sizes, clipped=0, variance_finite=True)
    assert bad.unreliable
    assert bad.kurtosis > mc.KURTOSIS_LIMIT
    flagged = mc._aggregate(means, sizes, clipped=0, variance_finite=False)
    assert flagged.unreliable
