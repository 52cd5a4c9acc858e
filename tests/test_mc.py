"""Monte-Carlo estimators: path factor, batch geometry, determinism, and route agreement."""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from conftest import dense_kernel, squeezed_spec
from oracles import hk_of, run_batch, running_integrals, symmetric_root

from qeflab import kernels, mc, model, qef, quadrature
from qeflab.eigensolver import build_basis
from qeflab.errors import (
    CovarianceNotPSD,
    GridMismatch,
    InvalidParameter,
    OverflowDominated,
    SupercriticalTheta,
)
from qeflab.qkl import build_qkl


@pytest.fixture(scope="module")
def qkl348(basis):
    return build_qkl(basis, 0.348)


def test_config_validation():
    mc.McConfig(samples=200, seed=0, batch=100)
    cases = [(dict(samples=199, seed=0, batch=100), "mc.samples"),
             (dict(samples=10, seed=0, batch=0), "mc.batch"),
             (dict(samples=10, seed=0, batch=1), "mc.batch"),
             (dict(samples=10, seed=0, batch=5, increments_per_panel=0),
              "mc.increments_per_panel"),
             (dict(samples=10, seed=-1, batch=5), "mc.seed"),
             (dict(samples=10, seed=2 ** 64, batch=5), "mc.seed")]
    for kwargs, field in cases:
        with pytest.raises(InvalidParameter, match=field):
            mc.McConfig(**kwargs)


def test_sample_N_zero_state(ctx, qkl348):
    # a zero state makes P and P^{1/2} U zero, so every N-route sample has
    # |y|^2 = 0 and y U = 0, and its weight is exactly exp(-C)
    zero = np.zeros((2, 2))
    cache = qef.SpectralCache(ctx, qkl348, zero)
    assert cache.root_modes.shape == cache.basis.modes.shape
    assert np.max(np.abs(cache.root_modes)) == 0.0
    geom = mc._Geometry(cache, mc.McConfig(samples=200, seed=0, batch=100))
    rep = qef.compute_qef(ctx, qkl348, zero, cache=cache)
    means, clipped = geom.run_group(np.array([20, 13]), np.random.SeedSequence(0).spawn(2),
                                    [rep])
    for n_mean in means[0, 1]:
        assert n_mean == pytest.approx(np.exp(-rep.C), rel=1e-15)
    assert not clipped.any()


def test_sample_N_rejects_indefinite_state(ctx, qkl348):
    with pytest.raises(CovarianceNotPSD):
        mc.estimate_qef_mc(ctx, qkl348, -np.eye(2), mc.McConfig(samples=200, seed=0, batch=100))


def test_path_factor_continuous_in_covariance(ctx, qkl348, state):
    # the N-route's path factor is P^{1/2} U.  The README oscillator's
    # covariance matrix has exactly degenerate eigenvalue pairs; a square
    # root that depends on the basis eigh picks inside them jumps under a
    # rounding-level perturbation of the state
    noise = np.random.default_rng(0).standard_normal((2, 2))
    P1 = state.P0 + 1e-15 * np.max(np.abs(state.P0)) * 0.5 * (noise + noise.T)
    F0 = qef.SpectralCache(ctx, qkl348, state.P0).root_modes
    F1 = qef.SpectralCache(ctx, qkl348, P1).root_modes
    assert np.max(np.abs(F1 - F0)) <= 1e-12 * np.max(np.abs(F0))


def test_cache_path_factor_is_symmetric_root(ctx, qkl348, state):
    # reference: scipy's Schur-method square root of the cache's own P,
    # applied to the cache's own modes
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    ref = scipy.linalg.sqrtm(cache.P) @ cache.basis.modes
    assert np.max(np.abs(cache.root_modes - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_estimate_deterministic_across_threads(ctx, qkl348, state):
    cfg = mc.McConfig(samples=400, seed=11, batch=20)
    a = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    b = mc.estimate_qef_mc(ctx, qkl348, state.P0, cfg)
    assert (a.z.mean, a.z.stderr, a.n.mean, a.n.stderr) == \
           (b.z.mean, b.z.stderr, b.n.mean, b.n.stderr)


def _geometry(ctx, qkl, state):
    cache = qef.SpectralCache(ctx, qkl, state.P0)
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    rep = qef.compute_qef(ctx, qkl, state.P0, cache=cache)
    return mc._Geometry(cache, cfg), rep


@pytest.mark.parametrize("theta", [0.348, 0.87])
def test_run_batch_matches_einsum_forms(ctx, basis, state, theta):
    # the flat matrix products and rank-2r theta terms of one group of
    # batches against the per-index einsum forms of the same quadratic
    # forms, on the same draws: each batch draws dW, then z, from its stream
    qkl = build_qkl(basis, theta)
    est, rep = _geometry(ctx, qkl, state)
    n, r, N = ctx.n, basis.omegas.size, ctx.grid.size
    m = est.dH.shape[0] // n
    dH = est.dH.reshape(m, n, r, 2).transpose(2, 0, 1, 3)             # (r, m, n, 2)
    Pm = est.Pm.reshape(m, n, m, n).transpose(0, 2, 1, 3)             # (m, m, n, n)
    tanc = est.cache.k_eigenvalues(theta)[::2]
    corr = 1.0 - np.sqrt(tanc)
    w = ctx.grid.weights
    root = symmetric_root(est.cache.P)
    sizes = np.array([50, 30])
    seeds = np.random.SeedSequence(123).spawn(2)
    means, _ = est.run_group(sizes, seeds, [rep])
    for j, (size, seed) in enumerate(zip(sizes, seeds)):
        rng = np.random.default_rng(seed)
        dW = rng.standard_normal((size, m, n)) * np.sqrt(est.dt)
        zeta = np.einsum('kaip,sai->skp', dH, dW) / est.dt
        dZ = dW - np.einsum('k,kaip,skp->sai', corr, dH, zeta)
        q_z = np.einsum('sai,abij,sbj->s', dZ, Pm, dZ)
        # the N-route samples y = sqrt(w) N = z P_h^{1/2}, here from a root of
        # its own; its form <N, K N> is in N itself
        paths = (rng.standard_normal((size, N * n)) @ root).reshape(size, N, n) \
            / np.sqrt(w)[None, :, None]
        base = np.einsum('sai,a,sai->s', paths, w, paths)
        proj = np.einsum('kaip,a,sai->skp', hk_of(basis), w, paths)
        q_n = base + 2.0 * np.einsum('k,skp->s', tanc - 1.0, proj ** 2)
        for q, mean in zip((q_z, q_n), means[0, :, j]):
            ref = float(np.mean(np.exp(-rep.C + 0.5 * theta * q)))
            assert mean == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_group_clips_like_per_batch_reference(ctx, qkl348, state, monkeypatch):
    # a clip lowered into the bulk of the exponents gives every batch of
    # the group clipped samples, whose means and counts the reference fixes
    monkeypatch.setattr(mc, "OVERFLOW_LOG", 0.3)
    est, rep = _geometry(ctx, qkl348, state)
    sizes = np.array([40, 25, 33])
    seeds = np.random.SeedSequence(5).spawn(3)
    means, clipped = est.run_group(sizes, seeds, [rep])
    assert np.all(clipped > 0) and np.all(clipped < sizes)
    for j, (size, seed) in enumerate(zip(sizes, seeds)):
        [routes] = run_batch(est, int(size), seed, [rep])
        for route, (mean, count) in enumerate(routes):
            assert means[0, route, j] == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert clipped[0, route, j] == count


def test_groups_cover_batches_in_order():
    bound = mc.GROUP_ROWS
    for sizes in (mc._batch_sizes(3000, 100), mc._batch_sizes(1000, 7),
                  np.array([bound + 1, 3, bound - 3, 4, 2 * bound])):
        groups = mc._groups(sizes)
        assert [i for g in groups for i in range(len(sizes))[g]] == list(range(len(sizes)))
        for g in groups:
            assert sizes[g].sum() <= bound or len(sizes[g]) == 1


@pytest.fixture(scope="module")
def squeezed():
    spec = squeezed_spec()
    ctx = kernels.make_context(spec, quadrature.make_grid(spec.T))
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    return ctx, build_basis(ctx, 0.99), P0


@pytest.fixture(scope="module")
def squeezed_thetas(squeezed):
    ctx, basis, P0 = squeezed
    crit = qef.find_critical_theta(qef.SpectralCache(ctx, build_qkl(basis, 0.0), P0))
    return [0.2 * crit, 0.5 * crit]


@pytest.mark.parametrize("samples, batch", [(3000, 100), (1000, 7), (1400, 2)],
                         ids=["even", "uneven", "batch-over-bound"])
@pytest.mark.parametrize("which", ["readme", "squeezed"])
def test_grouped_pass_matches_per_batch_reference(ctx, basis, state, squeezed, squeezed_thetas,
                                                  which, samples, batch):
    # the stacked groups and their rank-2r theta terms against each batch
    # drawn and weighted on its own; 1400 / 2 puts more rows in one batch
    # than a group holds
    c, b, P0 = (ctx, basis, state.P0) if which == "readme" else squeezed
    thetas = [0.0, 0.348, 0.87] if which == "readme" else squeezed_thetas
    cfg = mc.McConfig(samples=samples, seed=17, batch=batch)
    assert (batch == 2) == (samples // batch > mc.GROUP_ROWS)
    qkls = [build_qkl(b, theta) for theta in thetas]
    cache = qef.SpectralCache(c, qkls[0], P0)
    reps = [qef.compute_qef(c, q, P0, cache=cache) for q in qkls]
    geom = mc._Geometry(cache, cfg)
    sizes = mc._batch_sizes(cfg.samples, cfg.batch)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.batch)
    batches = [run_batch(geom, int(size), seed, reps) for size, seed in zip(sizes, seeds)]
    got = mc.estimate_qef_mc_many(cache, reps, cfg)
    for i, (rep, res) in enumerate(zip(reps, got)):
        variance_finite = 2.0 * rep.theta * rep.spectral_radius < 1.0
        for route, est in enumerate((res.z, res.n)):
            ref = mc._aggregate(np.array([bt[i][route][0] for bt in batches]), sizes,
                                sum(bt[i][route][1] for bt in batches), variance_finite)
            assert est.mean == pytest.approx(ref.mean, rel=1e-12, abs=0.0)
            assert est.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0.0)
            assert est.kurtosis == pytest.approx(ref.kurtosis, rel=0.0, abs=1e-12)
            assert (est.n_eff, est.diverged_fraction, est.unreliable) == \
                (ref.n_eff, ref.diverged_fraction, ref.unreliable)


def _fields(result):
    return (result.theta,
            *[getattr(est, f.name) for est in (result.z, result.n)
              for f in dataclasses.fields(est)])


def test_many_thetas_match_separate_calls(ctx, basis, state):
    # every theta of one pass sees the same draws as a one-theta call, so
    # the shared geometry and draws must not move a single bit
    cfg = mc.McConfig(samples=400, seed=7, batch=20)
    qkls = [build_qkl(basis, theta) for theta in (0.0, 0.348, 0.87)]
    cache = qef.SpectralCache(ctx, qkls[0], state.P0)
    reps = [qef.compute_qef(ctx, q, state.P0, cache=cache) for q in qkls]
    many = mc.estimate_qef_mc_many(cache, reps, cfg)
    assert len(many) == len(qkls)
    for qkl, got in zip(qkls, many):
        assert _fields(got) == _fields(mc.estimate_qef_mc(ctx, qkl, state.P0, cfg))
    assert mc.estimate_qef_mc_many(cache, [], cfg) == []


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
    est, rep = _geometry(ctx, build_qkl(basis, theta), state)
    corr = 1.0 - np.sqrt(est.cache.k_eigenvalues(theta))
    n = ctx.n
    m = est.dH.shape[0] // n
    L = np.eye(m * n)
    for j in range(est.dH.shape[1]):
        u = est.dH[:, j]
        L -= corr[j] * np.outer(u, u) / est.dt
    Sig = est.dt * (L @ L.T)
    Pm = 0.5 * (est.Pm + est.Pm.T)
    w, V = np.linalg.eigh(Sig)
    half = V * np.sqrt(np.clip(w, 0.0, None)) @ V.T
    evs = np.linalg.eigvalsh(half @ Pm @ half)
    xi_disc = float(np.exp(-rep.C) * np.prod(1.0 - theta * evs) ** -0.5)
    assert xi_disc == pytest.approx(rep.xi, rel=5e-4)


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.87])
@pytest.mark.parametrize("which", ["readme", "squeezed"])
def test_N_route_determinant_matches_closed_form(ctx, basis, state, squeezed, which, theta):
    # y = z R with R = P_h^{1/2} and q = y^T K_h y is Gaussian, so the
    # N-route's exact expectation is exp(-C) det(I - theta R K_h R)^{-1/2}:
    # the closed form's own determinant, on the same discretization.  R is
    # built here, not read from the cache
    c, b, P0 = (ctx, basis, state.P0) if which == "readme" else squeezed
    qkl = build_qkl(b, theta)
    cache = qef.SpectralCache(c, qkl, P0)
    rep = qef.compute_qef(c, qkl, P0, cache=cache)
    R, U = symmetric_root(cache.P), cache.basis.modes
    K = np.eye(U.shape[0]) + (U * (cache.k_eigenvalues(theta) - 1.0)) @ U.T
    sign, logdet = np.linalg.slogdet(np.eye(U.shape[0]) - theta * R @ K @ R)
    assert sign == 1.0
    assert float(np.exp(-rep.C - 0.5 * logdet)) == pytest.approx(rep.xi, rel=1e-12, abs=0.0)


def test_cell_increments_are_running_integral_differences(ctx, qkl348, state):
    # the Z-route's dH, integrated cell by cell from the mode matrix, against
    # differences of the per-point running integrals H_k of the pairs
    est, _ = _geometry(ctx, qkl348, state)
    m = est.dH.shape[0] // ctx.n
    H = running_integrals(qkl348, np.linspace(0.0, ctx.grid.T, m + 1))       # (m + 1, r, n, 2)
    ref = np.diff(H, axis=0).transpose(0, 2, 1, 3).reshape(est.dH.shape)
    assert np.max(np.abs(est.dH - ref)) <= 1e-14 * np.max(np.abs(H))


def test_midpoint_geometry_matches_dense_expm(ctx, qkl348, state):
    est, _ = _geometry(ctx, qkl348, state)
    bounds = np.linspace(0.0, ctx.grid.T, est.dH.shape[0] // ctx.n + 1)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    ref = dense_kernel(ctx.sys.A, state.P0, mids, mids)
    ref = ref.transpose(0, 2, 1, 3).reshape(est.Pm.shape)
    assert np.max(np.abs(est.Pm - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_supercritical_theta_refused(ctx, qkl348, state):
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    crit = qef.find_critical_theta(cache)
    msg = f"theta=15 is at or beyond the critical value {crit:.6g}; the estimator mean diverges"
    with pytest.raises(SupercriticalTheta, match=f"^{msg}$"):
        mc.estimate_qef_mc(ctx, build_qkl(qkl348.basis, 15.0), state.P0, cfg)
    # one supercritical theta refuses the whole pass
    qkls = [qkl348, build_qkl(qkl348.basis, 15.0)]
    reps = [qef.compute_qef(ctx, q, state.P0, cache=cache) for q in qkls]
    with pytest.raises(SupercriticalTheta, match=f"^{msg}$"):
        mc.estimate_qef_mc_many(cache, reps, cfg)


@pytest.mark.parametrize("factor", [0.999, 1.001])
@pytest.mark.parametrize("which", ["readme", "squeezed"])
def test_refuses_exactly_when_closed_form_diverges(ctx, basis, state, squeezed, which, factor):
    # the estimator's divergence test is compute_qef's: xi is None
    c, b, P0 = (ctx, basis, state.P0) if which == "readme" else squeezed
    crit = qef.find_critical_theta(qef.SpectralCache(c, build_qkl(b, 0.0), P0))
    qkl = build_qkl(b, factor * crit)
    diverged = qef.compute_qef(c, qkl, P0).xi is None
    assert diverged == (factor > 1.0)
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    if diverged:
        with pytest.raises(SupercriticalTheta):
            mc.estimate_qef_mc(c, qkl, P0, cfg)
    else:
        assert mc.estimate_qef_mc(c, qkl, P0, cfg).theta == qkl.theta


def test_infinite_variance_flagged(ctx, qkl348, state):
    # at theta = 1.5 the mean is finite but 2 theta r(PK) >= 1, so the
    # second moment diverges and both routes must self-report
    cfg = mc.McConfig(samples=200, seed=5, batch=100)
    r = mc.estimate_qef_mc(ctx, build_qkl(qkl348.basis, 1.5), state.P0, cfg)
    assert r.z.unreliable
    assert r.n.unreliable


def test_grid_mismatch(ctx, osc_spec, qkl348, state):
    from qeflab import eigensolver as es
    cfg = mc.McConfig(samples=200, seed=0, batch=100)
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    # 4x16 has fewer nodes than the 8x16 context; 16x8 has as many, at
    # other times, and must be refused with the run's cache as well as
    # without.  With the cache, C would come from the other basis and the
    # determinant from the cache's (with a 0.99-capture 4x16 basis, xi
    # came out 1.4162182 instead of 1.4162344)
    for panels, order in ((4, 16), (16, 8)):
        other_ctx = kernels.make_context(osc_spec, quadrature.make_grid(1.0, panels, order))
        other_qkl = build_qkl(es.build_basis(other_ctx, 0.97), 0.348)
        with pytest.raises(GridMismatch):
            mc.estimate_qef_mc(ctx, other_qkl, state.P0, cfg)
        with pytest.raises(GridMismatch, match="spectral cache"):
            qef.compute_qef(ctx, other_qkl, state.P0, cache=cache)
    # so is a copy of the cache's own basis: the cache checks identity, not content
    with pytest.raises(GridMismatch, match="spectral cache"):
        qef.compute_qef(ctx, build_qkl(copy.copy(qkl348.basis), 0.348), state.P0, cache=cache)
    assert qef.compute_qef(ctx, build_qkl(qkl348.basis, 0.87), state.P0, cache=cache).xi


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
