"""Closed-form functional: determinant product, C-term, criticality."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import J2, random_hurwitz_spec, squeezed_spec
from oracles import critical_theta_by_radius, dense_lambdas, transform_system
from scipy.linalg import block_diag

from qeflab import eigensolver as es
from qeflab import kernels, mc, model, qef, quadrature
from qeflab.errors import CovarianceNotPSD, GridMismatch, InvalidParameter, StateUnavailable
from qeflab.qef import tanhc
from qeflab.qkl import build_qkl

# frozen on the reference system with the default 0.99-capture basis
FROZEN = {
    0.0: dict(C=0.0, tail_C=0.0, sr=5.7468672587252234e-01,
              thc=1.7400784722872147, xi=1.0, xicl=1.0),
    0.348: dict(C=2.2715738279653935e-02, tail_C=1.6645175465043437e-04,
                sr=5.6714636616469050e-01, thc=1.7632132720208871,
                xi=1.4162344193542500, xicl=1.4536989379668037),
    0.87: dict(C=1.3785443689019167e-01, tail_C=1.0403234665652150e-03,
               sr=5.3115310428515028e-01, thc=1.8826963298008865,
               xi=2.3869708755301811, xicl=2.9534034120035115),
}
CRITICAL_FROZEN = 9.139708449499796


@pytest.fixture(scope="module")
def qkl348(basis):
    return build_qkl(basis, 0.348)


@pytest.fixture(scope="module")
def cache(ctx, qkl348, state):
    return qef.SpectralCache(ctx, qkl348, state.P0)


@pytest.mark.parametrize("theta", sorted(FROZEN))
def test_frozen_report(ctx, qkl348, state, cache, theta):
    ref = FROZEN[theta]
    rep = qef.compute_qef(ctx, build_qkl(qkl348.basis, theta), state.P0, cache=cache)
    assert rep.theta == theta
    assert rep.C == pytest.approx(ref["C"], abs=1e-15, rel=1e-12)
    assert rep.tail_C == pytest.approx(ref["tail_C"], abs=1e-15, rel=1e-12)
    assert rep.spectral_radius == pytest.approx(ref["sr"], rel=1e-12)
    assert rep.theta_critical == pytest.approx(ref["thc"], rel=1e-12)
    assert rep.xi == pytest.approx(ref["xi"], rel=1e-12)
    assert rep.xi_classical == pytest.approx(ref["xicl"], rel=1e-12)


@pytest.mark.parametrize("theta", sorted(FROZEN))
def test_xi_matches_exact_passive_value(ctx, qkl348, state, cache, theta):
    # the reference system is passive and driven by vacuum fields, so its
    # exact QEF is e^{theta T}; the 8 x 16 grid is within 2.6e-5 of it
    rep = qef.compute_qef(ctx, build_qkl(qkl348.basis, theta), state.P0, cache=cache)
    assert abs(rep.xi / np.exp(theta * ctx.grid.T) - 1.0) <= 1e-4


def test_cache_refuses_another_context_or_state(osc_spec, grid, ctx, qkl348, state, cache):
    # the cache decides the determinant, so a ctx or P0 it was not built
    # from must be refused: with 2 P0 the cache's state gave xi 1.4162344
    # where 2 P0's own is 2.1979821
    assert qef.compute_qef(ctx, qkl348, 2.0 * state.P0).xi == pytest.approx(2.1979821, rel=1e-7)
    with pytest.raises(InvalidParameter, match="spectral cache"):
        qef.compute_qef(ctx, qkl348, 2.0 * state.P0, cache=cache)
    with pytest.raises(GridMismatch, match="spectral cache"):
        qef.compute_qef(kernels.make_context(osc_spec, grid), qkl348, state.P0, cache=cache)
    # an equal copy of the cache's P0 is its state
    rep = qef.compute_qef(ctx, qkl348, state.P0.copy(), cache=cache)
    assert rep.xi == qef.compute_qef(ctx, qkl348, state.P0, cache=cache).xi


def test_C_matches_mode_sum(basis):
    theta = 0.87
    C, tail = qef.compute_C(basis, theta)
    direct = float(np.sum(np.log(np.cosh(theta * basis.omegas))))
    hs_tail = basis.hs_total - basis.hs_captured
    assert tail == pytest.approx(theta ** 2 * hs_tail / 4.0, rel=1e-12)
    assert C == pytest.approx(direct + tail, rel=1e-12)
    with pytest.raises(InvalidParameter):
        qef.compute_C(basis, -1.0)


def test_C_cross_checked_against_dense_spectrum(ctx, basis):
    # the tail estimate should land within 1e-4 of summing ln cosh over
    # the full discretized spectrum of the skew operator
    omegas = es.nystrom_oracle(ctx)
    for theta in (0.348, 0.87):
        C, _ = qef.compute_C(basis, theta)
        x = theta * omegas
        dense = float(np.sum(np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x)))
                             - np.log(2.0)))
        assert abs(C - dense) <= 1e-4


def test_lambdas_at_zero_equal_state_spectrum(cache):
    # at theta = 0, K = I: the radius is the top of the state spectrum, and
    # every Ritz value lies inside that spectrum
    lam = cache.lambdas(0.0)
    assert lam[0] == pytest.approx(cache.mu[0], rel=1e-13)
    assert np.all(np.diff(lam) <= 0.0)
    assert lam[-1] >= cache.mu[-1]
    assert np.all(np.diff(cache.mu) <= 0.0)
    assert np.all(cache.mu >= 0.0)
    # discretized trace of the covariance operator is T * tr(P0)
    assert np.trace(cache.P) == pytest.approx(2.0, rel=1e-13)


def test_pk_trace_identity(cache):
    # tr(P K) from the rank-2r spectral form of K equals the trace of the
    # cache's low-rank operator diag(mu) + W diag(t - 1) W^T and the sum of
    # the dense spectrum of sqrt(K) P sqrt(K)
    UPU = cache.basis.modes.T @ cache.P @ cache.basis.modes
    for theta in (0.0, 0.348, 0.87):
        scale = tanhc(theta * np.repeat(cache.basis.omegas, 2)) - 1.0
        tr_pk = float(np.trace(cache.P)) + float(np.sum(scale * np.diag(UPU)))
        low_rank = float(np.sum(cache.mu)) + float(np.sum(scale * np.sum(cache.W ** 2, axis=0)))
        assert low_rank == pytest.approx(tr_pk, abs=1e-12)
        assert float(dense_lambdas(cache, theta).sum()) == pytest.approx(tr_pk, abs=1e-10)


def test_monte_carlo_terms_read_the_report(ctx, qkl348, state, monkeypatch):
    # the Monte-Carlo weights take theta, C and the divergence test from
    # compute_qef's reports: one Lanczos run per theta in all, and a rerun
    # of lambdas gives the report's radius to the bit.  A report carrying
    # theta 0.87 with the 0.348 report's C plus one weights the draws as
    # the 0.87 report does, times e^{C(0.87) - C(0.348) - 1}, and its
    # radius of one puts 2 theta r(PK) past 1, which flags both routes
    runs = []

    def counting(*args, **kwargs):
        runs.append(args)
        return lanczos(*args, **kwargs)

    lanczos = qef._lanczos
    monkeypatch.setattr(qef, "_lanczos", counting)
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    reps = [qef.compute_qef(ctx, build_qkl(qkl348.basis, theta), state.P0, cache=cache)
            for theta in (0.348, 0.87)]
    moved = replace(reps[0], theta=0.87, C=reps[0].C + 1.0, spectral_radius=1.0)
    _, real, alt = mc.estimate_qef_mc_many(cache, [*reps, moved],
                                           mc.McConfig(samples=400, seed=1, batch=20))
    assert len(runs) == 2
    assert alt.theta == 0.87
    for est, got in ((real.z, alt.z), (real.n, alt.n)):
        ratio = np.exp(reps[1].C - reps[0].C - 1.0)
        assert got.mean == pytest.approx(est.mean * ratio, rel=1e-14, abs=0.0)
        assert not est.unreliable and got.unreliable
    assert cache.lambdas(0.348)[0] == reps[0].spectral_radius
    assert len(runs) == 3


def test_rounding_negative_covariance_eigenvalues_are_clipped(ctx, qkl348, state, monkeypatch):
    # a rounding-level negative eigenvalue of P is stored as zero, so the
    # sqrt(mu) scaling of the low-rank basis stays finite
    def eigh_with_negative(a):
        evals, vecs = eigh(a)
        evals[0] = -1e-14 * evals[-1]
        return evals, vecs

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", eigh_with_negative)
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    assert cache.mu[-1] == 0.0
    assert np.all(np.isfinite(cache.W))


def test_lambdas_rejects_negative_theta(cache):
    with pytest.raises(InvalidParameter):
        cache.lambdas(-0.5)
    with pytest.raises(InvalidParameter):
        cache.log_det(-0.5)
    with pytest.raises(InvalidParameter, match="theta must be nonnegative, got -0.5"):
        cache.k_eigenvalues(-0.5)


def test_quantum_correction_tightens_classical(ctx, qkl348, state, cache):
    # e^{-C} and the damped PK spectrum both pull xi below the K = I value
    for theta in (0.348, 0.87):
        rep = qef.compute_qef(ctx, build_qkl(qkl348.basis, theta), state.P0, cache=cache)
        assert rep.xi < rep.xi_classical
    rep0 = qef.compute_qef(ctx, build_qkl(qkl348.basis, 0.0), state.P0, cache=cache)
    assert rep0.xi == 1.0
    assert rep0.xi_classical == 1.0


def test_classical_diverges_first(ctx, qkl348, state, cache):
    # above 1/max mu the K = I product diverges while the damped one is
    # still finite; the report signals divergence with None, not a raise
    theta = 3.43
    assert theta > 1.0 / cache.mu[0]
    rep = qef.compute_qef(ctx, build_qkl(qkl348.basis, theta), state.P0, cache=cache)
    assert rep.xi is not None and np.isfinite(rep.xi)
    assert rep.xi_classical is None
    assert theta * rep.spectral_radius < 1.0


def test_supercritical_reports_none(ctx, qkl348, state, cache):
    rep = qef.compute_qef(ctx, build_qkl(qkl348.basis, 15.0), state.P0, cache=cache)
    assert rep.xi is None
    assert rep.xi_classical is None
    assert 15.0 * rep.spectral_radius >= 1.0
    assert np.isfinite(rep.theta_critical)


def test_find_critical_theta_fixture(cache):
    thc = qef.find_critical_theta(cache)
    assert np.isfinite(thc)
    assert thc > 5.0
    assert thc == pytest.approx(CRITICAL_FROZEN, rel=1e-6)
    # the crossing separates finite from divergent determinants
    assert 0.999 * thc * cache.lambdas(0.999 * thc)[0] < 1.0
    assert 1.001 * thc * cache.lambdas(1.001 * thc)[0] > 1.0


@pytest.mark.parametrize("T", [1.0, 2.0])
@pytest.mark.parametrize("which", ["readme", "squeezed", "random0", "random1", "random2",
                                   "random7", "random12"])
def test_critical_theta_is_the_divergence_boundary(osc_spec, which, T, monkeypatch):
    # the bisection reads log_det's Cholesky verdict, the test that makes
    # xi None, and lands on the Lanczos-radius crossing without a Lanczos run
    if which == "readme":
        spec = replace(osc_spec, T=T)
    elif which == "squeezed":
        spec = replace(squeezed_spec(), T=T)
    else:
        spec = random_hurwitz_spec(np.random.default_rng(int(which[6:])), 4, T=T)
    cache = _cache_for(spec)
    reference = critical_theta_by_radius(cache)
    runs = []
    lanczos = qef._lanczos

    def counting(*args):
        runs.append(args)
        return lanczos(*args)

    monkeypatch.setattr(qef, "_lanczos", counting)
    thc = qef.find_critical_theta(cache)
    assert runs == []
    assert thc == pytest.approx(reference, rel=1e-12)
    below, above = (qef.compute_qef(cache.ctx, build_qkl(cache.basis, thc * (1.0 + d)), cache.P0,
                                    cache=cache) for d in (-1e-9, 1e-9))
    assert below.xi is not None and np.isfinite(below.xi)
    assert above.xi is None


def test_state_unavailable(ctx, osc_spec, qkl348):
    with pytest.raises(StateUnavailable):
        qef.SpectralCache(ctx, qkl348, None)
    # a basis living on a different grid cannot be mixed in
    other_grid = quadrature.make_grid(1.0, panels=4)
    other_ctx = kernels.make_context(osc_spec, other_grid)
    other_qkl = build_qkl(es.build_basis(other_ctx, 0.97), 0.348)
    with pytest.raises(GridMismatch):
        qef.SpectralCache(ctx, other_qkl, np.eye(2))


def test_covariance_not_psd(ctx, qkl348):
    with pytest.raises(CovarianceNotPSD):
        qef.SpectralCache(ctx, qkl348, -np.eye(2))


def _cache_for(spec):
    ctx = kernels.make_context(spec, quadrature.make_grid(spec.T))
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    return qef.SpectralCache(ctx, build_qkl(es.build_basis(ctx, 0.99), 0.0), P0)


@pytest.mark.parametrize("which", ["readme", "squeezed", "random0", "random1", "random2"])
def test_low_rank_route_matches_dense(cache, which):
    # the Lanczos radius and the low-rank log-determinant against the dense
    # spectrum of sqrt(K) P sqrt(K); the README's top eigenvalue is doubly
    # degenerate, the others are simple
    if which == "readme":
        c = cache
    elif which == "squeezed":
        c = _cache_for(squeezed_spec())
    else:
        c = _cache_for(random_hurwitz_spec(np.random.default_rng(int(which[-1])), 4))
    th_cl = 1.0 / c.mu[0]
    th_c = qef.find_critical_theta(c)
    assert th_cl < th_c < np.inf
    for theta in (0.0, 0.3 * th_cl, 0.5 * (th_cl + th_c), 0.999 * th_c, 1.001 * th_c, 2.0 * th_c):
        lam = dense_lambdas(c, theta)
        r = lam[0]
        assert c.lambdas(theta)[0] == pytest.approx(r, rel=1e-13)
        log_det = c.log_det(theta)
        if theta * r >= 1.0:
            assert log_det is None
            continue
        bound = 1e-13 * (1.0 + theta * r / (1.0 - theta * r))
        assert log_det == pytest.approx(float(np.sum(np.log1p(-theta * lam))), abs=bound)


def _invariants(spec):
    """Shooting omegas, critical theta and theta -> (xi, C), as the CLI computes them."""
    ctx = kernels.make_context(spec, quadrature.make_grid(spec.T))
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    basis = es.build_basis(ctx, 0.99)
    cache = qef.SpectralCache(ctx, build_qkl(basis, 0.0), P0)

    def at(theta):
        rep = qef.compute_qef(ctx, build_qkl(basis, theta), P0, cache=cache)
        return rep.xi, rep.C

    return basis.omegas, qef.find_critical_theta(cache), at


def _rotated(spec):
    S, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((spec.n, spec.n)))
    return transform_system(spec, S), 1.0


def _time_scaled(spec, k=2.5):
    # (R, M, T, theta) -> (k R, sqrt(k) M, T / k, k theta) scales A and B
    # B B^T by k, so the kernel on [0, T/k] is the old one at k times the lag
    return replace(spec, R=k * spec.R, M=np.sqrt(k) * spec.M, T=spec.T / k), k


@pytest.mark.parametrize("system", ["squeezed", "random4"])
@pytest.mark.parametrize("transform", [_rotated, _time_scaled], ids=["rotation", "time_scaling"])
def test_invariance_under_coordinate_and_time_maps(system, transform):
    # an orthogonal X -> S X keeps X^T X, and time scaling maps the problem
    # onto itself with omega -> omega / k and theta -> k theta; the
    # discretized pipeline inherits both maps to rounding
    spec = squeezed_spec() if system == "squeezed" else \
        random_hurwitz_spec(np.random.default_rng(7), 4)
    omegas, thc, at = _invariants(spec)
    moved, k = transform(spec)
    omegas_m, thc_m, at_m = _invariants(moved)
    assert omegas_m.shape == omegas.shape
    np.testing.assert_allclose(k * omegas_m, omegas, rtol=1e-12, atol=0.0)
    assert thc_m / k == pytest.approx(thc, rel=1e-12)
    for theta in (0.2 * thc, 0.5 * thc, 0.8 * thc):
        (xi, C), (xi_m, C_m) = at(theta), at_m(k * theta)
        assert xi_m == pytest.approx(xi, rel=1e-12)
        assert C_m == pytest.approx(C, rel=1e-12)


def test_no_dense_factorization_per_theta(ctx, qkl348, state, monkeypatch):
    # once the cache is built, each theta costs O(N n r^2): no np.linalg
    # call sees an N n x N n matrix, in the sweep or in the bisection
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    size = cache.P.shape[0]
    qkls = [build_qkl(qkl348.basis, th) for th in np.linspace(0.0, 1.5, 24)]
    dense = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            if any(isinstance(a, np.ndarray) and a.shape[-2:] == (size, size) for a in args):
                dense.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(fn))
    for q in qkls:
        qef.compute_qef(ctx, q, state.P0, cache=cache)
    thc = qef.find_critical_theta(cache)
    assert dense == []
    assert thc == pytest.approx(CRITICAL_FROZEN, rel=1e-9)
    assert thc * cache.lambdas(thc)[0] == pytest.approx(1.0, abs=1e-6)
    # the counter sees the one factorization a cache makes
    qef.SpectralCache(ctx, qkl348, state.P0)
    assert dense == ["eigh"]


def _xi_at_capture(spec, thetas):
    """xi per theta on the 8 x 16 grid from the 0.99-capture basis."""
    ctx = kernels.make_context(spec, quadrature.make_grid(1.0))
    basis = es.build_basis(ctx, 0.99)
    P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
    return [qef.compute_qef(ctx, build_qkl(basis, t), P0).xi for t in thetas]


@pytest.mark.parametrize("pair", ["readme+readme", "readme+squeezed", "squeezed+squeezed"])
def test_decoupled_oscillators_compose(pair):
    # xi of S1 (+) S2 is xi(S1) xi(S2): Theta, R and M' J M' stay block
    # diagonal when M' = Pi (M1 (+) M2), Pi taking rows [0, 2, 1, 3], since
    # J pairs channel 0 with 2 and 1 with 3.  The composite basis captures
    # 0.99 of the sum of the two HS norms (measured <= 1.1e-15 off)
    readme = model.OscillatorSpec(n=2, m=2, Theta=J2, R=np.eye(2), M=np.eye(2), T=1.0, theta=0.0)
    specs = [readme if name == "readme" else squeezed_spec() for name in pair.split("+")]
    s1, s2 = specs
    both = model.OscillatorSpec(n=4, m=4, Theta=block_diag(s1.Theta, s2.Theta),
                                R=block_diag(s1.R, s2.R), M=block_diag(s1.M, s2.M)[[0, 2, 1, 3]],
                                T=1.0, theta=0.0)
    thetas = (0.1, 0.348, 0.87)
    xi1 = _xi_at_capture(s1, thetas)
    xi2 = _xi_at_capture(s2, thetas)
    xi12 = _xi_at_capture(both, thetas)
    for a, b, ab in zip(xi1, xi2, xi12):
        assert ab == pytest.approx(a * b, rel=1e-12)
