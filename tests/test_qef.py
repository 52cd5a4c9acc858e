"""Closed-form functional: determinant product, C-term, criticality."""

import numpy as np
import pytest

from qeflab import eigensolver as es
from qeflab import kernels, model, qef, quadrature
from qeflab.errors import CovarianceNotPSD, GridMismatch, InvalidParameter, StateUnavailable
from qeflab.qkl import build_qkl, tanhc

# frozen on the reference system with the default 0.99-capture basis
FROZEN = {
    0.0: dict(C=0.0, tail_C=0.0, sr=5.7468672587252234e-01,
              thc=1.7400784722872147, xi=1.0, xicl=1.0),
    0.348: dict(C=2.2715738279653935e-02, tail_C=1.6645175464996713e-04,
                sr=5.6714636616469050e-01, thc=1.7632132720208871,
                xi=1.4162344193542500, xicl=1.4536989379668037),
    0.87: dict(C=1.3785443689019167e-01, tail_C=1.0403234665622948e-03,
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
    res = es.nystrom_oracle(ctx)
    for theta in (0.348, 0.87):
        C, _ = qef.compute_C(basis, theta)
        x = theta * res.omegas
        dense = float(np.sum(np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x)))
                             - np.log(2.0)))
        assert abs(C - dense) <= 1e-4


def test_lambdas_at_zero_equal_state_spectrum(cache):
    assert np.array_equal(cache.lambdas(0.0), cache.mu)
    assert np.all(np.diff(cache.mu) <= 0.0)
    assert np.all(cache.mu >= 0.0)
    # discretized trace of the covariance operator is T * tr(P0)
    assert np.trace(cache.P) == pytest.approx(2.0, rel=1e-13)


def test_pk_trace_identity(cache):
    # sum of eigenvalues of sqrt(K) P sqrt(K) equals tr(P K) computed
    # from the rank-2r spectral form of K
    UPU = cache.modes.T @ cache.P @ cache.modes
    for theta in (0.0, 0.348, 0.87):
        scale = tanhc(theta * np.repeat(cache.omegas, 2)) - 1.0
        tr_pk = float(np.trace(cache.P)) + float(np.sum(scale * np.diag(UPU)))
        assert float(cache.lambdas(theta).sum()) == pytest.approx(tr_pk, abs=1e-10)


def test_lambdas_computed_once_per_theta(ctx, qkl348, state):
    # compute_qef and the Monte-Carlo supercritical check share one
    # spectrum per theta; the kept array cannot be changed through a report
    cache = qef.SpectralCache(ctx, qkl348, state.P0)
    rep = qef.compute_qef(ctx, qkl348, state.P0, cache=cache)
    assert cache.lambdas(0.348) is rep.lambdas
    assert not rep.lambdas.flags.writeable
    with pytest.raises(ValueError):
        rep.lambdas[0] = 0.0


def test_lambdas_rejects_negative_theta(cache):
    with pytest.raises(InvalidParameter):
        cache.lambdas(-0.5)


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
