"""Truncated number-basis identity checks for a single oscillator pair."""

import numpy as np
import pytest
from oracles import lhs_exponential_dense, omega_from_sigma
from scipy.linalg import expm

from qeflab import fock
from qeflab.errors import InvalidParameter, NonpositiveOmega

NOISE_FLOOR = 1e-13            # relative corner errors bottom out at machine level


@pytest.fixture(scope="module")
def pair20():
    return fock.build_pair(20)


@pytest.fixture(scope="module")
def pair40():
    return fock.build_pair(40)


def test_build_pair_ccr(pair40):
    assert pair40.ccr_residual <= 1e-12
    p4 = fock.build_pair(4)
    comm = p4.xi @ p4.eta - p4.eta @ p4.xi
    assert np.abs(comm[:3, :3] - 1j * np.eye(3)).max() <= 1e-14
    assert abs(np.trace(p4.xi)) == 0.0
    assert abs(np.trace(p4.eta)) == 0.0
    with pytest.raises(InvalidParameter):
        fock.build_pair(3)


def test_number_form_spectrum(pair40):
    Q = fock.number_form(pair40)
    off = Q - np.diag(np.diag(Q))
    assert np.abs(off).max() <= 1e-13
    lead = np.diag(Q).real[:39]
    assert np.abs(lead - (2.0 * np.arange(39) + 1.0)).max() <= 1e-12
    # the truncated edge level loses the aa^dagger contribution
    assert Q[39, 39].real == pytest.approx(39.0, abs=1e-12)


def test_lhs_exponential(pair20):
    assert np.abs(fock.lhs_exponential(pair20, 0.0) - np.eye(20)).max() == 0.0
    L = fock.lhs_exponential(pair20, 0.15)
    assert np.abs(L - L.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(L).min() > 0.0
    diag = np.diag(L).real[:10]
    assert np.abs(diag - np.exp(0.15 * (2.0 * np.arange(10) + 1.0))).max() <= 1e-12
    for pair, omega in ((pair20, 0.15), (fock.build_pair(44), 0.2)):
        ref = lhs_exponential_dense(pair, omega)
        assert np.abs(fock.lhs_exponential(pair, omega) - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(NonpositiveOmega):
        fock.lhs_exponential(pair20, -0.1)


def test_rhs_average_identity_limit(pair20):
    assert np.abs(fock.rhs_average(pair20, 0.0) - np.eye(20)).max() == 0.0
    with pytest.raises(InvalidParameter):
        fock.gaussian_average(pair20, 1.5)


def per_node_average(pair, sigma, quad_order):
    """Tensor Gauss-Hermite rule for f, one expm per node (a, b)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(quad_order)
    weights = weights / weights.sum()
    out = np.zeros((pair.N, pair.N), dtype=complex)
    for wa, a in zip(weights, nodes):
        for wb, b in zip(weights, nodes):
            out += wa * wb * expm(sigma * (a * pair.xi + b * pair.eta))
    return out


def test_rotated_rule_matches_per_node_rule():
    # 40 nodes per axis resolve the average at N = 12 to rounding
    pair = fock.build_pair(12)
    for sigma in (0.3, 0.9, 1.3):
        ref = per_node_average(pair, sigma, 40)
        got = fock.gaussian_average(pair, sigma)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # U(phi) xi U(phi)^dagger = cos(phi) xi + sin(phi) eta holds on the
    # whole truncated matrix, edge included
    levels = np.arange(pair.N)
    for phi in (0.4, 2.1, -1.3, np.pi):
        u = np.exp(1j * phi * levels)
        rotated = u[:, None] * pair.xi * u.conj()[None, :]
        target = np.cos(phi) * pair.xi + np.sin(phi) * pair.eta
        assert np.abs(rotated - target).max() <= 1e-14


def test_gaussian_average_is_diagonal_and_positive(pair40):
    # the phase average removes every off-diagonal entry exactly
    for sigma in (0.3, 0.9, 1.3):
        f = fock.gaussian_average(pair40, sigma)
        assert np.array_equal(f, np.diag(np.diag(f)))
        assert np.all(np.diag(f) > 0.0)


def test_corner_identity_pinned(pair40):
    assert fock.corner_error(pair40, 0.2) <= 1e-6


def test_bch_factorization(pair40):
    # e^{sigma(a xi + b eta)} = e^{sigma a (xi - (i/2) sigma b)} e^{sigma b eta}
    # holds on the corner because the commutator is central there
    k, sigma = 20, 0.5
    rng = np.random.default_rng(12)
    eye = np.eye(pair40.N)
    for _ in range(6):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = expm(sigma * (a * pair40.xi + b * pair40.eta))
        rhs = expm(sigma * a * (pair40.xi - 0.5j * sigma * b * eye)) \
            @ expm(sigma * b * pair40.eta)
        assert np.abs(lhs[:k, :k] - rhs[:k, :k]).max() <= 1e-8


def test_truncation_convergence_sweep():
    # relative corner errors shrink as N grows at fixed omega and grow
    # with omega at fixed N, down to the floating-point floor
    errs = {(N, om): fock.corner_error(fock.build_pair(N), om, relative=True)
            for N in (20, 40, 80) for om in (0.1, 0.2, 0.4)}
    for om in (0.1, 0.2, 0.4):
        seq = [errs[(N, om)] for N in (20, 40, 80)]
        for prev, nxt in zip(seq, seq[1:]):
            assert nxt <= prev or nxt <= NOISE_FLOOR
    for N in (20, 40, 80):
        seq = [errs[(N, om)] for om in (0.1, 0.2, 0.4)]
        for prev, nxt in zip(seq, seq[1:]):
            assert nxt >= prev or prev <= NOISE_FLOOR


def test_ode_residual_at_zero(pair20):
    rep = fock.verify_ode(pair20, np.array([0.0]), step=1e-3)
    assert rep.max_residual == 0.0


def test_ode_second_order_convergence(pair20):
    grid = np.array([0.3, 0.6])
    coarse = fock.verify_ode(pair20, grid, step=1e-3)
    fine = fock.verify_ode(pair20, grid, step=5e-4)
    ratios = coarse.residuals / fine.residuals
    # halving the step cuts each residual roughly fourfold
    assert np.all(ratios >= 3.0)
    assert np.all(ratios <= 8.0)
    assert ratios[0] == pytest.approx(4.0, abs=0.05)


def test_ode_domain_checks(pair20):
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([-0.1]))
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([1.414]))
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([0.3]), step=0.0)
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([]))


def test_omega_sigma_bijection():
    # omega values below tanh saturation, where 1e-12 is attainable
    for om in (0.0, 0.1, 0.4, 2.0, 3.0):
        s = fock.sigma_from_omega(om)
        assert 0.0 <= s < fock.SIGMA_SUP
        assert omega_from_sigma(s) == pytest.approx(om, abs=1e-12)
    for s in (0.0, 0.3, 0.9, 1.3):
        om = omega_from_sigma(s)
        assert fock.sigma_from_omega(om) == pytest.approx(s, abs=1e-12)
    with pytest.raises(NonpositiveOmega):
        fock.sigma_from_omega(-1.0)
    with pytest.raises(InvalidParameter):
        omega_from_sigma(np.sqrt(2.0))
