"""Truncated number-basis identity checks for a single oscillator pair."""

import numpy as np
import pytest
from oracles import ladder_pair, lhs_exponential_dense, omega_from_sigma, relative_corner_error
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


def test_build_pair_ccr():
    # the reference ladder pair that build_pair's rule stands for
    xi, eta = ladder_pair(40)
    comm = xi @ eta - eta @ xi
    assert np.abs(comm[:39, :39] - 1j * np.eye(39)).max() <= 1e-12
    xi, eta = ladder_pair(4)
    comm = xi @ eta - eta @ xi
    assert np.abs(comm[:3, :3] - 1j * np.eye(3)).max() <= 1e-14
    assert abs(np.trace(xi)) == 0.0
    assert abs(np.trace(eta)) == 0.0
    with pytest.raises(InvalidParameter):
        fock.build_pair(3)


def hermite_signs(x, N):
    """Signs of the orthonormal Hermite polynomials p_0, ..., p_{N-1} at the nodes x.

    The eigenvector of xi's Jacobi matrix for node x is (p_j(x))_j up to
    scale, so these are the signs of V's entries with V_0l > 0.
    """
    p = np.zeros((N, x.size))
    p[0], p[1] = 1.0, np.sqrt(2.0) * x
    for j in range(1, N - 1):
        p[j + 1] = (x * p[j] - np.sqrt(j / 2.0) * p[j - 1]) / np.sqrt((j + 1) / 2.0)
    return np.sign(p)


@pytest.mark.parametrize("N", [4, 20, 40])
def test_build_pair_diagonalizes_ladder_xi(N):
    # V diag(lam) V^T, with V's signs from the Hermite recurrence and its
    # magnitudes from xi_weights, is the reference ladder xi
    pair = fock.build_pair(N)
    V = hermite_signs(pair.xi_eigvals, N) * np.sqrt(pair.xi_weights)
    xi = ladder_pair(N)[0]
    assert np.abs(V @ np.diag(pair.xi_eigvals) @ V.T - xi).max() <= 1e-13
    # lam and V_0l^2 sqrt(pi) are the N-point Gauss-Hermite rule
    nodes, weights = np.polynomial.hermite.hermgauss(N)
    assert np.abs(pair.xi_eigvals - nodes).max() <= 1e-13
    assert np.abs(pair.xi_weights[0] * np.sqrt(np.pi) - weights).max() <= 1e-13


def test_number_form_spectrum(pair40):
    q = fock.number_form(pair40)
    xi, eta = ladder_pair(40)
    dense = xi @ xi + eta @ eta
    # the closed-form diagonal is the dense product's, whose off-diagonal
    # cancels to rounding
    assert q.shape == (40,)
    assert np.abs(np.diag(q) - dense).max() <= 1e-13
    assert np.array_equal(q[:39], 2.0 * np.arange(39) + 1.0)
    # the truncated edge level loses the aa^dagger contribution
    assert q[39] == 39.0


def test_lhs_exponential(pair20):
    assert np.array_equal(fock.lhs_exponential(pair20, 0.0), np.ones(20))
    diag = fock.lhs_exponential(pair20, 0.15)
    assert diag.shape == (20,)
    assert diag.min() > 0.0
    assert np.abs(diag[:10] - np.exp(0.15 * (2.0 * np.arange(10) + 1.0))).max() <= 1e-12
    for pair, omega in ((pair20, 0.15), (fock.build_pair(44), 0.2)):
        ref = lhs_exponential_dense(pair, omega)
        got = np.diag(fock.lhs_exponential(pair, omega))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(NonpositiveOmega):
        fock.lhs_exponential(pair20, -0.1)


def test_rhs_average_identity_limit(pair20):
    assert np.array_equal(fock.rhs_average(pair20, 0.0), np.ones(20))
    with pytest.raises(InvalidParameter):
        fock.gaussian_average(pair20, 1.5)


def per_node_average(pair, sigma, quad_order):
    """Tensor Gauss-Hermite rule for f, one expm per node (a, b)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(quad_order)
    weights = weights / weights.sum()
    xi, eta = ladder_pair(pair.N)
    out = np.zeros((pair.N, pair.N), dtype=complex)
    for wa, a in zip(weights, nodes):
        for wb, b in zip(weights, nodes):
            out += wa * wb * expm(sigma * (a * xi + b * eta))
    return out


def test_rotated_rule_matches_per_node_rule():
    # 40 nodes per axis resolve the average at N = 12 to rounding
    pair = fock.build_pair(12)
    for sigma in (0.3, 0.9, 1.3):
        # the per-node rule's off-diagonal vanishes to rounding
        ref = per_node_average(pair, sigma, 40)
        got = np.diag(fock.gaussian_average(pair, sigma))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # U(phi) xi U(phi)^dagger = cos(phi) xi + sin(phi) eta holds on the
    # whole truncated matrix, edge included
    xi, eta = ladder_pair(pair.N)
    levels = np.arange(pair.N)
    for phi in (0.4, 2.1, -1.3, np.pi):
        u = np.exp(1j * phi * levels)
        rotated = u[:, None] * xi * u.conj()[None, :]
        target = np.cos(phi) * xi + np.sin(phi) * eta
        assert np.abs(rotated - target).max() <= 1e-14


def test_gaussian_average_is_diagonal_and_positive(pair40):
    # f is diagonal (test_rotated_rule_matches_per_node_rule compares the
    # full matrix), and each diagonal entry averages m(c) = E[cosh(c r)] >= 1
    for sigma in (0.3, 0.9, 1.3):
        f = fock.gaussian_average(pair40, sigma)
        assert f.shape == (40,)
        assert np.all(f >= 1.0)


def test_corner_identity_pinned(pair40):
    assert fock.corner_error(pair40, 0.2) <= 1e-6


def test_bch_factorization():
    # e^{sigma(a xi + b eta)} = e^{sigma a (xi - (i/2) sigma b)} e^{sigma b eta}
    # holds on the corner because the commutator is central there
    k, sigma = 20, 0.5
    rng = np.random.default_rng(12)
    xi, eta = ladder_pair(40)
    eye = np.eye(40)
    for _ in range(6):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = expm(sigma * (a * xi + b * eta))
        rhs = expm(sigma * a * (xi - 0.5j * sigma * b * eye)) @ expm(sigma * b * eta)
        assert np.abs(lhs[:k, :k] - rhs[:k, :k]).max() <= 1e-8


def test_truncation_convergence_sweep():
    # relative corner errors shrink as N grows at fixed omega and grow
    # with omega at fixed N, down to the floating-point floor
    errs = {(N, om): relative_corner_error(fock.build_pair(N), om)
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
    assert fock.verify_ode(pair20, np.array([0.0]), step=1e-3) == 0.0


def ode_gap(pair, sigma, coef):
    """Max corner-block gap between f' and (sigma/(1 - sigma^4/4)) (Q + coef sigma^2) f.

    coef = 1/2 is the ODE; any other value plants a defect in it.
    """
    k = pair.N // 2
    f, slope = fock._average_diagonals(pair, sigma)
    q = fock.number_form(pair)[:k]
    gain = sigma / (1.0 - 0.25 * sigma ** 4)
    return float(np.abs(slope[:k] - gain * (q + coef * sigma ** 2) * f[:k]).max())


@pytest.mark.parametrize("N", [32, 44])
def test_ode_residual_separates_planted_defect(N):
    # the exact derivative leaves rounding and truncation only; sigma^2/3
    # in place of sigma^2/2 on the right side is off by orders more
    pair = fock.build_pair(N)
    for omega in (0.1, 0.15, 0.2):
        sigma = fock.sigma_from_omega(omega)
        scale = np.exp(omega * (N - 1))
        residual = fock.verify_ode(pair, [sigma])
        assert residual == ode_gap(pair, sigma, 0.5)
        assert residual <= 1e-6 * scale
        assert ode_gap(pair, sigma, 1.0 / 3.0) >= 1e-2 * scale
        # the closed-form derivative is the limit of difference quotients
        h = 1e-5
        diff = (fock.gaussian_average(pair, sigma + h)
                - fock.gaussian_average(pair, sigma - h)) / (2.0 * h)
        slope = fock._average_diagonals(pair, sigma)[1]
        assert np.abs(diff - slope).max() <= 1e-6 * np.abs(slope).max()


def test_ode_domain_checks(pair20):
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([-0.1]))
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([fock.SIGMA_SUP]))
    with pytest.raises(InvalidParameter):
        fock.verify_ode(pair20, np.array([]))
    # just below sqrt(2) the residual exists: f and f' are evaluated at sigma only
    assert np.isfinite(fock.verify_ode(pair20, np.array([1.414])))


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
