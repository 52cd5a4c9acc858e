"""Coefficient functions, tanhc weights, and the surrogate covariance."""

from dataclasses import fields

import numpy as np
import pytest
from oracles import apply_K, inner, norm, nystrom_apply, pair_function, surrogate_covariance

from qeflab import qkl
from qeflab.errors import GridMismatch, InvalidParameter
from qeflab.qef import tanhc


def test_tanhc_values():
    assert tanhc(0.0) == 1.0
    assert tanhc(1.0) == pytest.approx(0.7615941559557649, rel=1e-15)
    assert tanhc(-1.0) == tanhc(1.0)
    z = np.array([0.0, 0.5, 2.0])
    out = tanhc(z)
    assert out.shape == (3,)
    assert out[0] == 1.0
    assert np.all(np.diff(out) < 0)


def test_build_qkl_shapes_and_weights(basis):
    q = qkl.build_qkl(basis, 0.348)
    r, N = basis.omegas.size, basis.grid.size
    assert q.basis is basis and q.theta == 0.348
    assert [f.name for f in fields(q)] == ["basis", "theta"]
    assert basis.modes.shape == (N * 2, 2 * r)
    weights = tanhc(q.theta * basis.omegas)
    assert weights.shape == (r,)
    assert np.all(weights > 0.0)
    assert np.all(weights <= 1.0)


def test_build_qkl_rejects_negative_theta(basis):
    with pytest.raises(InvalidParameter):
        qkl.build_qkl(basis, -0.1)


def test_mode_columns_are_weighted_pairs(ctx, basis):
    # columns 2k and 2k + 1 of the node-major mode matrix are pair k's
    # sqrt(2 w) phi_k and sqrt(2 w) psi_k: f_k = phi_k + i psi_k has pair
    # k's omega and bvp_residual, and the columns are orthonormal
    assert basis.bvp_residual.shape == basis.boundary_residual.shape == basis.omegas.shape
    for k, omega in enumerate(basis.omegas):
        f = pair_function(basis.grid, basis.modes, k)
        resid = nystrom_apply(ctx, f) - 1j * omega * f
        assert norm(basis.grid, resid) == pytest.approx(basis.bvp_residual[k], rel=1e-12)
    gram = basis.modes.T @ basis.modes
    assert np.max(np.abs(gram - np.eye(2 * basis.omegas.size))) <= 1e-12


def test_apply_K_eigen_action(basis):
    theta = 0.87
    q = qkl.build_qkl(basis, theta)
    for k, omega in enumerate(basis.omegas):
        lam = tanhc(theta * omega)
        f = pair_function(basis.grid, basis.modes, k)
        for part in (f.real, f.imag):
            out = apply_K(q, part)
            assert np.max(np.abs(out - lam * part)) <= 1e-12


def test_apply_K_contraction(basis):
    # K = tanc(theta L) has spectrum in (0, 1]; Rayleigh quotients stay below 1
    q = qkl.build_qkl(basis, 0.87)
    rng = np.random.default_rng(7)
    grid = basis.grid
    for _ in range(20):
        f = rng.standard_normal((grid.size, 2))
        kf = apply_K(q, f)
        num = inner(grid, f, kf)
        den = inner(grid, f, f)
        assert num <= den * (1.0 + 1e-12)
        assert num >= 0.0


def test_apply_K_annihilates_orthogonal_complement(basis):
    q = qkl.build_qkl(basis, 0.348)
    rng = np.random.default_rng(11)
    grid = basis.grid
    f = rng.standard_normal((grid.size, 2))
    for k in range(basis.omegas.size):
        g = pair_function(grid, basis.modes, k)
        for part in (g.real, g.imag):
            f = f - 2.0 * inner(grid, part, f) * part
    out = apply_K(q, f)
    assert norm(grid, out) <= 1e-12 * norm(grid, f)


def test_apply_K_shape_check(basis):
    q = qkl.build_qkl(basis, 0.348)
    with pytest.raises(GridMismatch):
        apply_K(q, np.zeros((basis.grid.size, 3)))
    with pytest.raises(GridMismatch):
        apply_K(q, np.zeros((basis.grid.size + 1, 2)))


def test_surrogate_covariance_wiener_limit(basis):
    # theta = 0 forces all weights to 1, approximating min(s, t) I_2
    q = qkl.build_qkl(basis, 0.0)
    ts = np.array([0.25, 0.5, 0.75, 1.0])
    cov = surrogate_covariance(q, ts)
    assert cov.shape == (4, 4, 2, 2)
    target = np.einsum('ab,ij->abij', np.minimum.outer(ts, ts), np.eye(2))
    # pointwise error is bounded by the kernel-level truncation tail
    tail = basis.hs_total - basis.hs_captured
    assert np.max(np.abs(cov - target)) <= 10.0 * tail
    # symmetry cov(s, t) = cov(t, s)^T
    assert np.max(np.abs(cov - np.einsum('abij->baji', cov))) <= 1e-14


def test_surrogate_covariance_grid_default(basis):
    q = qkl.build_qkl(basis, 0.348)
    cov_default = surrogate_covariance(q)
    cov_explicit = surrogate_covariance(q, basis.grid.nodes)
    assert np.max(np.abs(cov_default - cov_explicit)) <= 1e-13


def test_surrogate_covariance_shrinks_with_theta(basis):
    # larger theta damps every mode weight, so the covariance trace drops
    ts = basis.grid.nodes
    tr0 = np.trace(surrogate_covariance(qkl.build_qkl(basis, 0.0), ts),
                   axis1=2, axis2=3)
    tr1 = np.trace(surrogate_covariance(qkl.build_qkl(basis, 2.0), ts),
                   axis1=2, axis2=3)
    d = np.diagonal(tr0 - tr1)
    assert np.all(d >= -1e-14)
    assert np.max(d) > 0.0
