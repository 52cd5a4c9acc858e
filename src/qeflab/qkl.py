"""Karhunen-Loeve coefficient functions and the surrogate covariance.

Each retained eigenfrequency omega_k carries a pair of real coefficient
functions h_k = [phi_k psi_k] and their running integrals
H_k(t) = sqrt(2) int_0^t h_k.  In the full (untruncated) basis the H_k
reproduce the Wiener covariance, sum_k H_k(s) H_k(t)^T = min(s, t) I_n;
after truncation the identity holds up to the Hilbert-Schmidt tail.

The surrogate-process covariance operator K = tanc(theta L) acts
spectrally: the orthonormal functions sqrt(2) phi_k, sqrt(2) psi_k are
eigenvectors with eigenvalue tanhc(theta omega_k) in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .eigensolver import SpectralBasis, stack_hk
from .errors import GridMismatch, InvalidParameter


def tanhc(z):
    """tanh(z) / z extended by continuity to 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.tanh(z[nz]) / z[nz]
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class QklBasis:
    """Coefficient functions of the truncated expansion at one theta.

    hk and Hk have shape (modes, N, n, 2) on the quadrature grid;
    tanc_values holds tanhc(theta omega_k) per retained mode (each value
    is a K eigenvalue of multiplicity 2).
    """

    basis: SpectralBasis
    theta: float
    hk: np.ndarray
    Hk: np.ndarray
    tanc_values: np.ndarray

    @property
    def grid(self):
        return self.basis.grid

    @property
    def omegas(self) -> np.ndarray:
        return self.basis.omegas


def build_qkl(basis: SpectralBasis, theta: float) -> QklBasis:
    """Assemble h_k, H_k and the K eigenvalues for a risk parameter."""
    if theta < 0.0:
        raise InvalidParameter(f"theta must be nonnegative, got {theta}")
    hk = stack_hk(basis)
    flat = np.moveaxis(hk, 0, 1)                       # (N, r, n, 2)
    Hk = np.sqrt(2.0) * np.moveaxis(quadrature.cumulative(basis.grid, flat), 1, 0)
    tanc = tanhc(theta * basis.omegas)
    return QklBasis(basis=basis, theta=float(theta), hk=hk, Hk=Hk,
                    tanc_values=np.atleast_1d(tanc))


def Hk_at(qkl: QklBasis, ts: np.ndarray) -> np.ndarray:
    """H_k evaluated at arbitrary times in [0, T], shape (len(ts), r, n, 2)."""
    flat = np.moveaxis(qkl.hk, 0, 1)
    return np.sqrt(2.0) * quadrature.cumulative_at(qkl.grid, flat, np.asarray(ts, dtype=float))


def surrogate_covariance(qkl: QklBasis, ts: np.ndarray | None = None) -> np.ndarray:
    """Covariance sum tanhc(theta omega_k) H_k(s) H_k(t)^T of the surrogate.

    With the tanhc weights forced to 1 this approximates the Wiener
    covariance min(s, t) I_n up to the truncation tail.  Evaluated at
    the grid nodes unless explicit times are given; returns shape
    (M, M, n, n).
    """
    if ts is None:
        H = np.moveaxis(qkl.Hk, 0, 1)                  # (N, r, n, 2)
    else:
        H = Hk_at(qkl, ts)
    return np.einsum('k,akip,bkjp->abij', qkl.tanc_values, H, H)


def apply_K(qkl: QklBasis, f: np.ndarray) -> np.ndarray:
    """Spectral action of K = tanc(theta L) from the retained modes.

    K f = sum_k tanhc(theta omega_k) * 2 h_k int h_k^T f dt.  The
    component of f orthogonal to the retained modes is annihilated, so
    the result is accurate up to the reported truncation tail.
    """
    f = np.asarray(f)
    grid = qkl.grid
    if f.shape != (grid.size, qkl.hk.shape[2]):
        raise GridMismatch(f"expected grid function of shape ({grid.size}, {qkl.hk.shape[2]}), "
                           f"got {f.shape}")
    proj = np.einsum('kaip,a,ai->kp', qkl.hk, grid.weights, f)
    return 2.0 * np.einsum('k,kaip,kp->ai', qkl.tanc_values, qkl.hk, proj)
