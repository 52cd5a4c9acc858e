"""The Karhunen-Loeve K eigenvalues at one theta.

Each retained eigenfrequency omega_k carries a pair of real coefficient
functions h_k = [phi_k psi_k], which the spectral basis stores weighted,
as its orthonormal mode matrix SpectralBasis.modes.  The covariance
operator K = tanc(theta L) of the surrogate process acts spectrally: the
orthonormal functions sqrt(2) phi_k, sqrt(2) psi_k are eigenvectors
with eigenvalue tanhc(theta omega_k) in (0, 1].  Only these eigenvalues
depend on theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import SpectralBasis
from .errors import InvalidParameter


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
    """The K eigenvalues of the truncated expansion at one theta.

    tanc_values holds tanhc(theta omega_k) per retained mode of basis
    (each value is a K eigenvalue of multiplicity 2); the modes are the
    basis's theta-independent mode matrix.
    """

    basis: SpectralBasis
    theta: float
    tanc_values: np.ndarray


def build_qkl(basis: SpectralBasis, theta: float) -> QklBasis:
    """Assemble the K eigenvalues for a risk parameter."""
    if theta < 0.0:
        raise InvalidParameter(f"theta must be nonnegative, got {theta}")
    tanc = tanhc(theta * basis.omegas)
    return QklBasis(basis=basis, theta=float(theta), tanc_values=np.atleast_1d(tanc))

