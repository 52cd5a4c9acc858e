"""The (basis, theta) handle that the closed form and Monte-Carlo take.

K = tanc(theta L) acts on each retained mode pair of the basis through
its eigenvalue tanhc(theta omega_k) alone; qef.SpectralCache.k_eigenvalues
is the one place that eigenvalue is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigensolver import SpectralBasis
from .errors import InvalidParameter


@dataclass(frozen=True, eq=False)
class QklBasis:
    """A spectral basis and the risk parameter theta to evaluate K at."""

    basis: SpectralBasis
    theta: float


def build_qkl(basis: SpectralBasis, theta: float) -> QklBasis:
    """Pair a basis with a risk parameter; refuses theta < 0."""
    if theta < 0.0:
        raise InvalidParameter(f"theta must be nonnegative, got {theta}")
    return QklBasis(basis=basis, theta=float(theta))
