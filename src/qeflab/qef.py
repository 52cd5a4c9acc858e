"""Closed-form quadratic-exponential functional via a Fredholm determinant.

The functional factors as Xi = exp(-C) * prod_k (1 - theta lambda_k)^{-1/2}
where C = sum_k ln cosh(theta omega_k) over the eigenfrequencies and the
lambda_k are the eigenvalues of P K, with P the stationary Gaussian-state
covariance operator and K = tanc(theta L) the surrogate covariance.  The
product converges exactly when theta * r(PK) < 1.

P K is not symmetric, so the eigenvalues are taken from the isospectral
symmetric operator sqrt(K) P sqrt(K), which is positive semidefinite;
everything is discretized on the quadrature grid with weight
symmetrization.  K enters in its spectral form: the identity plus rank-2r
corrections from the retained modes, so the theta -> 0 limit reproduces
the spectrum of P exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidParameter, StateUnavailable
from .kernels import KernelContext, covariance_on_grid
from .model import clip_psd
from .qkl import QklBasis, tanhc

OVERFLOW_LOG = 700.0


@dataclass(frozen=True, eq=False)
class QefReport:
    """Fredholm-determinant evaluation of the functional at one theta.

    C includes the additive tail estimate tail_C for the unretained
    modes.  xi is None when theta * spectral_radius >= 1 (the product
    diverges); xi_classical is the K = I formula from the eigenvalues of
    the discretized P alone, None when theta * max mu >= 1.

    theta_critical is 1 / spectral_radius at this report's theta; since
    K itself depends on theta it is a local estimate, exact only at the
    self-consistent crossing located by find_critical_theta.
    """

    theta: float
    C: float
    tail_C: float
    lambdas: np.ndarray
    spectral_radius: float
    theta_critical: float
    xi: float | None
    xi_classical: float | None


def _path_factor(blocks: np.ndarray) -> np.ndarray:
    """Symmetric PSD root of the node-block covariance P(s_a - s_b), shape (N n, N n).

    Unlike V sqrt(L), the root V sqrt(L) V^T is unique and continuous in
    the matrix, so it does not depend on the basis eigh picks inside a
    degenerate eigenspace.  Rounding-level negative eigenvalues are clipped.
    """
    N, n = blocks.shape[0], blocks.shape[2]
    mat = blocks.transpose(0, 2, 1, 3).reshape(N * n, N * n)
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(clip_psd(evals, "stationary block covariance"))) @ vecs.T


class SpectralCache:
    """Grid discretizations shared by every theta evaluation.

    Holds the covariance kernel on the grid, its weight-symmetrized
    matrix and eigenvalues, and the orthonormal mode block used to apply
    sqrt(K) spectrally.  Nothing here depends on theta: of the qkl basis
    it reads only the grid, hk and omegas, which are the same for every
    theta, so one instance built from any theta's basis serves them all.
    The CLI builds one per run and passes it to every compute_qef call
    and to its one Monte-Carlo pass over all thetas.  path_factor, the
    node covariance root the Monte-Carlo N-route samples with, is built
    on first use only.  lambdas are computed once per theta and kept.
    """

    def __init__(self, ctx: KernelContext, qkl: QklBasis, P0: np.ndarray):
        if P0 is None:
            raise StateUnavailable("Gaussian state covariance P0 is required")
        grid = ctx.grid
        if not np.array_equal(qkl.grid.nodes, grid.nodes):
            raise GridMismatch("qkl basis and kernel context use different grids")
        n, N = ctx.n, grid.size
        sw = np.sqrt(grid.weights)
        self.cov_grid = covariance_on_grid(ctx, P0)
        cov = self.cov_grid * sw[:, None, None, None] * sw[None, :, None, None]
        P = cov.transpose(0, 2, 1, 3).reshape(N * n, N * n)
        self.P = 0.5 * (P + P.T)
        # columns sqrt(w) sqrt(2) phi_k, sqrt(w) sqrt(2) psi_k: the
        # orthonormal eigenvectors of the discretized K
        cols = np.sqrt(2.0) * qkl.hk * sw[None, :, None, None]
        self.modes = cols.transpose(1, 2, 0, 3).reshape(N * n, -1)
        self.omegas = qkl.omegas
        self.mu = np.linalg.eigvalsh(self.P)[::-1]
        clip_psd(self.mu, "covariance matrix")
        self._lambdas = {}

    @cached_property
    def path_factor(self) -> np.ndarray:
        """Symmetric PSD root of the node covariance blocks, shape (N n, N n)."""
        return _path_factor(self.cov_grid)

    def lambdas(self, theta: float) -> np.ndarray:
        """Eigenvalues of sqrt(K) P sqrt(K) at one theta, descending, read-only."""
        if theta < 0.0:
            raise InvalidParameter(f"theta must be nonnegative, got {theta}")
        if theta in self._lambdas:
            return self._lambdas[theta]
        scale = np.sqrt(tanhc(theta * np.repeat(self.omegas, 2))) - 1.0
        UP = self.modes.T @ self.P
        X = self.P + self.modes @ (scale[:, None] * UP)
        X = X + (UP.T * scale[None, :]) @ self.modes.T \
            + self.modes @ ((scale[:, None] * (UP @ self.modes)) * scale[None, :]) @ self.modes.T
        X = 0.5 * (X + X.T)
        evals = clip_psd(np.linalg.eigvalsh(X)[::-1], "sqrt(K) P sqrt(K)")
        evals.flags.writeable = False
        self._lambdas[theta] = evals
        return evals


def compute_C(basis, theta: float) -> tuple[float, float]:
    """Partial sum of ln cosh(theta omega_k) plus its tail estimate.

    Returns (C, tail_C) where C already includes tail_C.  The tail uses
    ln cosh(x) <= x^2 / 2 on the unretained modes, whose squared
    frequencies sum to half the Hilbert-Schmidt tail.
    """
    if theta < 0.0:
        raise InvalidParameter(f"theta must be nonnegative, got {theta}")
    x = theta * basis.omegas
    # ln cosh(x) = |x| + log1p(e^{-2|x|}) - ln 2, stable for large x
    partial = float(np.sum(np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - np.log(2.0)))
    tail = 0.5 * (theta * theta) * max(basis.hs_total - basis.hs_captured, 0.0) / 2.0
    return partial + tail, tail


def find_critical_theta(cache: SpectralCache, theta_max: float = 1e9,
                        rtol: float = 1e-9) -> float:
    """Crossing of g(theta) = theta * r(P K(theta)) = 1 by bisection.

    g is nondecreasing (theta K(theta) grows in operator order, and
    conjugation by P^{1/2} preserves that), so the crossing is the
    supremum of risk parameters with a convergent determinant: evaluating
    just below it stays finite, just above it diverges.  Some systems
    never cross (g saturates below 1); these return infinity.
    """
    sr0 = float(cache.lambdas(0.0)[0])
    if sr0 <= 0.0:
        return np.inf
    lo = 0.0
    hi = 1.0 / sr0
    while hi * float(cache.lambdas(hi)[0]) < 1.0:
        lo = hi
        hi *= 2.0
        if hi > theta_max:
            return np.inf
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mid * float(cache.lambdas(mid)[0]) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_product(theta: float, evals: np.ndarray) -> float | None:
    """log of prod (1 - theta e)^{-1/2}, or None when divergent."""
    if evals.size and theta * evals[0] >= 1.0:
        return None
    return -0.5 * float(np.sum(np.log1p(-theta * evals)))


def compute_qef(ctx: KernelContext, qkl: QklBasis, P0: np.ndarray,
                cache: SpectralCache | None = None) -> QefReport:
    """Evaluate the closed-form functional and its ingredients at qkl.theta.

    Never raises for a supercritical theta: the report carries xi = None
    and the critical value so callers can rescale.
    """
    if cache is None:
        cache = SpectralCache(ctx, qkl, P0)
    th = qkl.theta
    lambdas = cache.lambdas(th)
    sr = float(lambdas[0]) if lambdas.size else 0.0
    th_crit = 1.0 / sr if sr > 0.0 else np.inf
    C, tail_C = compute_C(qkl.basis, th)

    log_det = _log_product(th, lambdas)
    xi = None if log_det is None else float(np.exp(min(-C + log_det, OVERFLOW_LOG)))
    log_cl = _log_product(th, cache.mu)
    xi_classical = None if log_cl is None else float(np.exp(min(log_cl, OVERFLOW_LOG)))

    return QefReport(theta=th, C=C, tail_C=tail_C, lambdas=lambdas,
                     spectral_radius=sr, theta_critical=th_crit,
                     xi=xi, xi_classical=xi_classical)
