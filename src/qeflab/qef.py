"""Closed-form quadratic-exponential functional via a Fredholm determinant.

The functional factors as Xi = exp(-C) * prod_k (1 - theta lambda_k)^{-1/2}
where C = sum_k ln cosh(theta omega_k) over the eigenfrequencies and the
lambda_k are the eigenvalues of P K, with P the stationary Gaussian-state
covariance operator and K = tanc(theta L) the surrogate covariance.  The
product converges exactly when theta * r(PK) < 1.

P K is not symmetric; it has the spectrum of the positive semidefinite
operator sqrt(K) P sqrt(K).  Everything is discretized on the quadrature
grid with weight symmetrization, and K enters in its spectral form: the
identity plus rank-2r corrections along the retained modes U, the
spectral basis's mode matrix.  So SpectralCache factors
P = V diag(mu) V^T once per run, one eigh of size N n, and keeps
W = diag(sqrt(mu)) V^T U, of shape (N n, 2r), and the Monte-Carlo
N-route's P^{1/2} U = V W.  Each theta then needs two
numbers and no factorization of size N n:

- ln det(I - theta sqrt(K) P sqrt(K)) = sum_k ln(1 - theta lambda_k),
  from the determinant lemma on the well-conditioned tail of
  diag(1 - theta mu) and a small Schur complement on its head, in
  O(N n r^2);
- the spectral radius r(PK), from a Lanczos run with full
  reorthogonalization, O(N n (r + k)) for step k; the runs take 8 to 24
  steps on the README and squeezed oscillators and on random n = 4
  systems.

The log-determinant's Cholesky verdict is the one supercriticality test:
it makes a report's xi None, and find_critical_theta bisects on it.  The
Lanczos radius serves only the reported spectral_radius and the
Monte-Carlo variance flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidParameter, StateUnavailable
from .kernels import KernelContext, covariance_on_grid
from .model import clip_psd
from .qkl import QklBasis

OVERFLOW_LOG = 700.0
LANCZOS_RTOL = 1e-14           # residual of the top Ritz pair, relative to its value
CRITICAL_THETA_MAX = 1e9       # theta past which g(theta) = 1 counts as never crossed
CRITICAL_RTOL = 1e-9           # relative width at which the bisection stops


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
class QefReport:
    """Fredholm-determinant evaluation of the functional at one theta.

    C includes the additive tail estimate tail_C for the unretained
    modes.  xi is None when I - theta sqrt(K) P sqrt(K) is not positive
    definite, i.e. theta * spectral_radius >= 1 (the product diverges);
    xi_classical is the K = I formula from the eigenvalues of
    the discretized P alone, None when theta * max mu >= 1.

    theta_critical is 1 / spectral_radius at this report's theta; since
    K itself depends on theta it is a local estimate, exact only at the
    self-consistent crossing located by find_critical_theta.
    """

    theta: float
    C: float
    tail_C: float
    spectral_radius: float
    theta_critical: float
    xi: float | None
    xi_classical: float | None


class SpectralCache:
    """Grid discretizations shared by every theta evaluation.

    Keeps the context, the state covariance P0 and the spectral basis it
    was built from, the weight-symmetrized covariance matrix P and its one
    eigendecomposition P = V diag(mu) V^T (mu descending).  K acts along
    the basis's orthonormal mode matrix U = basis.modes.  Only K's
    eigenvalue per column of U, k_eigenvalues(theta), depends on theta,
    so one instance built from any theta's qkl basis serves every theta
    of that basis.  The CLI builds one per run, passes it to every compute_qef
    call, and hands it with those reports to its one Monte-Carlo pass
    over all thetas.

    That eigh is the run's one factorization of size N n.  In its basis
    sqrt(K) P sqrt(K) has the spectrum of diag(mu) + W diag(t - 1) W^T,
    with W = diag(sqrt(mu)) V^T U of shape (N n, 2r) and t =
    k_eigenvalues(theta), so log_det costs O(N n r^2) per theta and
    lambdas a short Lanczos run per call.  The same eigh gives
    root_modes = V W = P^{1/2} U with the symmetric root, which the
    Monte-Carlo N-route weights its draws with; V itself is not kept.
    """

    def __init__(self, ctx: KernelContext, qkl: QklBasis, P0: np.ndarray):
        if P0 is None:
            raise StateUnavailable("Gaussian state covariance P0 is required")
        if not np.array_equal(qkl.basis.grid.nodes, ctx.grid.nodes):
            raise GridMismatch("qkl basis and kernel context use different grids")
        self.ctx, self.P0, self.basis = ctx, P0, qkl.basis
        P = covariance_on_grid(ctx, P0)
        self.P = 0.5 * (P + P.T)
        evals, V = np.linalg.eigh(self.P)
        self.mu = clip_psd(evals[::-1], "covariance matrix")
        V = V[:, ::-1]
        # the basis's mode columns are the orthonormal eigenvectors of the discretized K
        self.W = np.sqrt(self.mu)[:, None] * (V.T @ self.basis.modes)
        # V diag(sqrt(mu)) V^T is unique and continuous in P, whatever basis
        # eigh picks in a degenerate eigenspace, and so is its product with U
        self.root_modes = V @ self.W
        # one fixed Lanczos start for every theta, so each result depends on
        # theta alone: sin(1), sin(2), ... has no structure in V's
        # coordinates, and unlike a numpy.random draw it costs no import
        # (about 20 ms) on the qef path
        self._start = np.sin(np.arange(1.0, self.mu.size + 1.0))

    def k_eigenvalues(self, theta: float) -> np.ndarray:
        """K's eigenvalue tanhc(theta omega_k) per column of basis.modes; refuses theta < 0."""
        if theta < 0.0:
            raise InvalidParameter(f"theta must be nonnegative, got {theta}")
        return np.repeat(tanhc(theta * self.basis.omegas), 2)

    def lambdas(self, theta: float) -> np.ndarray:
        """Leading eigenvalues of sqrt(K) P sqrt(K) at one theta, descending.

        These are the Ritz values of a Lanczos run stopped once the
        largest has converged: [0] is the spectral radius to rounding,
        and each later entry [j] is a lower bound on the (j+1)-th
        largest eigenvalue.  Each call is a new Lanczos run.
        """
        tm1 = self.k_eigenvalues(theta) - 1.0
        W, mu = self.W, self.mu
        return _lanczos(lambda x: mu * x + W @ (tm1 * (x @ W)), self._start)

    def log_det(self, theta: float) -> float | None:
        """ln det(I - theta sqrt(K) P sqrt(K)), or None when theta r(P K) >= 1.

        With a = 1 - theta mu and E = theta diag(1 - t) >= 0 the matrix is
        diag(a) + W E W^T.  Its tail (a >= 1/2) is diagonal and well
        conditioned and enters through the determinant lemma; the few head
        entries (a < 1/2) through a small Schur complement, whose Cholesky
        fails exactly when the matrix is not positive definite.  Applying
        the lemma to the whole matrix would cancel catastrophically once
        theta passes 1 / mu[0].
        """
        se = np.sqrt(theta * (1.0 - self.k_eigenvalues(theta)))
        a = 1.0 - theta * self.mu
        h = int(np.count_nonzero(a < 0.5))     # mu descends, so the head is a prefix
        Wh, Wt = self.W[:h], self.W[h:]
        # I + E^1/2 G E^1/2 with G = W_t^T diag(1/a_t) W_t: at least I
        L = np.linalg.cholesky(np.eye(se.size) + se[:, None] * (Wt.T @ (Wt / a[h:, None])) * se)
        out = float(np.sum(np.log1p(-theta * self.mu[h:]))) + 2.0 * float(np.sum(np.log(np.diag(L))))
        if h:
            # S = diag(a_h) + W_h E (I + G E)^{-1} W_h^T = diag(a_h) + Y^T Y
            Y = np.linalg.solve(L, se[:, None] * Wh.T)
            try:
                Ls = np.linalg.cholesky(np.diag(a[:h]) + Y.T @ Y)
            except np.linalg.LinAlgError:
                return None
            out += 2.0 * float(np.sum(np.log(np.diag(Ls))))
        return out


def _lanczos(apply, start: np.ndarray) -> np.ndarray:
    """Ritz values, descending, of a symmetric operator from a Lanczos run.

    Full reorthogonalization (classical Gram-Schmidt, applied twice)
    keeps the basis orthonormal, so no spurious copies appear.  The run
    stops once the residual norm of the largest Ritz pair, beta_k |s_k|,
    is at most LANCZOS_RTOL times its value, which includes an invariant
    Krylov space (beta_k = 0).  The largest Ritz value is then within
    that residual of an eigenvalue: of the largest one unless the start
    is orthogonal to its eigenspace to working precision.
    """
    size = start.size
    Q = np.empty((size + 1, size))
    T = np.zeros((size, size))             # tridiagonal; eigh reads its lower triangle
    Q[0] = start / np.linalg.norm(start)
    for k in range(size):
        w = apply(Q[k])
        T[k, k] = Q[k] @ w
        basis = Q[:k + 1]
        w -= (w @ basis.T) @ basis
        w -= (w @ basis.T) @ basis
        b = float(np.linalg.norm(w))
        ritz, S = np.linalg.eigh(T[:k + 1, :k + 1])
        if b * abs(S[-1, -1]) <= LANCZOS_RTOL * abs(ritz[-1]):
            break
        T[k + 1, k] = b
        Q[k + 1] = w / b
    return ritz[::-1]


def compute_C(basis, theta: float) -> tuple[float, float]:
    """Partial sum of ln cosh(theta omega_k) plus its tail estimate.

    Returns (C, tail_C) where C already includes tail_C.  The tail uses
    ln cosh(x) <= x^2 / 2 on the unretained modes, whose squared
    frequencies sum to half the Hilbert-Schmidt tail.  Raises
    InvalidParameter when C overflows (theta^2 does past about 1e154).
    """
    if theta < 0.0:
        raise InvalidParameter(f"theta must be nonnegative, got {theta}")
    x = theta * basis.omegas
    # ln cosh(x) = |x| + log1p(e^{-2|x|}) - ln 2, stable for large x
    partial = float(np.sum(np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - np.log(2.0)))
    tail = 0.5 * (theta * theta) * max(basis.hs_total - basis.hs_captured, 0.0) / 2.0
    if not np.isfinite(partial + tail):
        raise InvalidParameter(
            f"qef.theta_list value {theta} gives a non-finite C: ln cosh(theta omega_k) "
            "and its tail estimate leave the double range")
    return partial + tail, tail


def find_critical_theta(cache: SpectralCache) -> float:
    """Crossing of g(theta) = theta * r(P K(theta)) = 1, bisected on log_det's verdict.

    g is nondecreasing (theta K(theta) grows in operator order, and
    conjugation by P^{1/2} preserves that), so log_det is finite exactly
    below the crossing: it is the boundary between compute_qef's finite
    and diverged reports, found with no Lanczos run.  Doubling starts at
    1 / mu[0], the crossing for K = I; the bisection stops at
    CRITICAL_RTOL relative width.  Some systems never cross (g saturates
    below 1); past CRITICAL_THETA_MAX these return infinity.
    """
    if cache.mu[0] <= 0.0:
        return np.inf
    lo = 0.0
    hi = 1.0 / float(cache.mu[0])
    while cache.log_det(hi) is not None:
        lo = hi
        hi *= 2.0
        if hi > CRITICAL_THETA_MAX:
            return np.inf
    while hi - lo > CRITICAL_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if cache.log_det(mid) is not None:
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
    and the critical value so callers can rescale.  A cache built from
    another spectral basis is refused: C would come from one basis and
    the determinant from the other.  So is one built from another
    context or another state covariance, which the cache, not ctx and
    P0, would otherwise decide the determinant by.
    """
    if cache is None:
        cache = SpectralCache(ctx, qkl, P0)
    elif qkl.basis is not cache.basis:
        raise GridMismatch("qkl basis is not the one the spectral cache was built from")
    elif ctx is not cache.ctx:
        raise GridMismatch("kernel context is not the one the spectral cache was built from")
    elif not (P0 is cache.P0 or np.array_equal(P0, cache.P0)):
        raise InvalidParameter("P0 is not the state covariance the spectral cache was built from")
    th = qkl.theta
    sr = float(cache.lambdas(th)[0])
    th_crit = 1.0 / sr if sr > 0.0 else np.inf
    C, tail_C = compute_C(qkl.basis, th)

    log_det = cache.log_det(th)
    xi = None if log_det is None else float(np.exp(min(-C - 0.5 * log_det, OVERFLOW_LOG)))
    log_cl = _log_product(th, cache.mu)
    xi_classical = None if log_cl is None else float(np.exp(min(log_cl, OVERFLOW_LOG)))

    return QefReport(theta=th, C=C, tail_C=tail_C, spectral_radius=sr,
                     theta_critical=th_crit, xi=xi, xi_classical=xi_classical)
