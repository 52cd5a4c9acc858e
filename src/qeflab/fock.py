"""Truncated number-basis check of the position-momentum pair identity.

A single oscillator pair (xi, eta) on the N-dimensional number basis
satisfies e^{omega (xi^2 + eta^2)} = f(sigma) / cosh(omega) with
sigma = sqrt(2 tanh(omega)) and f the average of e^{sigma (a xi + b eta)}
over independent standard normal a, b.  Truncating the ladder operators
breaks the algebra near the basis edge, so every comparison here lives
on a leading corner block that the edge error has not reached.

The average is a tensor Gauss-Hermite rule.  Writing a node as
(a, b) = r (cos phi, sin phi), the exponent a xi + b eta equals
r U(phi) xi U(phi)^dagger with the diagonal U(phi) = e^{i phi n}, exactly
under truncation, so one eigendecomposition of xi serves every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonpositiveOmega, QuadratureUnderresolved

SIGMA_SUP = np.sqrt(2.0)       # f(sigma) exists only for sigma < sqrt(2)
LOG_MAX = float(np.log(np.finfo(float).max))   # largest x with a finite e^x


@dataclass(frozen=True, eq=False)
class TruncatedPair:
    """Position and momentum matrices in the truncated number basis.

    The commutator [xi, eta] equals iI exactly on the leading (N-1)
    corner; only the last diagonal entry is corrupted by truncation.
    ccr_residual is the max-abs deviation on that corner.
    """

    N: int
    xi: np.ndarray
    eta: np.ndarray
    ccr_residual: float


@dataclass(frozen=True, eq=False)
class OdeReport:
    """Central-difference residuals of the generating-function ODE.

    residuals[i] is the max-abs corner-block mismatch between the
    finite-difference derivative of f at sigmas[i] and
    (sigma / (1 - sigma^4/4)) (xi^2 + eta^2 + sigma^2/2) f.
    """

    sigmas: np.ndarray
    residuals: np.ndarray
    max_residual: float
    step: float


def build_pair(N: int) -> TruncatedPair:
    """Standard ladder construction of (xi, eta) on N Fock levels."""
    if N < 4:
        raise InvalidParameter(f"fock.N must be at least 4, got {N}")
    a = np.diag(np.sqrt(np.arange(1, N)), k=1).astype(complex)
    xi = (a + a.conj().T) / np.sqrt(2.0)
    eta = (a - a.conj().T) / (1j * np.sqrt(2.0))
    comm = xi @ eta - eta @ xi
    dev = comm[:N - 1, :N - 1] - 1j * np.eye(N - 1)
    return TruncatedPair(N=N, xi=xi, eta=eta,
                         ccr_residual=float(np.abs(dev).max()))


def _herm_expm(mats: np.ndarray) -> np.ndarray:
    """exp of a stack of Hermitian matrices by eigendecomposition."""
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2).conj())
    evals, vecs = np.linalg.eigh(sym)
    return (vecs * np.exp(evals)[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()


def number_form(pair: TruncatedPair) -> np.ndarray:
    """The quadratic xi^2 + eta^2; equals 2*diag(0..N-1) + I off the edge."""
    return pair.xi @ pair.xi + pair.eta @ pair.eta


def lhs_exponential(pair: TruncatedPair, omega: float) -> np.ndarray:
    """e^{omega (xi^2 + eta^2)} through a Hermitian eigendecomposition.

    The largest eigenvalue of xi^2 + eta^2 is 2N - 3, so an omega (2N - 3)
    beyond the double exponent range is refused instead of overflowing.
    """
    if omega < 0.0:
        raise NonpositiveOmega(f"need omega >= 0, got {omega}")
    if omega * (2 * pair.N - 3) > LOG_MAX:
        raise InvalidParameter(
            f"fock.N = {pair.N} and fock.omega_list value {omega} give "
            f"e^(omega (2N - 3)) = e^{omega * (2 * pair.N - 3):.6g}, beyond the "
            f"double range e^{LOG_MAX:.6g}")
    return _herm_expm(omega * number_form(pair))


def gaussian_average(pair: TruncatedPair, sigma: float, quad_order: int) -> np.ndarray:
    """f(sigma): mean of e^{sigma (a xi + b eta)} over standard normal a, b.

    Tensor Gauss-Hermite in the probabilists' convention, so the normal
    density is folded into the weights analytically.  The rule is
    evaluated by the U(phi) rotation and one eigh xi = V diag(lam) V^dagger:
    entry (j, k) of the node exponential is
    V_jl conj(V_kl) e^{i (j - k) phi} e^{sigma r lam_l} summed over l, so
    the whole rule is the node table
    G[d, l] = sum over nodes of w e^{i d phi} e^{sigma r lam_l} and
    f_jk = sum_l V_jl conj(V_kl) G[j - k, l].  The weights and
    exponentials are real, so G[-d] = conj(G[d]) and the table for
    d >= 0 is one real matmul of its cosine and sine parts.
    """
    if not 0.0 <= sigma < SIGMA_SUP:
        raise InvalidParameter(f"sigma must lie in [0, sqrt(2)), got {sigma}")
    if quad_order < 2:
        raise InvalidParameter(f"fock.quad_order must be at least 2, got {quad_order}")
    N = pair.N
    if sigma == 0.0:
        return np.eye(N, dtype=complex)          # f(0) = I exactly
    nodes, weights = np.polynomial.hermite_e.hermegauss(quad_order)
    weights = weights / weights.sum()
    r = np.hypot(nodes[:, None], nodes[None, :]).ravel()
    phi = np.arctan2(nodes[None, :], nodes[:, None]).ravel()
    w = np.outer(weights, weights).ravel()
    lam, V = np.linalg.eigh(pair.xi)
    angle = np.arange(N)[:, None] * phi
    table = (np.concatenate([w * np.cos(angle), w * np.sin(angle)])
             @ np.exp(sigma * np.outer(r, lam)))
    G = table[:N] + 1j * table[N:]                 # offsets d = 0 .. N-1
    G = np.concatenate([G[:0:-1].conj(), G])       # G[-d] = conj(G[d])
    j = np.arange(N)
    return np.einsum('jl,kl,jkl->jk', V, V.conj(), G[j[:, None] - j + N - 1])


def rhs_average(pair: TruncatedPair, omega: float, quad_order: int,
                convergence_tol: float | None = None) -> np.ndarray:
    """f(sqrt(2 tanh omega)) / cosh(omega), the identity's right side.

    With convergence_tol set, the average is recomputed at order
    quad_order + 8 and a max-abs change beyond the tolerance raises
    QuadratureUnderresolved (doubles the cost, so opt-in).
    """
    if omega < 0.0:
        raise NonpositiveOmega(f"need omega >= 0, got {omega}")
    sigma = sigma_from_omega(omega)
    out = gaussian_average(pair, sigma, quad_order) / np.cosh(omega)
    if convergence_tol is not None:
        refined = gaussian_average(pair, sigma, quad_order + 8) / np.cosh(omega)
        change = float(np.abs(refined - out).max())
        if change > convergence_tol:
            raise QuadratureUnderresolved(
                f"order {quad_order} vs {quad_order + 8} changes the average "
                f"by {change:.3e} > {convergence_tol:.3e}")
    return out


def corner_error(pair: TruncatedPair, omega: float, quad_order: int,
                 convergence_tol: float | None = None, relative: bool = False) -> float:
    """Max-abs gap between the identity's sides on the leading N/2 corner.

    relative divides by the corner's own largest magnitude; the corner
    contains entries growing like e^{omega (N-1)}, so only the relative
    error is comparable across truncation sizes.
    """
    k = pair.N // 2
    lhs = lhs_exponential(pair, omega)
    rhs = rhs_average(pair, omega, quad_order, convergence_tol)
    gap = float(np.abs(lhs[:k, :k] - rhs[:k, :k]).max())
    if relative:
        gap /= float(np.abs(lhs[:k, :k]).max())
    return gap


def verify_ode(pair: TruncatedPair, sigma_grid: np.ndarray, quad_order: int = 40,
               step: float = 1e-3) -> OdeReport:
    """Check f' = (sigma / (1 - sigma^4/4)) (xi^2 + eta^2 + sigma^2/2) f.

    The derivative is a central difference of gaussian_average with the
    given step, compared on the leading N/2 corner.
    """
    sigmas = np.asarray(sigma_grid, dtype=float)
    if step <= 0.0:
        raise InvalidParameter(f"fock.ode_step must be positive, got {step}")
    if sigmas.size == 0 or sigmas.min(initial=0.0) < 0.0:
        raise InvalidParameter("sigma grid must be nonempty and nonnegative")
    if sigmas.max() + step >= SIGMA_SUP:
        raise InvalidParameter(
            f"sigma = sqrt(2 tanh omega) of fock.omega_list plus fock.ode_step must "
            f"stay below sqrt(2), got {sigmas.max()} + {step}")
    k = pair.N // 2
    Q = number_form(pair)
    residuals = np.empty(sigmas.size)
    for i, sigma in enumerate(sigmas):
        # f is even in sigma, so reflecting keeps the difference central
        fd = (gaussian_average(pair, sigma + step, quad_order)
              - gaussian_average(pair, abs(sigma - step), quad_order)) / (2.0 * step)
        f = gaussian_average(pair, sigma, quad_order)
        gain = sigma / (1.0 - 0.25 * sigma ** 4)
        rhs = gain * ((Q + 0.5 * sigma ** 2 * np.eye(pair.N)) @ f)
        residuals[i] = float(np.abs(fd[:k, :k] - rhs[:k, :k]).max())
    return OdeReport(sigmas=sigmas, residuals=residuals,
                     max_residual=float(residuals.max()), step=step)


def sigma_from_omega(omega: float) -> float:
    """sigma = sqrt(2 tanh omega), mapping [0, inf) onto [0, sqrt(2)).

    In double precision tanh omega rounds to 1 from omega of about 19 on,
    so sigma reaches sqrt(2), where f(sigma) does not exist.
    """
    if omega < 0.0:
        raise NonpositiveOmega(f"need omega >= 0, got {omega}")
    sigma = float(np.sqrt(2.0 * np.tanh(omega)))
    if not sigma < SIGMA_SUP:
        raise InvalidParameter(
            f"fock.omega_list value {omega} gives sigma = sqrt(2 tanh omega) = sqrt(2) "
            "in double precision; omega must stay below about 19")
    return sigma
