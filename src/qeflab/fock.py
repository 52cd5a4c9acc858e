"""Truncated number-basis check of the position-momentum pair identity.

A single oscillator pair (xi, eta) on the N-dimensional number basis
satisfies e^{omega (xi^2 + eta^2)} = f(sigma) / cosh(omega) with
sigma = sqrt(2 tanh(omega)) and f the average of e^{sigma (a xi + b eta)}
over independent standard normal a, b.  Truncating the ladder operators
breaks the algebra near the basis edge, so every comparison here lives
on a leading corner block that the edge error has not reached.

The average has a closed form.  Writing (a, b) = r (cos phi, sin phi)
with r Rayleigh and phi uniform, the exponent a xi + b eta equals
r U(phi) xi U(phi)^dagger with the diagonal U(phi) = e^{i phi n}, exactly
under truncation.  Averaging over phi keeps only the number-basis
diagonal of e^{sigma r xi}, and phi and phi + pi pair e^{sigma r xi} with
e^{-sigma r xi}.  So with xi = V diag(lam) V^T,
f_jj = sum_l V_jl^2 E[cosh(sigma lam_l r)] and f is diagonal: one
eigendecomposition of xi per basis serves every sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonpositiveOmega

SIGMA_SUP = np.sqrt(2.0)       # f(sigma) exists only for sigma < sqrt(2)
LOG_MAX = float(np.log(np.finfo(float).max))   # largest x with a finite e^x


@dataclass(frozen=True, eq=False)
class TruncatedPair:
    """Position and momentum matrices in the truncated number basis.

    The commutator [xi, eta] equals iI exactly on the leading (N-1)
    corner; only the last diagonal entry is corrupted by truncation.
    ccr_residual is the max-abs deviation on that corner.  xi is real
    symmetric, and xi_eigvals with xi_weights[j, l] = V_jl^2 hold its
    eigendecomposition xi = V diag(xi_eigvals) V^T.
    """

    N: int
    xi: np.ndarray
    eta: np.ndarray
    ccr_residual: float
    xi_eigvals: np.ndarray
    xi_weights: np.ndarray


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
    lam, V = np.linalg.eigh(xi.real)
    return TruncatedPair(N=N, xi=xi, eta=eta, ccr_residual=float(np.abs(dev).max()),
                         xi_eigvals=lam, xi_weights=V * V)


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


def gaussian_average(pair: TruncatedPair, sigma: float) -> np.ndarray:
    """f(sigma): mean of e^{sigma (a xi + b eta)} over standard normal a, b.

    The diagonal matrix f_jj = sum_l V_jl^2 E[cosh(c_l r)], c_l = sigma lam_l,
    over the Rayleigh radius r (see the module docstring).  That even part
    of the Rayleigh moment-generating function is
    1 + c sqrt(pi/2) e^{c^2/2} erf(c/sqrt(2)): every term is nonnegative and
    even in c, so negative eigenvalues cost neither cancellation nor an
    inf * 0 product.
    """
    if not 0.0 <= sigma < SIGMA_SUP:
        raise InvalidParameter(f"sigma must lie in [0, sqrt(2)), got {sigma}")
    if sigma == 0.0:
        return np.eye(pair.N)                    # f(0) = I exactly
    c = sigma * pair.xi_eigvals
    erf = np.array([math.erf(x) for x in c / math.sqrt(2.0)])
    mgf = 1.0 + c * math.sqrt(0.5 * math.pi) * np.exp(0.5 * c * c) * erf
    return np.diag(pair.xi_weights @ mgf)


def rhs_average(pair: TruncatedPair, omega: float, quad_order: int | None = None) -> np.ndarray:
    """f(sqrt(2 tanh omega)) / cosh(omega), the identity's right side.

    quad_order is unused: the average is in closed form.  It stays only
    because perfbench/layers.py still passes it.
    """
    if omega < 0.0:
        raise NonpositiveOmega(f"need omega >= 0, got {omega}")
    return gaussian_average(pair, sigma_from_omega(omega)) / np.cosh(omega)


def corner_error(pair: TruncatedPair, omega: float, relative: bool = False) -> float:
    """Max-abs gap between the identity's sides on the leading N/2 corner.

    relative divides by the corner's own largest magnitude; the corner
    contains entries growing like e^{omega (N-1)}, so only the relative
    error is comparable across truncation sizes.
    """
    k = pair.N // 2
    lhs = lhs_exponential(pair, omega)
    rhs = rhs_average(pair, omega)
    gap = float(np.abs(lhs[:k, :k] - rhs[:k, :k]).max())
    if relative:
        gap /= float(np.abs(lhs[:k, :k]).max())
    return gap


def verify_ode(pair: TruncatedPair, sigma_grid: np.ndarray, quad_order: int | None = None,
               step: float = 1e-3) -> OdeReport:
    """Check f' = (sigma / (1 - sigma^4/4)) (xi^2 + eta^2 + sigma^2/2) f.

    The derivative is a central difference of gaussian_average with the
    given step, compared on the leading N/2 corner.  quad_order is
    unused, as in rhs_average.
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
        fd = (gaussian_average(pair, sigma + step)
              - gaussian_average(pair, abs(sigma - step))) / (2.0 * step)
        f = gaussian_average(pair, sigma)
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
