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
f_jj = sum_l V_jl^2 E[cosh(sigma lam_l r)] and f is diagonal: xi's
Gauss-Hermite rule (lam, V^2), from one real eigendecomposition per
basis, serves every sigma.  Its derivative f'(sigma) follows from the
same erf values, so the ODE check compares exact sides.  The left
side's xi^2 + eta^2 = a a^dagger + a^dagger a is diagonal under
truncation too, with a closed-form diagonal.  So every function here
takes and returns real number-basis diagonals: no ladder matrix
and no N x N matrix product is ever formed.
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
    """xi's Gauss-Hermite rule on N Fock levels.

    The truncated position matrix xi = (a + a^dagger) / sqrt(2) is real,
    symmetric and tridiagonal with off-diagonal sqrt(j/2): the Jacobi
    matrix of the Hermite polynomials.  With xi = V diag(lam) V^T,
    xi_eigvals holds lam, the N-point Gauss-Hermite nodes, and
    xi_weights[j, l] = V_jl^2 the weights with which the j-th diagonal
    entry of a function of xi averages over them (row 0 is the
    Gauss-Hermite rule's weights over sqrt(pi)).
    """

    N: int
    xi_eigvals: np.ndarray
    xi_weights: np.ndarray


def build_pair(N: int) -> TruncatedPair:
    """xi's rule on N Fock levels from one eigendecomposition of its tridiagonal form."""
    if N < 4:
        raise InvalidParameter(f"fock.N must be at least 4, got {N}")
    off = np.sqrt(np.arange(1, N) / 2.0)
    lam, V = np.linalg.eigh(np.diag(off, k=1) + np.diag(off, k=-1))
    return TruncatedPair(N=N, xi_eigvals=lam, xi_weights=V * V)


def number_form(pair: TruncatedPair) -> np.ndarray:
    """The diagonal q = (1, 3, ..., 2N - 3, N - 1) of the quadratic xi^2 + eta^2.

    xi^2 + eta^2 = a a^dagger + a^dagger a is diagonal under truncation:
    2j + 1 on level j, except at the edge, where a a^dagger loses its
    term and leaves N - 1.
    """
    q = 2.0 * np.arange(pair.N) + 1.0
    q[-1] = pair.N - 1
    return q


def lhs_exponential(pair: TruncatedPair, omega: float) -> np.ndarray:
    """The diagonal e^{omega q_j} of e^{omega (xi^2 + eta^2)}, q from number_form.

    The largest q_j is 2N - 3, so an omega (2N - 3) beyond the double
    exponent range is refused instead of overflowing.
    """
    if omega < 0.0:
        raise NonpositiveOmega(f"need omega >= 0, got {omega}")
    if omega * (2 * pair.N - 3) > LOG_MAX:
        raise InvalidParameter(
            f"fock.N = {pair.N} and fock.omega_list value {omega} give "
            f"e^(omega (2N - 3)) = e^{omega * (2 * pair.N - 3):.6g}, beyond the "
            f"double range e^{LOG_MAX:.6g}")
    return np.exp(omega * number_form(pair))


def _average_diagonals(pair: TruncatedPair, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of f(sigma) and of its derivative f'(sigma).

    f_jj = sum_l V_jl^2 m(sigma lam_l) with the even part of the Rayleigh
    moment-generating function m(c) = E[cosh(c r)] =
    1 + c sqrt(pi/2) e^{c^2/2} erf(c/sqrt(2)), whose derivative is
    m'(c) = c + sqrt(pi/2) (1 + c^2) e^{c^2/2} erf(c/sqrt(2)); so
    f'_jj = sum_l V_jl^2 lam_l m'(sigma lam_l).  m is nonnegative and
    even, m' odd, so negative eigenvalues cost neither cancellation nor
    an inf * 0 product.
    """
    if not 0.0 <= sigma < SIGMA_SUP:
        raise InvalidParameter(f"sigma must lie in [0, sqrt(2)), got {sigma}")
    c = sigma * pair.xi_eigvals
    erf = np.array([math.erf(x) for x in c / math.sqrt(2.0)])
    gauss = np.exp(0.5 * c * c)
    mgf = 1.0 + c * math.sqrt(0.5 * math.pi) * gauss * erf
    slope = c + (1.0 + c * c) * math.sqrt(0.5 * math.pi) * gauss * erf
    return pair.xi_weights @ mgf, pair.xi_weights @ (pair.xi_eigvals * slope)


def gaussian_average(pair: TruncatedPair, sigma: float) -> np.ndarray:
    """f(sigma): mean of e^{sigma (a xi + b eta)} over standard normal a, b.

    f is diagonal; this is its diagonal f_jj = sum_l V_jl^2
    E[cosh(sigma lam_l r)] over the Rayleigh radius r (see the module
    docstring and _average_diagonals).
    """
    if sigma == 0.0:
        return np.ones(pair.N)                   # f(0) = I exactly
    return _average_diagonals(pair, sigma)[0]


def rhs_average(pair: TruncatedPair, omega: float, quad_order: int | None = None) -> np.ndarray:
    """The diagonal of f(sqrt(2 tanh omega)) / cosh(omega), the identity's right side.

    quad_order is unused: the average is in closed form.  It stays only
    because perfbench/layers.py still passes it.
    """
    return gaussian_average(pair, sigma_from_omega(omega)) / np.cosh(omega)


def corner_error(pair: TruncatedPair, omega: float) -> float:
    """Max-abs gap between the identity's sides on the leading N/2 corner.

    Both sides are diagonal, so the corner block is compared on its
    diagonal.  The corner contains entries growing like e^{omega (N-1)},
    so only the gap relative to the corner's largest magnitude is
    comparable across truncation sizes.
    """
    k = pair.N // 2
    gap = lhs_exponential(pair, omega)[:k] - rhs_average(pair, omega)[:k]
    return float(np.abs(gap).max())


def verify_ode(pair: TruncatedPair, sigma_grid: np.ndarray, quad_order: int | None = None,
               step: float | None = None) -> float:
    """Largest residual of f' = (sigma / (1 - sigma^4/4)) (xi^2 + eta^2 + sigma^2/2) f.

    f and f' are _average_diagonals' closed forms and xi^2 + eta^2 is
    number_form's diagonal, so the residual, the max-abs mismatch over
    the leading N/2 diagonal entries and the sigmas, tests the ODE
    itself: rounding only, as long as the truncation has not reached the
    corner.  quad_order and step are unused; they stay only because
    perfbench/layers.py still passes them.
    """
    sigmas = np.asarray(sigma_grid, dtype=float)
    if sigmas.size == 0 or sigmas.min(initial=0.0) < 0.0:
        raise InvalidParameter("sigma grid must be nonempty and nonnegative")
    k = pair.N // 2
    q = number_form(pair)[:k]
    residuals = np.empty(sigmas.size)
    for i, sigma in enumerate(sigmas):
        f, slope = _average_diagonals(pair, sigma)
        gain = sigma / (1.0 - 0.25 * sigma ** 4)
        residuals[i] = float(np.abs(slope[:k] - gain * (q + 0.5 * sigma ** 2) * f[:k]).max())
    return float(residuals.max())


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
