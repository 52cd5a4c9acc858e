"""Open quantum harmonic oscillator model construction.

A multimode oscillator is parameterised by a CCR matrix Theta (real
antisymmetric, nonsingular), an energy matrix R (real symmetric) and a
coupling matrix M (real m x n, any rank), plus a time horizon T and a
risk sensitivity theta.  The drift and dispersion matrices of the
governing linear dynamics are

    A = 2 Theta (R + M^T J M),      B = 2 Theta M^T,

with J the canonical antisymmetric structure of the m field channels.
Preservation of the commutation relations ties everything together
through the physical realizability identity

    A Theta + Theta A^T + mho = 0,      mho := B J B^T,

which holds exactly by construction and, for Hurwitz A, makes Theta
recoverable from (A, mho) alone via a continuous Lyapunov solve.  The
same solver yields the stationary one-point covariance P0 of the
invariant Gaussian state from A P0 + P0 A^T + B B^T = 0; it refuses a
singular system or a non-finite solution for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CovarianceNotPSD,
    InvalidParameter,
    LyapunovSolveFailed,
    NonFinite,
    NotAntisymmetric,
    NotHurwitz,
    SingularTheta,
)

# 2x2 antisymmetric unit; J for m channels is J2 kron I_{m/2}.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

ANTISYMMETRY_RTOL = 1e-10
SINGULAR_RCOND = 1e-12     # reciprocal condition number below this counts as singular
HURWITZ_MARGIN = 1e-10     # spectral abscissa must be below -margin
PSD_CLIP_RTOL = 1e-10      # negative eigenvalues beyond this fraction of lambda_max are an error


@dataclass(frozen=True, eq=False)
class OscillatorSpec:
    """Physical parameters of a multimode oscillator.

    n and m are the numbers of system variables and field channels, both
    even.  T is the time horizon and theta the risk sensitivity.
    """

    n: int
    m: int
    Theta: np.ndarray
    R: np.ndarray
    M: np.ndarray
    T: float
    theta: float


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Derived drift/dispersion matrices with diagnostic residuals.

    pr_residual is the Frobenius norm of A Theta + Theta A^T + mho
    (zero up to rounding for any valid spec).  hurwitz is advisory:
    operations that require it hard-fail.  mho may be singular (m < n).
    """

    A: np.ndarray
    B: np.ndarray
    mho: np.ndarray
    pr_residual: float
    hurwitz: bool


@dataclass(frozen=True, eq=False)
class GaussianStateData:
    """One-point covariance of the invariant Gaussian state."""

    P0: np.ndarray


def canonical_j(m: int) -> np.ndarray:
    """Antisymmetric channel structure J2 kron I_{m/2} for m even."""
    if m % 2 != 0 or m <= 0:
        raise InvalidParameter(f"channel count must be even and positive, got {m}")
    return np.kron(J2, np.eye(m // 2))


def reciprocal_cond(X: np.ndarray) -> float:
    """sigma_min / sigma_max; zero for the zero matrix."""
    s = np.linalg.svd(X, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def clip_psd(evals: np.ndarray, label: str) -> np.ndarray:
    """Eigenvalues of a PSD matrix with rounding-level negatives clipped to zero.

    Raises CovarianceNotPSD when an eigenvalue lies below
    -PSD_CLIP_RTOL * lambda_max: the matrix is then indefinite beyond
    rounding, for a grid covariance typically because the grid is too
    coarse.
    """
    top = float(evals.max(initial=0.0))
    floor = -PSD_CLIP_RTOL * max(top, 1e-300)
    if evals.min(initial=0.0) < floor:
        raise CovarianceNotPSD(
            f"{label} has eigenvalue {evals.min():.3e} below the clip threshold {floor:.3e}")
    return np.clip(evals, 0.0, None)


def is_hurwitz(A: np.ndarray, margin: float = HURWITZ_MARGIN) -> bool:
    return bool(np.max(np.linalg.eigvals(A).real) < -margin)


def frobenius(X: np.ndarray) -> float:
    """Frobenius norm of X, free of overflow while it stays in the double range.

    X is first divided by the power of two 2^e at its largest entry (e = 0
    when that entry is below 1).  That division is exact, so wherever
    np.linalg.norm(X) is finite the result is the same to the last bit.
    """
    X = np.asarray(X, dtype=float)
    e = max(0, math.frexp(float(np.abs(X).max(initial=0.0)))[1])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(X, -e)), e))


def validate_spec(spec: OscillatorSpec) -> None:
    """Check shapes, finiteness, symmetry of R, antisymmetry of Theta and its nonsingularity."""
    Theta, R, M = np.asarray(spec.Theta), np.asarray(spec.R), np.asarray(spec.M)
    for name, X in (("Theta", Theta), ("R", R), ("M", M)):
        if not np.all(np.isfinite(X)):
            raise NonFinite(f"{name} contains non-finite entries")
    if spec.n % 2 != 0 or spec.m % 2 != 0 or spec.n <= 0 or spec.m <= 0:
        raise InvalidParameter(f"n and m must be even positive, got n={spec.n}, m={spec.m}")
    if Theta.shape != (spec.n, spec.n) or R.shape != (spec.n, spec.n):
        raise InvalidParameter("Theta and R must be n x n")
    if M.shape != (spec.m, spec.n):
        raise InvalidParameter(f"M must be m x n = {spec.m} x {spec.n}, got {M.shape}")
    with np.errstate(over="ignore"):       # a gap past the double range is refused as inf
        if frobenius(Theta + Theta.T) > ANTISYMMETRY_RTOL * max(1.0, frobenius(Theta)):
            raise NotAntisymmetric("Theta is not antisymmetric within tolerance")
        if frobenius(R - R.T) > ANTISYMMETRY_RTOL * max(1.0, frobenius(R)):
            raise InvalidParameter("R is not symmetric within tolerance")
    if reciprocal_cond(Theta) < SINGULAR_RCOND:
        raise SingularTheta("Theta is singular or numerically rank deficient")


def build_system(spec: OscillatorSpec) -> SystemMatrices:
    """Construct A, B, mho from the spec and compute the realizability residual.

    Raises NonFinite when finite entries of the spec give a product
    outside the double range.
    """
    validate_spec(spec)
    Theta = np.asarray(spec.Theta, dtype=float)
    R = np.asarray(spec.R, dtype=float)
    M = np.asarray(spec.M, dtype=float)
    J = canonical_j(spec.m)
    with np.errstate(over="ignore", invalid="ignore"):      # tested instead
        A = 2.0 * Theta @ (R + M.T @ J @ M)
        B = 2.0 * Theta @ M.T
        mho = B @ J @ B.T
        gap = A @ Theta + Theta @ A.T + mho
    if not all(np.isfinite(X).all() for X in (A, B, mho, gap)):
        raise NonFinite("A = 2 Theta (R + M^T J M), B = 2 Theta M^T, mho = B J B^T or "
                        "A Theta + Theta A^T + mho leaves the double range: "
                        "oscillator.Theta, R and M are too large")
    return SystemMatrices(
        A=A, B=B, mho=mho,
        pr_residual=frobenius(gap),
        hurwitz=is_hurwitz(A),
    )


def solve_continuous_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X solving A X + X A^T = Q for real A.

    Row-major vectorization turns the equation into the Kronecker system
    (A kron I + I kron A) vec(X) = vec(Q) of size n^2, solved directly;
    it is nonsingular exactly when no two eigenvalues of A sum to zero,
    which holds for Hurwitz A.  An exactly singular system or a
    non-finite solution raises LyapunovSolveFailed.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    ident = np.eye(n)
    K = np.kron(A, ident) + np.kron(ident, A)
    try:
        X = np.linalg.solve(K, np.asarray(Q, dtype=float).reshape(n * n)).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise LyapunovSolveFailed(str(exc)) from exc
    if not np.all(np.isfinite(X)):
        raise LyapunovSolveFailed("Lyapunov solve returned non-finite entries")
    return X


def recover_ccr(A: np.ndarray, mho: np.ndarray) -> np.ndarray:
    """Recover the CCR matrix from (A, mho) for Hurwitz A.

    Solves A X + X A^T + mho = 0, the Lyapunov form of the integral
    of e^{tA} mho e^{tA^T} over [0, inf).  The result is antisymmetrized
    after a consistency check, since the exact solution inherits
    antisymmetry from mho.
    """
    if not is_hurwitz(A):
        raise NotHurwitz("CCR recovery requires a Hurwitz drift matrix")
    X = solve_continuous_lyapunov(A, -np.asarray(mho, dtype=float))
    scale = max(1.0, float(np.linalg.norm(X)))
    if np.linalg.norm(X + X.T) > 1e-6 * scale:
        raise LyapunovSolveFailed("recovered matrix is far from antisymmetric; "
                                  "the Lyapunov system is likely ill-conditioned")
    return 0.5 * (X - X.T)


def solve_state_ale(A: np.ndarray, B: np.ndarray) -> GaussianStateData:
    """Stationary covariance P0 >= 0 solving A P0 + P0 A^T + B B^T = 0."""
    if not is_hurwitz(A):
        raise NotHurwitz("the invariant Gaussian state requires a Hurwitz drift matrix")
    BBt = np.asarray(B, dtype=float) @ np.asarray(B, dtype=float).T
    X = solve_continuous_lyapunov(A, -BBt)
    P0 = 0.5 * (X + X.T)
    clip_psd(np.linalg.eigvalsh(P0), "state covariance")
    return GaussianStateData(P0=P0)
