"""Two-point kernels and the boundary system of the eigenproblem.

The commutator structure of the oscillator variables over [0, T] is
carried by the kernel

    Lambda(tau) = e^{tau A} Theta   (tau >= 0),
    Lambda(tau) = Theta e^{-tau A^T} (tau < 0),

which satisfies Lambda(tau) = -Lambda(-tau)^T, and by the stationary
covariance kernel P(tau) = e^{tau A} P0 (tau >= 0), P(-tau) = P(tau)^T.
The integral operator L(f)(s) = int_0^T Lambda(s-t) f(t) dt is skew
self-adjoint, and L f = i omega f exactly when (I - K) f = 0 for the
one-sided-exponential kernel K = -(i/omega) L.  With B = -(i/omega) Theta
and f = x + B y, where

    x(s) = int_0^s e^{(s-t)A} B f(t) dt,    y(s) = int_s^T e^{(t-s)A^T} f(t) dt,

that is the linear boundary value problem

    [x; y]' = D(omega) [x; y],   D(omega) = [[A + B, B^2], [-I, -A^T - B]],
    x(0) = 0,  y(T) = 0.

Its terminal block Y(T), the lower-right n x n block of e^{T D(omega)},
gives the Fredholm determinant Delta(omega) = det(I - K) = det Y(T)
e^{T tr A} (Gohberg, Goldberg and Kaashoek, Classes of Linear Operators
I, 1990, ch. IX), and each y(0) in the kernel of Y(T) starts an
eigenfunction from [0; y(0)].  Y(T) is read from the ordered split of
D's spectrum (boundary_split), bounded at any T where e^{T D} is not.
The system needs A and Theta only, so M may have any rank (m < n too).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IllConditionedSplit, NonpositiveOmega
from .model import OscillatorSpec, SystemMatrices, build_system
from .quadrature import Grid, make_grid

# Degree-13 Pade coefficients b_0..b_13 and the 1-norm below which the
# unscaled approximant is accurate to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
SPLIT_GAP_RTOL = 1e-6       # least gap across the split, relative to max |eigenvalue| of D
AXIS_RTOL = 1e-6            # real parts below this fraction of max |lambda| lie on the axis
EIGVEC_COND = 1e2           # eigenvector matrices this well conditioned are the split's bases


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a stack of shape (..., k, k).

    Degree-13 Pade approximant with scaling and squaring (N. J. Higham,
    "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193).  Each
    matrix gets its own scaling power s = max(0, ceil(log2(||a||_1 /
    theta_13))); the approximant is one batched solve, and the squarings
    run max(s) times with the already-squared matrices masked out.  A
    stack of diagonal matrices is exponentiated entry by entry.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    d, ident = np.diagonal(a, axis1=-2, axis2=-1), np.eye(a.shape[-1])
    if np.array_equal(a, d[..., None] * ident):          # a stack of diagonal matrices
        return np.exp(d)[..., None] * ident
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    with np.errstate(divide='ignore'):
        s = np.maximum(0.0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    a = a / np.exp2(s)[..., None, None]
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):      # callers test the result
        for i in range(int(s.max(initial=0))):
            r = np.where((s > i)[..., None, None], r @ r, r)
    return r


class KernelContext:
    """Immutable bundle of system matrices and quadrature grid.

    Grid evaluations of the commutator kernel, its Nystrom matrix and
    spectrum are cached lazily; everything else is cheap to recompute.
    """

    def __init__(self, sysm: SystemMatrices, Theta: np.ndarray, grid: Grid):
        self.sys = sysm
        self.Theta = np.asarray(Theta, dtype=float)
        self.grid = grid
        self.n = sysm.A.shape[0]

    @cached_property
    def lag_exponentials(self) -> np.ndarray:
        """e^{|tau| A} for every panel lag of the grid, shape (2P - 1, Q, Q, n, n)."""
        return lag_exponentials(self.sys.A, self.grid)

    @cached_property
    def lambda_matrix(self) -> np.ndarray:
        """Commutator kernel at all node pairs, node-major, shape (N n, N n)."""
        return kernel_matrix(self.grid, self.lag_exponentials, self.Theta)

    @cached_property
    def lambda_grid(self) -> np.ndarray:
        """Commutator kernel at all node pairs, shape (N, N, n, n): a view of lambda_matrix."""
        return _block_view(self.lambda_matrix, self.n)

    @cached_property
    def nystrom_matrix(self) -> np.ndarray:
        """K = [sqrt(w_a) Lambda(s_a - s_b) sqrt(w_b)], node-major, shape (N n, N n).

        The matrix of L acting on sqrt(w) f, antisymmetrized against
        rounding: the only form of L that the pipeline reads.
        """
        K = weighted_matrix(self.grid, self.lambda_matrix)
        return 0.5 * (K - K.T)

    @cached_property
    def nystrom_omegas(self) -> np.ndarray:
        """Positive omegas of the Nystrom matrix K, descending.

        K is real antisymmetric: one eigvalsh of K^T K = -K^2 gives each
        omega^2 twice, off by a few eps omega_1^2, and 2 sum omega^2 = hs_total.
        """
        K = self.nystrom_matrix
        squares = np.linalg.eigvalsh(K.T @ K)[::-2]
        return np.sqrt(squares[squares > 0.0])

    @cached_property
    def hs_total(self) -> float:
        """Squared Hilbert-Schmidt norm of L on the grid, ||K||_F^2."""
        return float(np.vdot(self.nystrom_matrix, self.nystrom_matrix))

    @cached_property
    def hs_exact(self) -> float:
        """||L||^2_HS = 2 int_0^T (T - tau) ||e^{tau A} Theta||_F^2 dtau, off the grid.

        A 16-node Gauss-Legendre rule on 2^j panels of width h <= 1/||A||_1
        reaches rounding at any T, on a closed oscillator too.  With E =
        e^{hA} and G_i = sum_q w_q x_q^i e^{x_q A} Theta Theta^T e^{x_q A^T}
        over one panel's offsets, panel p adds tr E^p ((T - p h) G_0 - G_1)
        E^{pT}, and the sums over p double j times, whatever T.
        """
        T, A = self.grid.T, self.sys.A
        j = max(0, int(np.frexp(T * np.abs(A).sum(axis=0).max())[1]))
        rule = make_grid(T / 2 ** j, 1, 16)
        ex = expm(np.append(rule.nodes, rule.T)[:, None, None] * A)
        g = ex[:-1] @ self.Theta
        g = np.stack([rule.weights * (T - rule.nodes), rule.weights]) @ (
            g @ g.swapaxes(-1, -2)).reshape(rule.size, -1)
        # over the first k = 2^i panels: sum_p E^p (T G_0 - G_1) E^{pT} and sum_p E^p G_0
        # E^{pT} (blk), sum_p p E^p G_0 E^{pT} (tilt); E^k (Ek)
        blk, tilt, Ek = g.reshape(2, self.n, self.n), 0.0, ex[-1]
        for i in range(j):
            tilt = tilt + Ek @ (tilt + 2 ** i * blk[1]) @ Ek.T
            blk, Ek = blk + Ek @ blk @ Ek.T, Ek @ Ek
        return float(2.0 * np.trace(blk[0] - rule.T * tilt))


def make_context(spec: OscillatorSpec, grid: Grid) -> KernelContext:
    """Build the kernel context for a spec on a grid."""
    return KernelContext(build_system(spec), spec.Theta, grid)


def lag_exponentials(A: np.ndarray, grid: Grid) -> np.ndarray:
    """e^{|tau| A} for every panel lag of a grid, shape (2P - 1, Q, Q, n, n).

    The grid has P equal panels of width h that repeat the same Q node
    offsets, so two nodes differ by delta = x_i - x_j inside a panel and
    by tau = (g-1) h + (h + delta) when they lie g >= 1 panels apart.
    The exponential factors accordingly,

        e^{tau A} = e^{(g-1) h A} e^{(h + delta) A},

    with every exponent nonnegative, so for Hurwitz A no factor grows and
    the product is as accurate as a direct evaluation.  The whole grid
    costs P - 1 + 2 Q^2 matrix exponentials (Q^2 in-panel e^{|delta| A},
    Q^2 cross-panel e^{(h + delta) A}, one per panel gap) instead of
    (P Q)^2.  Entry [P - 1 + g, i, j] is the block between node i of a
    panel and node j of the panel g before it; g < 0 mirrors delta.
    """
    A = np.asarray(A, dtype=float)
    P, Q = grid.panels, grid.order
    h = grid.T / P
    x = grid.nodes[:Q]
    delta = x[:, None] - x[None, :]
    near = expm(np.abs(delta)[..., None, None] * A)               # (Q, Q, n, n)
    cross = expm((h + delta)[..., None, None] * A)
    gaps = expm((h * np.arange(P - 1))[:, None, None] * A)        # e^{(g-1) h A}
    far = gaps[:, None, None] @ cross                              # (P-1, Q, Q, n, n)
    return np.concatenate([far[::-1].swapaxes(1, 2), near[None], far])


def kernel_matrix(grid: Grid, lags: np.ndarray, base: np.ndarray) -> np.ndarray:
    """A one-sided-exponential kernel at all node pairs, node-major, shape (N n, N n).

    lags are the grid's lag_exponentials.  For lag tau >= 0 the kernel is
    e^{tau A} base, for tau < 0 base e^{-tau A^T} = base (e^{|tau| A})^T,
    so the base is applied once per lag block, on the side the lag's sign
    gives (inside a panel, the sign of delta), before one gather to every
    node pair.  With base = Theta this is the commutator kernel
    (block-antisymmetric by construction); with a symmetric base = P0 it
    is the covariance kernel.
    """
    base = np.asarray(base, dtype=float)
    P, Q, n = grid.panels, grid.order, base.shape[0]
    x = grid.nodes[:Q]
    near = lags[P - 1]
    same = np.where((x[:, None] >= x[None, :])[..., None, None],
                    near @ base, base @ np.swapaxes(near, -1, -2))
    based = np.concatenate([base @ np.swapaxes(lags[:P - 1], -1, -2), same[None],
                            lags[P:] @ base])
    p = np.arange(P)
    blocks = based[P - 1 + p[:, None] - p[None, :]]               # (P, P, Q, Q, n, n)
    return blocks.transpose(0, 2, 4, 1, 3, 5).reshape(P * Q * n, P * Q * n)


def _block_view(matrix: np.ndarray, n: int) -> np.ndarray:
    """The (N, N, n, n) node-pair blocks of a node-major (N n, N n) matrix, as a view."""
    N = matrix.shape[0] // n
    return matrix.reshape(N, n, N, n).swapaxes(1, 2)


def covariance_on_grid(ctx: KernelContext, P0: np.ndarray) -> np.ndarray:
    """The Nystrom matrix P_h = [sqrt(w_a) P(s_a - s_b) sqrt(w_b)] of the covariance
    kernel, node-major, shape (N n, N n), from ctx's lag exponentials."""
    return weighted_matrix(ctx.grid, kernel_matrix(ctx.grid, ctx.lag_exponentials, P0))


def weighted_matrix(grid: Grid, matrix: np.ndarray) -> np.ndarray:
    """[sqrt(w_a) matrix[a, b] sqrt(w_b)] of a node-major grid kernel (N n, N n)."""
    sw = np.repeat(np.sqrt(grid.weights), matrix.shape[0] // grid.size)
    return sw[:, None] * matrix * sw[None, :]


class BvpMatrices(NamedTuple):
    """D(omega) and its ordered split (see boundary_split), omega's shape leading.

    Z = [X+ X-] with D X+ = X+ S[0] and D X- = X- S[1], c = Z^{-1} [0; I]
    stacks c+ over c-, and N is the bounded boundary matrix.
    """

    D: np.ndarray
    Z: np.ndarray
    S: np.ndarray
    c: np.ndarray
    N: np.ndarray


def bvp_matrices(ctx: KernelContext, omega: float | np.ndarray) -> BvpMatrices:
    """Boundary system D(omega) and the ordered split of its spectrum.

    B = -(i/omega) Theta and D(omega) = [[A + B, B^2], [-I, -A^T - B]].
    omega is a positive scalar or an array of positive frequencies; the
    array's shape leads every result, so a whole frequency scan is one
    call.  See boundary_split.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0.0):
        raise NonpositiveOmega(
            f"eigenfrequency candidates must be positive, got minimum {np.min(omega)}")
    n, A = ctx.n, ctx.sys.A
    B = (-1j / omega)[..., None, None] * ctx.Theta
    D = np.empty(omega.shape + (2 * n, 2 * n), dtype=complex)
    D[..., :n, :n] = A + B
    D[..., :n, n:] = B @ B
    D[..., n:, :n] = -np.eye(n)
    D[..., n:, n:] = -A.T - B
    return boundary_split(D, ctx.grid.T, omega)


def boundary_split(D: np.ndarray, T: float, omega: np.ndarray) -> BvpMatrices:
    """The ordered split of D's spectrum, in place of the exponential e^{T D}.

    X+ and X- span the invariant subspaces of D's n eigenvalues of largest
    real part and of the rest.  Then Y(T) = X2+ e^{T S+} c+ + X2- e^{T S-}
    c-, and Y(T) y = 0 exactly when N [a; y] = 0 for

        N = [[X2+, X2- e^{T S-} c-], [e^{-T S+}, -c+]],    a = e^{T S+} c+ y,

    with |det N| = |det Y(T)| e^{-T Re tr S+}.  As the split is ordered,
    e^{-T S+}, e^{T S-} and N stay O(1) at any T, and no block need be
    invertible (X2+ is singular on the README oscillator with M = 0).
    The bases are the halves of the eigenvectors of D with x rescaled
    (Db), S diagonal, where their matrix has condition number at most
    EIGVEC_COND.  Otherwise each half is orthonormalized and takes one
    Newton step on its Riccati equation: in the frame Q = [Q1 Q2], F =
    Q^H Db Q, F22 X - X F11 = -F21, basis Q1 + Q2 X, S = F11 + F12 X.
    That removes the sqrt(eps) error nearly parallel eigenvectors leave
    where an eigenvalue is defective, as on a closed oscillator at every
    omega.
    Raises IllConditionedSplit, naming omega, where the halves hold
    eigenvalues within SPLIT_GAP_RTOL max |lambda| of each other.
    """
    n = D.shape[-1] // 2
    # D diag(s, 1) = diag(s, 1) Db, whose off-diagonal blocks have one norm, has
    # D's S, c and X2; without it N is ill scaled where B is large (short T)
    s = np.sqrt(np.linalg.norm(D[..., :n, n:], axis=(-2, -1)) / np.sqrt(n))[..., None, None]
    Db = D.copy()
    Db[..., :n, n:] /= s
    Db[..., n:, :n] *= s
    lam, V = np.linalg.eig(Db)
    # real parts at rounding level count as 0, and ties go by imaginary part
    # (then real part), so the split, and with it N, is continuous in omega
    size = np.abs(lam).max(axis=-1, keepdims=True)
    real = np.where(np.abs(lam.real) <= AXIS_RTOL * size, 0.0, lam.real)
    order = np.lexsort((-lam.real, -lam.imag, -real), axis=-1)
    lam = np.take_along_axis(lam, order, -1)
    gap = np.abs(lam[..., :n, None] - lam[..., None, n:]).min(axis=(-2, -1)) / size[..., 0]
    if not np.all(gap > SPLIT_GAP_RTOL):
        worst = np.unravel_index(np.argmin(gap), gap.shape)
        raise IllConditionedSplit(
            f"D(omega) at omega = {omega[worst]:.10g} has an eigenvalue on each side of the "
            f"split within {gap[worst]:.3e} of max |eigenvalue| (limit {SPLIT_GAP_RTOL:g}): "
            "they coalesce")
    V = np.take_along_axis(V, order[..., None, :], -1)
    if np.linalg.cond(V).max() <= EIGVEC_COND:        # the eigenvectors, S diagonal
        Z, S = V, lam.reshape(lam.shape[:-1] + (2, n))[..., None] * np.eye(n)
    else:
        Q = np.linalg.qr(np.moveaxis(V.reshape(V.shape[:-1] + (2, n)), -2, -3),
                         mode="complete").Q
        F = Q.conj().swapaxes(-1, -2) @ Db[..., None, :, :] @ Q
        ident = np.eye(n)
        K = (np.einsum("...ik,jl->...ijkl", F[..., n:, n:], ident)
             - np.einsum("ik,...lj->...ijkl", ident, F[..., :n, :n]))
        shape = F.shape[:-2]
        X = np.linalg.solve(K.reshape(shape + (n * n, n * n)),
                            -F[..., n:, :n].reshape(shape + (n * n, 1))).reshape(shape + (n, n))
        Y = Q[..., :n] + Q[..., n:] @ X
        S = F[..., :n, :n] + F[..., :n, n:] @ X
        Z = np.moveaxis(Y, -3, -2).reshape(Y.shape[:-3] + (2 * n, 2 * n))
    ex = expm(np.array([-T, T])[:, None, None] * S)                     # e^{-T S+}, e^{T S-}
    c = np.linalg.solve(Z, np.eye(2 * n, n, -n))
    Z = np.concatenate([s * Z[..., :n, :], Z[..., n:, :]], axis=-2)       # D's [X+ X-]
    N = np.concatenate([
        np.concatenate([Z[..., n:, :n], Z[..., n:, n:] @ ex[..., 1, :, :] @ c[..., n:, :]], -1),
        np.concatenate([ex[..., 0, :, :], -c[..., :n, :]], -1)], -2)
    return BvpMatrices(D=D, Z=Z, S=S, c=c, N=N)
