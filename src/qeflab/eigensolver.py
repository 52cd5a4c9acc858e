"""Eigenfrequencies and eigenfunctions of the commutator-kernel operator.

The skew self-adjoint integral operator L with kernel Lambda(s - t) has
purely imaginary eigenvalues +- i omega_k.  A positive omega is an
eigenfrequency exactly when det E(omega) = 0 with E(omega) =
U e^{T D(omega)} V, and each kernel vector f(0) of E(omega) propagates
to an eigenfunction f(t) = [I 0] e^{t D(omega)} V f(0).  Writing
f = phi + i psi, normalization ||f|| = 1 forces ||phi||^2 = ||psi||^2
= 1/2 and <phi, psi> = 0, which is what downstream consumers rely on.

Roots are located by sampling ln |det E| over a frequency band; the
brackets of all its local minima shrink together, one batched
evaluation per step, and a minimum is accepted when
|det E(omega)| / |det G(T)| <= 1e-8.  The retained eigenpairs form the
spectral basis, checked by its Gram matrix and its Mercer residual.  A
dense Nystrom discretization K of L provides an independent oracle for
the same eigenfrequencies, the square roots of the eigenvalues of K^T K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .errors import (
    CaptureUnreachable,
    InvalidParameter,
    NoRootsFound,
    NonpositiveOmega,
    RankCollapse,
    RefinementStalled,
)
from .kernels import BvpMatrices, KernelContext, apply_L, bvp_matrices, expm, weighted_matrix
from .quadrature import Grid

DET_ACCEPT_RTOL = 1e-8      # |det E| / |det G(T)| at an accepted root
DET_STALL_RTOL = 1e-6       # between accept and this: refinement stalled
KERNEL_SV_RTOL = 1e-8       # singular values below this fraction of sigma_max span ker E
ROOT_MERGE_RTOL = 1e-8
DEFAULT_SAMPLES = 400
REFINE_POINTS = 9           # frequencies per bracket in each refinement step
REFINE_XTOL = 1e-12         # relative bracket width at which refinement stops
GRAM_ATOL = 1e-8            # largest entry of the basis Gram minus I/2
RANK_ATOL = 1e-8            # kernel-row change within which a root's functions collapse


@dataclass(frozen=True, eq=False)
class Root:
    """Refined root of det E(omega): D(omega), E(omega) and ker E(omega) as rows."""

    omega: float
    det_ratio: float
    kernel: np.ndarray
    bvp: BvpMatrices

    @property
    def multiplicity(self) -> int:
        return len(self.kernel)


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One eigenfrequency with its normalized eigenfunction on the grid.

    phi and psi are the real and imaginary parts of f, sampled at the
    quadrature nodes.  bvp_residual is the quadrature-route residual
    ||apply_L(f) - i omega f|| (independent of the shooting propagation);
    boundary_residual is ||E(omega) f0|| for the unit kernel vector.
    """

    omega: float
    f0: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    multiplicity: int
    bvp_residual: float
    boundary_residual: float


@dataclass(frozen=True, eq=False)
class NystromResult:
    """Dense-discretization spectrum of L (the verification oracle)."""

    eigenvalues: np.ndarray   # -omegas and +omegas, ascending
    omegas: np.ndarray        # positive eigenfrequencies, descending


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Retained eigenpairs ordered by descending omega, plus diagnostics."""

    pairs: tuple[EigenPair, ...]
    grid: Grid
    hs_total: float
    hs_captured: float
    capture_fraction: float
    mercer_residual: float
    gram_max_dev: float

    @property
    def omegas(self) -> np.ndarray:
        return np.array([p.omega for p in self.pairs])


def scan_eigenfrequencies(ctx: KernelContext, omega_min: float, omega_max: float,
                          samples: int = DEFAULT_SAMPLES) -> list[Root]:
    """Locate and refine all roots of det E(omega) in [omega_min, omega_max].

    Samples ln(|det E|/|det G(T)|) on a uniform frequency grid and
    brackets its interior local minima.  Each step resamples every
    bracket at REFINE_POINTS frequencies in one bvp_matrices call and
    shrinks it to the two neighbours of its lowest sample, until all are
    narrower than REFINE_XTOL relative.  Keeps refined points with
    |det E|/|det G(T)| <= 1e-8.
    Returns roots in descending omega order.
    """
    if not (0.0 < omega_min < omega_max):
        raise NonpositiveOmega(f"need 0 < omega_min < omega_max, got ({omega_min}, {omega_max})")
    if samples < 3:
        raise InvalidParameter(f"eigen.samples must be at least 3, got {samples}")
    log_g = float(np.linalg.slogdet(ctx.gram)[1])

    def log_ratio(w: np.ndarray) -> np.ndarray:
        return np.linalg.slogdet(bvp_matrices(ctx, w).E)[1] - log_g

    ws = np.linspace(omega_min, omega_max, samples)
    logs = log_ratio(ws)
    i = np.flatnonzero((logs[1:-1] < logs[:-2]) & (logs[1:-1] <= logs[2:])) + 1
    # refine every bracket [ws[i-1], ws[i+1]] at once: resample each one
    # and keep the two neighbours of its lowest sample
    lo, hi = ws[i - 1], ws[i + 1]
    rows = np.arange(i.size)
    omegas, log_ratios = ws[i], logs[i]
    while np.any(hi - lo > REFINE_XTOL * (lo + hi)):
        w = np.linspace(lo, hi, REFINE_POINTS, axis=-1)
        f = log_ratio(w)
        j = np.argmin(f, axis=-1)
        omegas, log_ratios = w[rows, j], f[rows, j]
        lo = w[rows, np.maximum(j - 1, 0)]
        hi = w[rows, np.minimum(j + 1, REFINE_POINTS - 1)]

    roots: list[tuple[float, float]] = []
    for w, d in zip(omegas.tolist(), np.exp(log_ratios).tolist()):
        if d <= DET_ACCEPT_RTOL:
            roots.append((w, d))
        elif d <= DET_STALL_RTOL:
            raise RefinementStalled(
                f"local minimum near omega={w:.6g} refined only to |det E|/|det G|={d:.3e}")
        # larger minima are not roots; ignore

    if not roots:
        raise NoRootsFound(
            f"no eigenfrequencies with |det E|/|det G(T)| <= {DET_ACCEPT_RTOL} "
            f"in [{omega_min}, {omega_max}]")

    roots.sort()
    merged: list[tuple[float, float]] = []
    for w, d in roots:
        if merged and abs(w - merged[-1][0]) <= ROOT_MERGE_RTOL * max(1.0, w):
            if d < merged[-1][1]:
                merged[-1] = (w, d)
            continue
        merged.append((w, d))

    out = []
    for w, d in merged:
        bvp = bvp_matrices(ctx, w)
        _, sv, Vh = np.linalg.svd(bvp.E)          # ker E(w) by singular values, one row each
        kernel = Vh[np.flatnonzero(sv < KERNEL_SV_RTOL * sv[0])].conj()
        if len(kernel) == 0:
            continue  # determinant dip without an actual kernel: spurious
        out.append(Root(omega=w, det_ratio=d, kernel=kernel, bvp=bvp))
    if not out:
        raise NoRootsFound("all refined minima were spurious (no kernel vectors)")
    out.sort(key=lambda r: -r.omega)
    return out


def _canonical_phase(f0: np.ndarray) -> complex:
    """Phase factor making the largest-magnitude entry of f0 real positive."""
    k = int(np.argmax(np.abs(f0)))
    z = f0[k]
    if z == 0:
        return 1.0 + 0.0j
    return np.conj(z) / abs(z)


def _propagator(ctx: KernelContext, D: np.ndarray) -> np.ndarray:
    """[I 0] e^{t D} V at every grid node t, shape (N, n, n).

    A node is t = t_p + x_q, its panel's left edge plus one of the Q offsets
    every panel repeats, so e^{t_p D} e^{x_q D} takes P + Q exponentials, not N.
    """
    Q, n = ctx.grid.order, ctx.n
    ex = expm(np.concatenate([ctx.grid.nodes[:Q], ctx.grid.edges[:-1]])[:, None, None] * D)
    return (ex[Q:, None, :n] @ (ex[:Q] @ ctx.V)).reshape(-1, n, n)


def eigenfunction_from_root(ctx: KernelContext, root: Root) -> list[EigenPair]:
    """Propagate the root's kernel vectors to orthonormal eigenpairs.

    Each initial condition [f(0); f'(0)] = V f(0) satisfies the left
    boundary condition exactly by construction; the terminal condition
    quality is recorded as boundary_residual.  The k = multiplicity
    propagated functions f are orthonormalized together as
    f S^{-1} C^{-H}, where S holds their L2 norms and C C^H is the
    Cholesky factorization of their Gram matrix normalized to a unit
    diagonal; for k = 1 this is plain normalization.  RankCollapse is
    raised when k > 1 and a pivot of the QR factorization of
    sqrt(w) f S^{-1} (the residual norm Gram-Schmidt would test) is below
    RANK_ATOL times the gain of the map from a unit initial vector to
    sqrt(w) f S^{-1}: the k functions are then within a RANK_ATOL change
    of the kernel rows from dependence.  Those pivots are accurate to
    rounding, where the pivots of C, from the squared Gram, are accurate
    only to sqrt(eps).
    """
    omega, grid = root.omega, ctx.grid
    prop = _propagator(ctx, root.bvp.D)                      # (N, n, n)
    f = prop @ root.kernel.T                                 # (N, n, k)
    gram = np.einsum('aij,aik->jk', f.conj(), grid.weights[:, None, None] * f)
    scale = np.sqrt(gram.diagonal().real)
    # sqrt(w) f for every initial vector: a change of RANK_ATOL in a unit
    # kernel row moves the normalized functions by up to RANK_ATOL times
    # this map's gain (bounded by its Frobenius norm), so functions no
    # farther than that from dependence have collapsed (one never has)
    wprop = (np.sqrt(grid.weights)[:, None, None] * prop).reshape(-1, ctx.n)
    gain = np.linalg.norm(wprop) / scale.min()
    pivots = np.abs(np.linalg.qr(wprop @ root.kernel.T / scale, mode='r').diagonal())
    try:
        collapsed = root.multiplicity > 1 and not pivots.min() >= RANK_ATOL * gain
        C = np.linalg.cholesky(gram / np.outer(scale, scale))
    except np.linalg.LinAlgError:   # not positive definite: a pivot vanished
        collapsed = True
    if collapsed:
        raise RankCollapse(
            f"the {root.multiplicity} eigenfunctions at omega={omega:.6g} are linearly "
            "dependent")
    coef = np.linalg.inv(C).conj().T / scale[:, None]        # S^{-1} C^{-H}
    f, f0s = f @ coef, root.kernel.T @ coef
    pairs = []
    for j in range(root.multiplicity):
        phase = _canonical_phase(f0s[:, j])
        fj = f[..., j] * phase
        f0 = f0s[:, j] * (phase / np.linalg.norm(f0s[:, j]))
        lres = quadrature.norm(grid, apply_L(ctx, fj) - 1j * omega * fj)
        pairs.append(EigenPair(omega=omega, f0=f0, phi=fj.real.copy(), psi=fj.imag.copy(),
                               multiplicity=root.multiplicity, bvp_residual=lres,
                               boundary_residual=float(np.linalg.norm(root.bvp.E @ f0))))
    return pairs


def nystrom_oracle(ctx: KernelContext) -> NystromResult:
    """Spectrum of the weight-symmetrized dense discretization of L.

    K = [sqrt(w_a) Lambda(s_a - s_b) sqrt(w_b)] is real antisymmetric, so one
    real eigvalsh of K^T K = -K^2 gives each omega^2 twice; only rounding
    leaves nonpositive ones.  An omega is off by about eps omega_1^2 / omega.
    """
    K = weighted_matrix(ctx.grid, ctx.lambda_grid)
    K = 0.5 * (K - K.T)
    squares = np.linalg.eigvalsh(K.T @ K)[::-2]
    omegas = np.sqrt(squares[squares > 0.0])
    return NystromResult(eigenvalues=np.concatenate([-omegas, omegas[::-1]]), omegas=omegas)


def stack_hk(basis: SpectralBasis) -> np.ndarray:
    """Coefficient functions h_k = [phi_k psi_k], shape (modes, N, n, 2)."""
    return np.stack([np.stack([p.phi, p.psi], axis=-1) for p in basis.pairs])


def basis_gram(basis: SpectralBasis) -> np.ndarray:
    """All pairwise Gram blocks int h_j^T h_k dt, shape (r, r, 2, 2)."""
    hk = stack_hk(basis)
    w = basis.grid.weights
    return np.einsum('jaip,a,kaiq->jkpq', hk, w, hk)


def _mercer_residual(ctx: KernelContext, basis: SpectralBasis) -> float:
    """Mean-square misfit of the truncated kernel expansion over the grid."""
    if not basis.pairs:
        return ctx.hs_total
    hk = stack_hk(basis)
    N, n = ctx.grid.size, ctx.n
    # sum_k 2 omega_k h_k(s) bj h_k(t)^T as one rank-2r product; bj maps (phi, psi) to (-psi, phi)
    R = hk.transpose(1, 2, 0, 3).reshape(N * n, -1)                       # (N n, 2r)
    left = 2.0 * basis.omegas[:, None, None, None] * np.stack([-hk[..., 1], hk[..., 0]], axis=-1)
    L = left.transpose(1, 2, 0, 3).reshape(N * n, -1)
    approx = (L @ R.T).reshape(N, n, N, n).transpose(0, 2, 1, 3)
    diff = ctx.lambda_grid - approx
    w = ctx.grid.weights
    return float(w @ (diff * diff).sum(axis=(2, 3)) @ w)


def build_basis(ctx: KernelContext, capture_fraction: float = 0.99, *,
                omega_min: float | None = None, omega_max: float | None = None,
                samples: int = DEFAULT_SAMPLES) -> SpectralBasis:
    """Scan the band, retain dominant modes until the HS capture is met.

    Each retained eigenpair contributes 2 omega_k^2 toward hs_captured;
    the default band upper edge uses the Hilbert-Schmidt bound
    omega_1 <= sqrt(hs_total / 2).  The default lower edge stays a factor
    10 below that: deeper tail roots make e^{T D(omega)} so large that
    det E cannot be certified to the acceptance ratio in double
    precision, and their 2 omega^2 weight is negligible.  Raises
    CaptureUnreachable when the band does not hold enough spectrum;
    widen it explicitly in that case.  Raises RefinementStalled when the
    retained eigenfunctions are not orthonormal: their Gram matrix must
    equal I/2 to GRAM_ATOL.
    """
    if not 0.0 < capture_fraction < 1.0:
        raise InvalidParameter(
            f"eigen.capture_fraction must be in (0, 1), got {capture_fraction}")
    hs_total = ctx.hs_total
    if omega_max is None:
        omega_max = 1.05 * float(np.sqrt(hs_total / 2.0))
    if omega_min is None:
        omega_min = omega_max / 10.0
    try:
        roots = scan_eigenfrequencies(ctx, omega_min, omega_max, samples)
    except NoRootsFound as exc:
        raise CaptureUnreachable(f"no eigenfrequencies found in the band: {exc}") from exc

    pairs: list[EigenPair] = []
    for root in roots:
        pairs.extend(eigenfunction_from_root(ctx, root))
    pairs.sort(key=lambda p: -p.omega)

    captured = 0.0
    retained: list[EigenPair] = []
    target = capture_fraction * hs_total
    for p in pairs:
        retained.append(p)
        captured += 2.0 * p.omega ** 2
        if captured >= target:
            break
    if captured < target:
        raise CaptureUnreachable(
            f"band [{omega_min:.3g}, {omega_max:.3g}] captures only "
            f"{captured / hs_total:.4f} of the HS norm (target {capture_fraction}); "
            "lower omega_min or raise samples")

    basis = SpectralBasis(
        pairs=tuple(retained), grid=ctx.grid, hs_total=hs_total,
        hs_captured=captured, capture_fraction=capture_fraction,
        mercer_residual=0.0, gram_max_dev=0.0,
    )
    target_gram = 0.5 * np.einsum('jk,pq->jkpq', np.eye(len(retained)), np.eye(2))
    gram_max_dev = float(np.max(np.abs(basis_gram(basis) - target_gram)))
    if not gram_max_dev <= GRAM_ATOL:
        raise RefinementStalled(
            f"basis Gram deviates from I/2 by {gram_max_dev:.3e} (limit {GRAM_ATOL}); "
            "the shooting eigenfunctions are not orthonormal on this grid")
    return replace(basis, mercer_residual=_mercer_residual(ctx, basis),
                   gram_max_dev=gram_max_dev)
