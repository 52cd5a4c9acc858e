"""Eigenfrequencies and eigenfunctions of the commutator-kernel operator.

The skew self-adjoint integral operator L with kernel Lambda(s - t) has
purely imaginary eigenvalues +- i omega_k.  A positive omega is an
eigenfrequency exactly when the terminal block Y(T) of the boundary
system in kernels is singular, and each y(0) in its kernel propagates
from [0; y(0)] to an eigenfunction f(t) = x(t) + B y(t), B = -(i/omega)
Theta.  Both are read from the bounded matrix N(omega) of the ordered
split (kernels.bvp_matrices), which is singular with Y(T) at any
horizon.  Writing f = phi + i psi, normalization ||f|| = 1 forces
||phi||^2 = ||psi||^2 = 1/2 and <phi, psi> = 0, which is what
downstream consumers rely on.

The dense Nystrom discretization of L lists every eigenfrequency in the
right count, to the grid's accuracy; a batched secant on det N(omega)
refines each one it seeds, and a refined omega is a root when N(omega)
has a kernel; a seed without a root of its own is an error.  One QR per root
orthonormalizes its eigenfunctions into weighted node-major mode columns
sqrt(2w) phi and sqrt(2w) psi.  The spectral basis holds the retained pairs'
omegas, multiplicities and residuals as arrays, one entry per pair, beside
the one mode matrix of all their columns, checked by its Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CaptureUnreachable,
    DeterminantIdentityViolated,
    InvalidParameter,
    NoRootsFound,
    NonpositiveOmega,
    RankCollapse,
    RefinementStalled,
)
from .kernels import BvpMatrices, KernelContext, bvp_matrices, expm
from .quadrature import Grid

KERNEL_SV_RTOL = 1e-8       # singular values below this fraction of sigma_max span ker N
ROOT_MERGE_RTOL = 1e-8      # seeds or roots this close (times max(1, omega)) are one
SEED_OFFSET = 1e-7          # relative offset of each secant's first point below its seed
REFINE_XTOL = 1e-12         # relative secant step at which refinement stops
REFINE_STEPS = 30           # secant steps per bracket at most
GRAM_ATOL = 1e-8            # largest entry of the basis Gram minus I/2
RANK_ATOL = 1e-8            # kernel-row change within which a root's functions collapse
TAIL_SCALE = 100.0          # the assembly check's omega in units of sqrt(hs_exact / 2)
TAIL_IDENTITY_RTOL = 1e-2   # relative misfit of ln Delta there to -hs_exact / (2 omega^2)


@dataclass(frozen=True, eq=False)
class Root:
    """Refined root of det N(omega): its split and ker N(omega) as rows [a; y(0)]."""

    omega: float
    kernel: np.ndarray
    bvp: BvpMatrices

    @property
    def multiplicity(self) -> int:
        return len(self.kernel)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Retained eigenpairs ordered by descending omega, one array entry each, plus diagnostics.

    Pair k's f = phi + i psi is the columns 2k and 2k + 1 of modes; its
    bvp_residual is ||K y - i omega y||_2 of y = sqrt(w) f, K =
    ctx.nystrom_matrix (not the shooting propagation), and its bounded
    boundary_residual ||N(omega) v|| for the unit [a; y(0)] that starts f.
    """

    omegas: np.ndarray
    multiplicity: np.ndarray
    bvp_residual: np.ndarray
    boundary_residual: np.ndarray
    modes: np.ndarray         # sqrt(2w) phi_k, sqrt(2w) psi_k node-major, (N n, 2r), orthonormal
    grid: Grid
    hs_total: float
    hs_captured: float
    gram_max_dev: float


def _det_root(N: np.ndarray, k: np.ndarray, near: np.ndarray) -> np.ndarray:
    """det(N)^(1/k) of each matrix in the stack N, on the k-th-root branch nearest near."""
    r = np.linalg.det(N) ** (1.0 / k)
    with np.errstate(divide='ignore', invalid='ignore'):      # det 0 leaves g = 0
        turns = np.round(np.angle(near / r) * k / (2.0 * np.pi))
    return r * np.exp(2j * np.pi / k * np.where(np.isfinite(turns), turns, 0.0))


def scan_eigenfrequencies(ctx: KernelContext, omega_min: float,
                          omega_max: float) -> list[Root]:
    """Refine every Nystrom omega in [omega_min, omega_max] to a root of det N(omega).

    N is the bounded boundary matrix of kernels.bvp_matrices.  Each
    distinct omega_N of ctx.nystrom_omegas (the k seeds within
    ROOT_MERGE_RTOL max(1, omega) of each other are one) starts a secant
    on g(omega) = det N(omega)^(1/k), which has a simple zero even where
    det N has a k-fold one; each evaluation keeps the branch of the k-th
    root nearest the secant's linear prediction.  The secant starts from
    (omega_N (1 - SEED_OFFSET), omega_N), takes the real part of each
    complex step and clips the iterate to halfway to the neighbouring
    seeds (to half the bottom seed, to 1.5 the top one); every step
    advances all unfinished seeds in one bvp_matrices call.  The first
    call also evaluates N at omega_inf = TAIL_SCALE sqrt(hs_exact / 2),
    far above every omega_k, and raises DeterminantIdentityViolated
    unless ln Delta(omega_inf) = ln |det N| + T Re tr S+ + T tr A matches
    -hs_exact / (2 omega_inf^2) to TAIL_IDENTITY_RTOL relative, or to the
    rounding of ln |det N| where that is coarser: a broken assembly of
    D(omega), never a coarse grid or a long horizon.  A secant stops when
    its step falls below REFINE_XTOL relative, after REFINE_STEPS steps
    at most.  One more call evaluates every refined omega, which is a
    root when N(omega) has singular values below KERNEL_SV_RTOL
    sigma_max; their right singular vectors [a; y(0)] are its kernel
    rows.  Returns roots in descending omega order, one per
    seed: a seed whose refined omega has no kernel, or lands within
    ROOT_MERGE_RTOL max(1, omega) of another seed's, raises
    RefinementStalled naming both, and a band without a seed raises
    NoRootsFound.
    """
    if not (0.0 < omega_min <= omega_max):
        raise NonpositiveOmega(f"need 0 < omega_min <= omega_max, got ({omega_min}, {omega_max})")
    s = ctx.nystrom_omegas
    new = np.append(True, s[:-1] - s[1:] > ROOT_MERGE_RTOL * np.maximum(1.0, s[:-1]))
    first = np.flatnonzero(new)
    s, k = s[first], np.diff(np.append(first, s.size))       # distinct seeds, multiplicities
    half = 0.5 * np.append(s[:-1] - s[1:], s[-1:])           # to the next seed down, or 0
    band = (s >= omega_min) & (s <= omega_max)
    if not band.any():
        raise NoRootsFound(f"no Nystrom omega in [{omega_min}, {omega_max}]")
    lo, hi = (s - half)[band], (s + np.append(0.5 * s[:1], half[:-1]))[band]
    seeds = x1 = s[band]
    k = k[band]
    x0 = x1 * (1.0 - SEED_OFFSET)
    omega_inf = TAIL_SCALE * float(np.sqrt(ctx.hs_exact / 2.0))
    bvp = bvp_matrices(ctx, np.concatenate([x0, x1, [omega_inf]]))
    # Delta = prod_k (1 - omega_k^2 / omega^2), and sum_k omega_k^2 = ||L||^2_HS / 2;
    # ln |det Y(T)| = ln |det N| + T Re tr S+
    N = bvp.N[-1]
    got = (np.linalg.slogdet(N)[1]
           + ctx.grid.T * (np.trace(bvp.S[-1, 0]).real + np.trace(ctx.sys.A)))
    want = -ctx.hs_exact / (2.0 * omega_inf ** 2)
    rel = abs(got / want - 1.0)
    # N's entries are good to eps max(1, ||N||), which moves ln |det N| by up to
    # ||N^-1|| times that: past the target where N has lost its O(1) scale
    with np.errstate(divide='ignore'):
        noise = np.finfo(float).eps * max(1.0, np.linalg.norm(N, 2)) / np.linalg.norm(N, -2)
    if not (rel <= TAIL_IDENTITY_RTOL or abs(got - want) <= noise):
        raise DeterminantIdentityViolated(
            f"ln Delta({omega_inf:.4g}) deviates from -||L||^2_HS / (2 omega^2) by {rel:.3e} "
            "relative")
    omegas = x1.copy()
    live = np.arange(x1.size)                     # seeds still refining
    g0 = _det_root(bvp.N[:x1.size], k, 1.0)
    g1 = _det_root(bvp.N[x1.size:-1], k, g0)
    for _ in range(REFINE_STEPS):
        slope = (g1 - g0) / (x1 - x0)
        with np.errstate(divide='ignore', invalid='ignore'):
            step = np.real(g1 / slope)
        x2 = np.clip(x1 - np.where(np.isfinite(step), step, 0.0), lo, hi)
        omegas[live] = x2
        go = np.abs(x2 - x1) > REFINE_XTOL * x2
        if not go.any():
            break
        near = (g1 + (x2 - x1) * slope)[go]
        live, lo, hi, k = live[go], lo[go], hi[go], k[go]
        x0, g0, x1 = x1[go], g1[go], x2[go]
        g1 = _det_root(bvp_matrices(ctx, x1).N, k, near)

    bvp = bvp_matrices(ctx, omegas)
    _, sv, Vh = np.linalg.svd(bvp.N)              # ker N(omega) by singular values, one row each
    out: list[Root] = []
    for i in range(seeds.size - 1, -1, -1):       # ascending, as the seeds' brackets are
        w = float(omegas[i])
        if out and abs(w - out[-1].omega) <= ROOT_MERGE_RTOL * max(1.0, w):
            raise RefinementStalled(
                f"the Nystrom seeds {seeds[i + 1]:.10g} and {seeds[i]:.10g} both refine to "
                f"omega = {w:.10g}")
        kernel = Vh[i, sv[i] < KERNEL_SV_RTOL * sv[i, 0]].conj()
        if not len(kernel):
            raise RefinementStalled(
                f"the Nystrom seed {seeds[i]:.10g} refines to omega = {w:.10g}, where N(omega) "
                "has no kernel")
        out.append(Root(omega=w, kernel=kernel, bvp=BvpMatrices(*(f[i] for f in bvp))))
    return out[::-1]


def _propagator(ctx: KernelContext, bvp: BvpMatrices) -> np.ndarray:
    """The map from [a; y(0)] in ker N to f(t) = x(t) + B y(t) at the grid nodes, (..., N, n, 2n).

    With N [a; y(0)] = 0 the state e^{t D} [0; y(0)] is z(t) = X+
    e^{-(T - t) S+} a + X- e^{t S-} c- y(0).  D(omega) is Hamiltonian, so
    its spectrum is symmetric about the imaginary axis: S+ has no
    eigenvalue left of it, S- none right of it, and no factor grows on
    [0, T].  B = D[:n, :n] - A.
    """
    n, T, t = ctx.n, ctx.grid.T, ctx.grid.nodes
    rows = bvp.Z[..., :n, :] + (bvp.D[..., :n, :n] - ctx.sys.A) @ bvp.Z[..., n:, :]   # [I B] Z
    ex = expm(np.stack([t - T, t], -1)[:, :, None, None] * bvp.S[..., None, :, :, :])
    # [I B] X+ e^{(t - T) S+} and [I B] X- e^{t S-} c- at every node
    plus = rows[..., None, :, :n] @ ex[..., 0, :, :]
    minus = rows[..., None, :, n:] @ ex[..., 1, :, :] @ bvp.c[..., None, n:, :]
    return np.concatenate([plus, minus], axis=-1)


def eigenfunction_from_root(ctx: KernelContext, root: Root) -> tuple[np.ndarray, ...]:
    """Root's k eigenfunctions: mode columns (N n, 2k), bvp_residual, boundary_residual.

    The split's propagation from a kernel vector [a; y(0)] of N meets the
    terminal condition y(T) = 0 exactly and the initial one x(0) = 0 up
    to N's residual on it, the boundary_residual.  The k propagated
    functions f are orthonormalized together by one QR factorization
    sqrt(w) f S^{-1} = Q R, S their L2 norms: Q's columns are the
    weighted eigenfunctions, turned so that y(0)'s largest entry is real,
    and their kernel vectors follow from a solve with R.  RankCollapse is
    raised when k > 1 and a pivot of R (the residual norm Gram-Schmidt
    would test) is below RANK_ATOL times the gain of the map from a unit
    kernel vector to sqrt(w) f S^{-1}: the k functions are then within a
    RANK_ATOL change of the kernel rows from dependence.
    """
    omega, n, sw = root.omega, ctx.n, np.sqrt(ctx.grid.weights)[:, None, None]
    wprop = (sw * _propagator(ctx, root.bvp)).reshape(-1, 2 * n)         # (N n, 2n)
    wf = wprop @ root.kernel.T                                           # sqrt(w) f, (N n, k)
    scale = np.linalg.norm(wf, axis=0)
    # a change of RANK_ATOL in a unit kernel row moves the normalized
    # functions by up to RANK_ATOL times this map's gain (bounded by its
    # Frobenius norm), so functions no farther than that from dependence
    # have collapsed (one never has)
    gain = np.linalg.norm(wprop) / scale.min()
    Q, R = np.linalg.qr(wf / scale)
    if root.multiplicity > 1 and not np.abs(R.diagonal()).min() >= RANK_ATOL * gain:
        raise RankCollapse(
            f"the {root.multiplicity} eigenfunctions at omega={omega:.6g} are linearly "
            "dependent")
    starts = np.linalg.solve(R.T, root.kernel / scale[:, None])  # row j starts Q's column j
    K = ctx.nystrom_matrix
    modes, lres, bres = [], [], []
    for j in range(root.multiplicity):
        z = starts[j, n + np.argmax(np.abs(starts[j, n:]))]   # y(0)'s largest entry, made real
        phase = np.conj(z) / abs(z)
        y = Q[:, j] * phase
        modes += [y.real, y.imag]
        # the real K acts on the real and imaginary parts apart, with no complex copy
        lres.append(np.linalg.norm(K @ y.real + 1j * (K @ y.imag) - 1j * omega * y))
        start = starts[j] * (phase / np.linalg.norm(starts[j]))
        bres.append(np.linalg.norm(root.bvp.N @ start))
    return np.sqrt(2.0) * np.stack(modes, -1), np.array(lres), np.array(bres)


def nystrom_oracle(ctx: KernelContext) -> np.ndarray:
    """Positive eigenfrequencies of the dense discretization of L, descending.

    Reads ctx.nystrom_omegas, the one eigvalsh per context that also
    seeds the root scan.
    """
    return ctx.nystrom_omegas


def basis_gram(basis: SpectralBasis) -> np.ndarray:
    """All pairwise Gram blocks int h_j^T h_k dt, shape (r, r, 2, 2)."""
    r = basis.omegas.size
    return (0.5 * basis.modes.T @ basis.modes).reshape(r, 2, r, 2).transpose(0, 2, 1, 3)


def build_basis(ctx: KernelContext, capture_fraction: float = 0.99) -> SpectralBasis:
    """Refine the dominant Nystrom modes, retain them until the HS capture is met.

    The basis keeps the shortest prefix of the eigenpairs whose 2 sum
    omega_k^2, hs_captured, reaches the target capture_fraction hs_total.
    The scan seeds the shortest prefix of ctx.nystrom_omegas whose
    2 sum omega^2 reaches that target plus hs_total - hs_exact, by which
    that list (summing to hs_total) can overstate the roots, but not past
    hs_exact, the sum of all roots.
    Raises CaptureUnreachable when the roots capture less than the
    target, RefinementStalled when a seed refines to no root of its own
    or the retained eigenfunctions' Gram matrix is not I/2 to GRAM_ATOL,
    and InvalidParameter unless
    0 < hs_total < inf, as for a horizon T far beyond the kernel's decay.
    """
    if not 0.0 < capture_fraction < 1.0:
        raise InvalidParameter(
            f"eigen.capture_fraction must be in (0, 1), got {capture_fraction}")
    hs_total = ctx.hs_total
    if not 0.0 < hs_total < np.inf:
        raise InvalidParameter(
            f"the squared HS norm of L is {hs_total} on the grid of oscillator.T = "
            f"{ctx.grid.T:g}: the kernel quadrature leaves the double range")
    target = capture_fraction * hs_total
    reach = min(target + max(0.0, hs_total - ctx.hs_exact), ctx.hs_exact)
    seeds = ctx.nystrom_omegas
    last = min(int(np.searchsorted(np.cumsum(2.0 * seeds ** 2), reach)), seeds.size - 1)
    roots = scan_eigenfrequencies(ctx, seeds[last], seeds[0])

    modes, lres, bres = zip(*(eigenfunction_from_root(ctx, root) for root in roots))
    k = [root.multiplicity for root in roots]
    omegas, multiplicity = np.repeat([root.omega for root in roots], k), np.repeat(k, k)
    captured = np.cumsum(2.0 * omegas ** 2)
    r = int(np.searchsorted(captured, target)) + 1
    if r > omegas.size:
        raise CaptureUnreachable(
            f"the {len(roots)} roots refined from the leading {last + 1} Nystrom omegas "
            f"capture only {captured[-1] / hs_total:.4f} of the HS norm (target "
            f"{capture_fraction}); refine the grid or lower eigen.capture_fraction")

    modes = np.concatenate(modes, axis=1)[:, :2 * r]
    # basis_gram is half of modes^T modes: this is its largest deviation from I/2
    gram_max_dev = 0.5 * float(np.max(np.abs(modes.T @ modes - np.eye(modes.shape[1]))))
    if not gram_max_dev <= GRAM_ATOL:
        raise RefinementStalled(
            f"basis Gram deviates from I/2 by {gram_max_dev:.3e} (limit {GRAM_ATOL}); "
            "the shooting eigenfunctions are not orthonormal on this grid")
    return SpectralBasis(
        omegas=omegas[:r], multiplicity=multiplicity[:r], bvp_residual=np.concatenate(lres)[:r],
        boundary_residual=np.concatenate(bres)[:r], modes=modes, grid=ctx.grid,
        hs_total=hs_total, hs_captured=float(captured[r - 1]), gram_max_dev=gram_max_dev,
    )
