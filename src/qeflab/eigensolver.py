"""Eigenfrequencies and eigenfunctions of the commutator-kernel operator.

The skew self-adjoint integral operator L with kernel Lambda(s - t) has
purely imaginary eigenvalues +- i omega_k.  A positive omega is an
eigenfrequency exactly when det E(omega) = 0, E(omega) = Y(T) the
terminal block of the boundary system in kernels, and each kernel
vector y(0) of E(omega) propagates from [0; y(0)] to an eigenfunction
f(t) = x(t) + B y(t), B = -(i/omega) Theta.  Writing f = phi + i psi,
normalization ||f|| = 1 forces ||phi||^2 = ||psi||^2 = 1/2 and
<phi, psi> = 0, which is what downstream consumers rely on.

The dense Nystrom discretization of L lists every eigenfrequency in the
right count, to the grid's accuracy; a batched secant on E(omega) refines
each one it seeds, and a refined omega is a root when E(omega) has a
kernel; a seed without a root of its own is an error.  One QR per root
orthonormalizes its eigenfunctions, and each eigenpair holds them in one
form, its weighted node-major mode columns sqrt(2w) phi and sqrt(2w) psi.
The retained pairs' columns are the spectral basis's mode matrix, checked
by its Gram matrix and its Mercer residual.
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

KERNEL_SV_RTOL = 1e-8       # singular values below this fraction of sigma_max span ker E
ROOT_MERGE_RTOL = 1e-8      # seeds or roots this close (times max(1, omega)) are one
SEED_OFFSET = 1e-7          # relative offset of each secant's first point below its seed
REFINE_XTOL = 1e-12         # relative secant step at which refinement stops
REFINE_NOISE_RTOL = 1e-6    # a relative step below this that does not contract is noise
REFINE_STEPS = 30           # secant steps per bracket at most
GRAM_ATOL = 1e-8            # largest entry of the basis Gram minus I/2
RANK_ATOL = 1e-8            # kernel-row change within which a root's functions collapse
TAIL_SCALE = 100.0          # the assembly check's omega in units of sqrt(hs_total / 2)
TAIL_IDENTITY_RTOL = 1e-2   # relative misfit of ln Delta there to -hs_exact / (2 omega^2)


@dataclass(frozen=True, eq=False)
class Root:
    """Refined root of det E(omega): D(omega), E(omega) and ker E(omega) as rows."""

    omega: float
    kernel: np.ndarray
    bvp: BvpMatrices

    @property
    def multiplicity(self) -> int:
        return len(self.kernel)


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One eigenfrequency with its normalized eigenfunction f = phi + i psi.

    modes holds the columns sqrt(2w) phi and sqrt(2w) psi, node-major,
    shape (N n, 2): the layout of SpectralBasis.modes.  y0 is the unit
    kernel vector of E(omega) that starts f.  bvp_residual is the Nystrom
    residual ||K y - i omega y||_2 of y = sqrt(w) f, K =
    ctx.nystrom_matrix (independent of the shooting propagation);
    boundary_residual is ||E(omega) y0||.
    """

    omega: float
    y0: np.ndarray
    modes: np.ndarray
    multiplicity: int
    bvp_residual: float
    boundary_residual: float


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Retained eigenpairs ordered by descending omega, plus diagnostics."""

    pairs: tuple[EigenPair, ...]
    modes: np.ndarray         # sqrt(2w) phi_k, sqrt(2w) psi_k node-major, (N n, 2r), orthonormal
    grid: Grid
    hs_total: float
    hs_captured: float
    capture_fraction: float
    mercer_residual: float
    gram_max_dev: float

    @property
    def omegas(self) -> np.ndarray:
        return np.array([p.omega for p in self.pairs])


def _least_eigenvalue(E: np.ndarray) -> np.ndarray:
    """The least-modulus eigenvalue of each matrix in the stack E."""
    lam = np.linalg.eigvals(E)
    return np.take_along_axis(lam, np.argmin(np.abs(lam), axis=-1)[..., None], -1)[..., 0]


def scan_eigenfrequencies(ctx: KernelContext, omega_min: float,
                          omega_max: float) -> list[Root]:
    """Refine every Nystrom omega in [omega_min, omega_max] to a root of det E(omega).

    Each distinct omega_N of ctx.nystrom_omegas (seeds within
    ROOT_MERGE_RTOL max(1, omega) are one) starts a secant on
    lambda(omega), the least-modulus eigenvalue of E(omega), which has a
    simple zero even where det E has a semisimple double one.  The
    secant starts from (omega_N (1 - SEED_OFFSET), omega_N), takes the
    real part of each complex step and clips the iterate to halfway to
    the neighbouring seeds (to half the bottom seed, to 1.5 the top
    one); every step advances all unfinished seeds in one bvp_matrices
    call.  The first call also evaluates E at omega_inf = TAIL_SCALE
    sqrt(hs_total / 2), far above every omega_k, and raises
    DeterminantIdentityViolated unless ln Delta(omega_inf) =
    ln |det E(omega_inf)| + T tr A matches -hs_exact / (2 omega_inf^2) to
    TAIL_IDENTITY_RTOL relative: a broken assembly of D(omega) or a
    horizon the exponential cannot resolve, never a coarse grid.  A
    secant stops when its step falls below REFINE_XTOL relative, or at
    the noise floor, when a step below REFINE_NOISE_RTOL relative is no
    shorter than the one before (its last iterate is kept), and after
    REFINE_STEPS steps at most.  A refined omega is a root when E(omega)
    has singular values below KERNEL_SV_RTOL sigma_max; their right
    singular vectors are its kernel rows.  Returns roots in descending
    omega order, one per seed: a seed whose refined omega has no kernel,
    or lands within ROOT_MERGE_RTOL max(1, omega) of another seed's,
    raises RefinementStalled naming both, and a band without a seed
    raises NoRootsFound.  On long horizons E(omega) loses its digits, and
    only build_basis's Gram gate stops the roots it then yields (README
    oscillator at T = 4 and 8).
    """
    if not (0.0 < omega_min <= omega_max):
        raise NonpositiveOmega(f"need 0 < omega_min <= omega_max, got ({omega_min}, {omega_max})")
    s = ctx.nystrom_omegas
    s = s[np.append(True, s[:-1] - s[1:] > ROOT_MERGE_RTOL * np.maximum(1.0, s[:-1]))]
    half = 0.5 * np.append(s[:-1] - s[1:], s[-1:])           # to the next seed down, or 0
    band = (s >= omega_min) & (s <= omega_max)
    if not band.any():
        raise NoRootsFound(f"no Nystrom omega in [{omega_min}, {omega_max}]")
    lo, hi = (s - half)[band], (s + np.append(0.5 * s[:1], half[:-1]))[band]
    seeds = x1 = s[band]
    x0 = x1 * (1.0 - SEED_OFFSET)
    omega_inf = TAIL_SCALE * float(np.sqrt(ctx.hs_total / 2.0))
    E = bvp_matrices(ctx, np.concatenate([x0, x1, [omega_inf]])).E
    # Delta = prod_k (1 - omega_k^2 / omega^2), and sum_k omega_k^2 = ||L||^2_HS / 2
    want = -ctx.hs_exact / (2.0 * omega_inf ** 2)
    rel = abs((np.linalg.slogdet(E[-1])[1] + ctx.grid.T * np.trace(ctx.sys.A)) / want - 1.0)
    if not rel <= TAIL_IDENTITY_RTOL:
        raise DeterminantIdentityViolated(
            f"ln Delta({omega_inf:.4g}) deviates from -||L||^2_HS / (2 omega^2) by {rel:.3e} "
            "relative")
    lam = _least_eigenvalue(E[:-1])
    lam0, lam1 = lam[:x1.size], lam[x1.size:]
    last = np.full(x1.size, np.inf)               # the offset start is no step to judge
    omegas = x1.copy()
    live = np.arange(x1.size)                     # seeds still refining
    for _ in range(REFINE_STEPS):
        with np.errstate(divide='ignore', invalid='ignore'):
            step = np.real(lam1 * (x1 - x0) / (lam1 - lam0))
        x2 = np.clip(x1 - np.where(np.isfinite(step), step, 0.0), lo, hi)
        dx = np.abs(x2 - x1)
        converged = dx <= REFINE_XTOL * x2
        noisy = ~converged & (dx >= last) & (dx <= REFINE_NOISE_RTOL * x2)
        omegas[live] = np.where(noisy, x1, x2)
        go = ~(converged | noisy)
        if not go.any():
            break
        live, lo, hi, last = live[go], lo[go], hi[go], dx[go]
        x0, lam0, x1 = x1[go], lam1[go], x2[go]
        lam1 = _least_eigenvalue(bvp_matrices(ctx, x1).E)

    out: list[Root] = []
    for i in range(seeds.size - 1, -1, -1):       # ascending, as the seeds' brackets are
        w = float(omegas[i])
        if out and abs(w - out[-1].omega) <= ROOT_MERGE_RTOL * max(1.0, w):
            raise RefinementStalled(
                f"the Nystrom seeds {seeds[i + 1]:.10g} and {seeds[i]:.10g} both refine to "
                f"omega = {w:.10g}")
        bvp = bvp_matrices(ctx, w)
        _, sv, Vh = np.linalg.svd(bvp.E)          # ker E(w) by singular values, one row each
        kernel = Vh[np.flatnonzero(sv < KERNEL_SV_RTOL * sv[0])].conj()
        if not len(kernel):
            raise RefinementStalled(
                f"the Nystrom seed {seeds[i]:.10g} refines to omega = {w:.10g}, where E(omega) "
                "has no kernel")
        out.append(Root(omega=w, kernel=kernel, bvp=bvp))
    return out[::-1]


def _canonical_phase(y0: np.ndarray) -> complex:
    """Phase factor making the largest-magnitude entry of y0 real positive."""
    k = int(np.argmax(np.abs(y0)))
    z = y0[k]
    if z == 0:
        return 1.0 + 0.0j
    return np.conj(z) / abs(z)


def _propagator(ctx: KernelContext, D: np.ndarray) -> np.ndarray:
    """[I B] e^{t D} [0; I] at every grid node t, shape (N, n, n).

    It maps y(0) to f(t) = x(t) + B y(t); B = D[:n, :n] - A.  A node is
    t = t_p + x_q, its panel's left edge plus one of the Q offsets every
    panel repeats, so e^{t_p D} e^{x_q D} takes P + Q exponentials, not N.
    """
    Q, n = ctx.grid.order, ctx.n
    ex = expm(np.concatenate([ctx.grid.nodes[:Q], ctx.grid.edges[:-1]])[:, None, None] * D)
    rows = ex[Q:, :n] + (D[:n, :n] - ctx.sys.A) @ ex[Q:, n:]       # [I B] e^{t_p D}
    return (rows[:, None] @ ex[:Q, :, n:]).reshape(-1, n, n)


def eigenfunction_from_root(ctx: KernelContext, root: Root) -> list[EigenPair]:
    """Propagate the root's kernel vectors to orthonormal eigenpairs.

    Each initial condition [x(0); y(0)] = [0; y(0)] satisfies the left
    boundary condition exactly by construction; the terminal condition
    quality is recorded as boundary_residual.  The k = multiplicity
    propagated functions f are orthonormalized together by one QR
    factorization sqrt(w) f S^{-1} = Q R, S their L2 norms: Q's columns
    are the weighted eigenfunctions, and y(0) follows from a solve with
    R.  RankCollapse is raised when k > 1 and a pivot of R (the residual
    norm Gram-Schmidt would test) is below RANK_ATOL times the gain of
    the map from a unit initial vector to sqrt(w) f S^{-1}: the k
    functions are then within a RANK_ATOL change of the kernel rows from
    dependence.
    """
    omega, sw = root.omega, np.sqrt(ctx.grid.weights)[:, None, None]
    wprop = (sw * _propagator(ctx, root.bvp.D)).reshape(-1, ctx.n)       # (N n, n)
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
    y0s = np.linalg.solve(R.T, root.kernel / scale[:, None])     # row j starts Q's column j
    K = ctx.nystrom_matrix
    pairs = []
    for j in range(root.multiplicity):
        phase = _canonical_phase(y0s[j])
        y = Q[:, j] * phase
        y0 = y0s[j] * (phase / np.linalg.norm(y0s[j]))
        # the real K acts on the real and imaginary parts apart, with no complex copy
        lres = float(np.linalg.norm(K @ y.real + 1j * (K @ y.imag) - 1j * omega * y))
        pairs.append(EigenPair(omega=omega, y0=y0,
                               modes=np.sqrt(2.0) * np.stack([y.real, y.imag], -1),
                               multiplicity=root.multiplicity, bvp_residual=lres,
                               boundary_residual=float(np.linalg.norm(root.bvp.E @ y0))))
    return pairs


def nystrom_oracle(ctx: KernelContext) -> np.ndarray:
    """Positive eigenfrequencies of the dense discretization of L, descending.

    Reads ctx.nystrom_omegas, the one eigvalsh per context that also
    seeds the root scan.
    """
    return ctx.nystrom_omegas


def basis_gram(basis: SpectralBasis) -> np.ndarray:
    """All pairwise Gram blocks int h_j^T h_k dt, shape (r, r, 2, 2)."""
    r = len(basis.pairs)
    return (0.5 * basis.modes.T @ basis.modes).reshape(r, 2, r, 2).transpose(0, 2, 1, 3)


def _mercer_residual(ctx: KernelContext, modes: np.ndarray, omegas: np.ndarray) -> float:
    """Mean-square misfit of the truncated kernel expansion over the grid.

    ||K - (H - H^T)||_F^2 with H = sum_k omega_k a_k b_k^T, a_k and b_k the
    mode columns of phi_k and psi_k: H - H^T is the Nystrom matrix of
    sum_k 2 omega_k (phi_k(s) psi_k(t)^T - psi_k(s) phi_k(t)^T).
    """
    H = (modes[:, 0::2] * omegas) @ modes[:, 1::2].T
    diff = ctx.nystrom_matrix - (H - H.T)
    return float(np.vdot(diff, diff))


def build_basis(ctx: KernelContext, capture_fraction: float = 0.99) -> SpectralBasis:
    """Refine the dominant Nystrom modes, retain them until the HS capture is met.

    Each retained eigenpair contributes 2 omega_k^2 toward hs_captured.
    The scan seeds the shortest prefix of ctx.nystrom_omegas whose
    2 sum omega^2 reaches the target capture_fraction hs_total plus
    hs_total - hs_exact, by which that list (summing to hs_total) can
    overstate the roots, but not past hs_exact, the sum of all roots.
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

    pairs = [p for root in roots for p in eigenfunction_from_root(ctx, root)]
    captured = 0.0
    retained: list[EigenPair] = []
    for p in pairs:
        retained.append(p)
        captured += 2.0 * p.omega ** 2
        if captured >= target:
            break
    if captured < target:
        raise CaptureUnreachable(
            f"the {len(roots)} roots refined from the leading {last + 1} Nystrom omegas "
            f"capture only {captured / hs_total:.4f} of the HS norm (target "
            f"{capture_fraction}); refine the grid or lower eigen.capture_fraction")

    modes = np.concatenate([p.modes for p in retained], axis=1)
    # basis_gram is half of modes^T modes: this is its largest deviation from I/2
    gram_max_dev = 0.5 * float(np.max(np.abs(modes.T @ modes - np.eye(modes.shape[1]))))
    if not gram_max_dev <= GRAM_ATOL:
        raise RefinementStalled(
            f"basis Gram deviates from I/2 by {gram_max_dev:.3e} (limit {GRAM_ATOL}); "
            "the shooting eigenfunctions are not orthonormal on this grid")
    omegas = np.array([p.omega for p in retained])
    return SpectralBasis(
        pairs=tuple(retained), modes=modes, grid=ctx.grid, hs_total=hs_total,
        hs_captured=captured, capture_fraction=capture_fraction,
        mercer_residual=_mercer_residual(ctx, modes, omegas), gram_max_dev=gram_max_dev,
    )
