"""Reference implementations that the tests compare the pipeline against.

Nothing in qeflab calls these.  Each computes a quantity the package
also reaches, by an independent route or as a direct consequence of the
theory, so that agreement checks the package's own evaluation:

- the companion-form boundary system, built from A, Theta and mho with
  mho^-1 and Theta^-1: its Green-function formula against the dense
  commutator-kernel quadrature, its determinant ratio against the
  package's det Y(T) e^{T tr A} from the split, its second-order eigen-ODE against
  the shooting eigenfunctions, and its 40-digit Delta and roots against
  the package's determinant and the shooting roots.  It needs a
  nonsingular mho, so it is the reference for m = n specs with
  full-rank M only; the package itself reads A and Theta alone and runs
  m < n as well;
- the one-sided propagation of L against the dense kernel quadrature,
  and that quadrature as one three-operand einsum, against the
  Nystrom matrix K that the package reads;
- the Fredholm determinant of a one-sided-exponential kernel from one
  matrix exponential of its boundary system (boundary_logdet), against
  the Nystrom determinants of L and of the covariance kernel;
- the shooting propagation with one matrix exponential per node, against
  the split's bounded propagator, and the Nystrom spectrum from a complex
  Hermitian eigvalsh, against the real one of K^T K;
- the spectral action of K and the surrogate covariance, against the
  retained modes;
- the dense spectrum of sqrt(K) P sqrt(K), against the low-rank
  log-determinant and Lanczos radius of the spectral cache;
- the critical theta by bisection on the Lanczos radius, against the
  bisection on the log-determinant's Cholesky verdict;
- a coordinate change of the oscillator, against the realizability
  identity;
- the kernel grid assembled by gathering e^{|tau| A} to every node pair
  first, against the base applied once per panel lag;
- one Monte-Carlo batch drawn and weighted on its own, with y = z P_h^{1/2}
  from a dense symmetric root of P_h, against the stacked groups of
  batches and their root-free z P_h z^T and z P_h^{1/2} U;
- the inverse of the Fock sigma(omega) map, and the Fock left side as a
  dense matrix exponential;
- the panel Legendre running integrals and spectral derivative these
  routes are built from, the running integrals at arbitrary times, one
  point at a time, against the cell integrals of the Monte-Carlo
  geometry, and the quadrature integral, inner product and norm of grid
  functions;
- the coefficient functions h_k of the retained pairs, against the
  basis's weighted mode matrix.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import scipy.linalg
from numpy.polynomial import legendre

from qeflab import mc
from qeflab.errors import GridMismatch, InvalidParameter
from qeflab.fock import SIGMA_SUP, TruncatedPair, corner_error, lhs_exponential
from qeflab.kernels import KernelContext, expm
from qeflab.model import SINGULAR_RCOND, OscillatorSpec, clip_psd, reciprocal_cond
from qeflab.qef import CRITICAL_RTOL, CRITICAL_THETA_MAX, tanhc
from qeflab.quadrature import Grid


@lru_cache(maxsize=None)
def _reference_ops(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference matrices on [-1, 1] for a Gauss-Legendre rule of given order.

    Returns (S, D, x) where S[i, j] = integral of the j-th Lagrange basis
    polynomial from -1 to x_i, D[i, j] = its derivative at x_i, and x the
    nodes.  Exact for polynomials of degree < order.
    """
    x, _ = legendre.leggauss(order)
    # Columns of inv(Vandermonde) are Legendre coefficients of the Lagrange basis.
    vand = legendre.legvander(x, order - 1)
    coeffs = np.linalg.inv(vand)  # (order, order): [degree, basis index]
    anti = legendre.legint(coeffs, lbnd=-1)
    # legval with multi-dim coefficients returns shape c.shape[1:] + x.shape.
    S = legendre.legval(x, anti).T
    D = legendre.legval(x, legendre.legder(coeffs)).T
    return S, D, x


def integrate(grid: Grid, values: np.ndarray):
    """Integral over [0, T] of a grid function (leading axis = nodes)."""
    if values.shape[0] != grid.size:
        raise GridMismatch(
            f"grid function has leading axis {values.shape[0]}, grid has {grid.size} nodes")
    w = grid.weights.reshape((grid.size,) + (1,) * (values.ndim - 1))
    return (w * values).sum(axis=0)


def inner(grid: Grid, f: np.ndarray, g: np.ndarray):
    """L2 inner product <f, g> = integral of conj(f) g over [0, T].

    Contracts all non-node axes, so it works for vector- and matrix-valued
    grid functions alike.
    """
    prod = np.conj(f) * g
    return integrate(grid, prod.reshape(grid.size, -1).sum(axis=1))


def norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(inner(grid, f, f).real))


def check_grid_function(ctx: KernelContext, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.shape != (ctx.grid.size, ctx.n):
        raise GridMismatch(
            f"expected grid function of shape ({ctx.grid.size}, {ctx.n}), got {f.shape}")
    return f


def weighted_blocks(grid: Grid, blocks: np.ndarray) -> np.ndarray:
    """[sqrt(w_a) blocks[a, b] sqrt(w_b)] of grid-kernel blocks (N, N, n, n), node-major.

    Weights each node-pair block before the node-major reshape, against
    kernels.weighted_matrix, which weights the node-major matrix.
    """
    N, n = blocks.shape[0], blocks.shape[2]
    sw = np.sqrt(grid.weights)
    scaled = blocks * sw[:, None, None, None] * sw[None, :, None, None]
    return scaled.transpose(0, 2, 1, 3).reshape(N * n, N * n)


def nystrom_apply(ctx: KernelContext, f: np.ndarray) -> np.ndarray:
    """g = L f on the grid through the Nystrom matrix: sqrt(w) g = K sqrt(w) f."""
    f = check_grid_function(ctx, f)
    sw = np.sqrt(ctx.grid.weights)[:, None]
    return (ctx.nystrom_matrix @ (sw * f).reshape(-1)).reshape(f.shape) / sw


def panel_view(grid: Grid, values: np.ndarray) -> np.ndarray:
    """A grid function with its node axis split into (panels, order)."""
    if values.shape[0] != grid.size:
        raise GridMismatch(
            f"grid function has leading axis {values.shape[0]}, grid has {grid.size} nodes")
    return values.reshape((grid.panels, grid.order) + values.shape[1:])


def panel_totals(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Integral of a grid function over each panel, shape (panels, ...)."""
    half = 0.5 * (grid.T / grid.panels)
    return half * np.einsum('j,pj...->p...', legendre.leggauss(grid.order)[1],
                            panel_view(grid, values))


def panel_edges(grid: Grid) -> np.ndarray:
    """Panel boundaries of a grid of equal panels, from 0 to T, shape (panels + 1,)."""
    return np.linspace(0.0, grid.T, grid.panels + 1)


def cumulative_at_loop(grid: Grid, values: np.ndarray, ts) -> np.ndarray:
    """Running integral of a grid function at arbitrary times in [0, T], shape (len(ts), ...).

    One panel lookup, legint and legval per time, on each panel's
    interpolating polynomial.
    """
    v = panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    totals = panel_totals(grid, values)
    offsets = np.concatenate([np.zeros((1,) + totals.shape[1:]), np.cumsum(totals, axis=0)])
    x_ref, _ = legendre.leggauss(grid.order)
    vand_inv = np.linalg.inv(legendre.legvander(x_ref, grid.order - 1))
    edges = panel_edges(grid)
    out = np.empty((len(ts),) + values.shape[1:])
    for i, t in enumerate(ts):
        p = min(max(int(np.searchsorted(edges, t, side='right')) - 1, 0), grid.panels - 1)
        x = (t - 0.5 * (edges[p] + edges[p + 1])) / half
        coeffs = vand_inv @ v[p].reshape(grid.order, -1)
        partial = half * legendre.legval(x, legendre.legint(coeffs, lbnd=-1))
        out[i] = (offsets[p].reshape(-1) + partial).reshape(values.shape[1:])
    return out


def cumulative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Running integral t -> integral of f from 0 to t, sampled at the nodes.

    Uses the panel Legendre antiderivative, exact for the per-panel
    interpolating polynomial, so the result is spectrally accurate for
    smooth integrands.
    """
    local = panel_view(grid, panel_cumulative(grid, values))
    totals = panel_totals(grid, values)
    offsets = np.concatenate([np.zeros((1,) + totals.shape[1:], dtype=totals.dtype),
                              np.cumsum(totals, axis=0)[:-1]], axis=0)
    out = local + offsets[:, None]
    return out.reshape(values.shape)


def panel_cumulative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-panel running integral, reset to zero at each panel's left edge.

    Unlike :func:`cumulative` no cross-panel offsets are added, so the
    input may be discontinuous across panels (panel-local integrands).
    """
    S, _, _ = _reference_ops(grid.order)
    v = panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    out = half * np.einsum('ij,pj...->pi...', S, v)
    return out.reshape(values.shape)


def differentiate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral derivative of a grid function, panel by panel."""
    _, D, _ = _reference_ops(grid.order)
    v = panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    out = np.einsum('ij,pj...->pi...', D, v) / half
    return out.reshape(values.shape)


def transform_system(spec: OscillatorSpec, S: np.ndarray) -> OscillatorSpec:
    """Coordinate change X -> S X: Theta -> S Theta S^T, R -> S^-T R S^-1, M -> M S^-1.

    The derived matrices then transform by similarity, A -> S A S^-1,
    and B -> S B, leaving the realizability identity intact.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (spec.n, spec.n):
        raise ValueError(f"S must be {spec.n} x {spec.n}, got {S.shape}")
    if reciprocal_cond(S) < SINGULAR_RCOND:
        raise ValueError("S is singular or numerically rank deficient")
    S_inv = np.linalg.inv(S)
    return replace(
        spec,
        Theta=S @ spec.Theta @ S.T,
        R=S_inv.T @ spec.R @ S_inv,
        M=spec.M @ S_inv,
    )


def kernel_on_grid_gathered(A: np.ndarray, grid: Grid, base: np.ndarray) -> np.ndarray:
    """One-sided-exponential kernel, shape (N, N, n, n), with the base applied per node pair.

    Gathers the panel-factored e^{|tau| A} to all N^2 node pairs, then
    forms e^{tau A} base and base e^{|tau| A^T} at every pair and picks
    one by the sign of the lag.
    """
    A = np.asarray(A, dtype=float)
    base = np.asarray(base, dtype=float)
    P, Q, n = grid.panels, grid.order, A.shape[0]
    h = grid.T / P
    x = grid.nodes[:Q]
    delta = x[:, None] - x[None, :]
    near = expm(np.abs(delta)[..., None, None] * A)
    cross = expm((h + delta)[..., None, None] * A)
    gaps = expm((h * np.arange(P - 1))[:, None, None] * A)
    far = gaps[:, None, None] @ cross
    blocks = np.concatenate([far[::-1].swapaxes(1, 2), near[None], far])
    p = np.arange(P)
    Eabs = blocks[P - 1 + p[:, None] - p[None, :]]
    Eabs = Eabs.transpose(0, 2, 1, 3, 4, 5).reshape(P * Q, P * Q, n, n)
    d = grid.nodes[:, None] - grid.nodes[None, :]
    pos = Eabs @ base
    neg = base @ np.swapaxes(Eabs, -1, -2)
    return np.where((d >= 0.0)[..., None, None], pos, neg)


def symmetric_root(P: np.ndarray) -> np.ndarray:
    """V diag(sqrt(mu)) V^T from a dense eigh of the symmetric PSD matrix P."""
    mu, V = np.linalg.eigh(P)
    return (V * np.sqrt(np.clip(mu, 0.0, None))) @ V.T


@lru_cache(maxsize=4)
def _path_root(geom) -> np.ndarray:
    """The symmetric root of a geometry's P_h, built once per geometry."""
    return symmetric_root(geom.cache.P)


def run_batch(geom, size: int, seed: np.random.SeedSequence, reps: list) -> list[tuple]:
    """One Monte-Carlo batch of a geometry, drawn and weighted on its own.

    Draws dW, then z, from the batch's stream and forms dZ, y = z P_h^{1/2}
    from its own symmetric root of P_h, and both routes' quadratic forms
    in full for the theta and C of every report.  Returns per report
    ((z_mean, z_clipped), (n_mean, n_clipped)).
    """
    rng = np.random.default_rng(seed)
    dW = rng.standard_normal((size, geom.dH.shape[0])) * np.sqrt(geom.dt)
    zeta = dW @ geom.dH / geom.dt
    R = _path_root(geom)
    y = rng.standard_normal((size, R.shape[0])) @ R
    proj2 = (y @ geom.cache.basis.modes) ** 2
    base = np.einsum('si,si->s', y, y)
    out = []
    for rep in reps:
        tanc = geom.cache.k_eigenvalues(rep.theta)
        dZ = dW - (zeta * (1.0 - np.sqrt(tanc))) @ geom.dH.T
        q_z = np.einsum('si,si->s', dZ @ geom.Pm, dZ)
        q_n = base + proj2 @ (tanc - 1.0)
        routes = []
        for q in (q_z, q_n):
            expo = -rep.C + 0.5 * rep.theta * q
            routes.append((float(np.mean(np.exp(np.minimum(expo, mc.OVERFLOW_LOG)))),
                           int(np.sum(expo > mc.OVERFLOW_LOG))))
        out.append(tuple(routes))
    return out


def apply_L_einsum(ctx: KernelContext, f: np.ndarray) -> np.ndarray:
    """The kernel quadrature sum_b w_b Lambda(s_a - t_b) f(t_b) as one einsum."""
    f = check_grid_function(ctx, f)
    return np.einsum('abij,b,bj->ai', ctx.lambda_grid, ctx.grid.weights, f)


def apply_L_split(ctx: KernelContext, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided integrals (g_plus, g_minus) with g = g_plus + Theta g_minus.

    g_plus(s) = int_0^s e^{(s-t)A} Theta f(t) dt   (g_plus(0) = 0),
    g_minus(s) = int_s^T e^{(t-s)A^T} f(t) dt      (g_minus(T) = 0).

    Both are propagated panel by panel with variation-of-constants
    recursions, so this route is independent of the dense kernel
    quadrature in the Nystrom matrix and serves as its consistency check.
    """
    f = check_grid_function(ctx, f)
    grid = ctx.grid
    A, Theta = ctx.sys.A, ctx.Theta
    q, panels = grid.order, grid.panels
    width = grid.T / panels
    t_loc = grid.nodes[:q]  # the first panel's nodes: local offsets, same in every panel
    E_pos = expm(t_loc[:, None, None] * A)           # e^{tau A}
    E_neg = expm(-t_loc[:, None, None] * A)          # e^{-tau A}
    E_posT = expm(t_loc[:, None, None] * A.T)        # e^{tau A^T}
    E_negT = expm(-t_loc[:, None, None] * A.T)       # e^{-tau A^T}
    E_width = expm(width * A)
    E_widthT = expm(width * A.T)

    fp = f.reshape(panels, q, ctx.n)
    dtype = np.result_type(f, float)
    g_plus = np.empty_like(fp, dtype=dtype)
    g_minus = np.empty_like(fp, dtype=dtype)

    # Forward sweep: v = e^{-tau A} Theta f, local antiderivative, repropagate.
    edge = np.zeros(ctx.n, dtype=dtype)
    v = np.einsum('qij,pqj->pqi', E_neg, fp @ Theta.T)
    v_flat = v.reshape(panels * q, ctx.n)
    L_loc = panel_cumulative(grid, v_flat).reshape(panels, q, ctx.n)
    L_tot = panel_totals(grid, v_flat)
    for p in range(panels):
        g_plus[p] = np.einsum('qij,qj->qi', E_pos, edge[None, :] + L_loc[p])
        edge = E_width @ (edge + L_tot[p])

    # Backward sweep: w = e^{tau A^T} f, complementary antiderivative.
    edge = np.zeros(ctx.n, dtype=dtype)
    wv = np.einsum('qij,pqj->pqi', E_posT, fp)
    wv_flat = wv.reshape(panels * q, ctx.n)
    C_loc = panel_cumulative(grid, wv_flat).reshape(panels, q, ctx.n)
    C_tot = panel_totals(grid, wv_flat)
    for p in range(panels - 1, -1, -1):
        carried = E_widthT @ edge + C_tot[p]
        g_minus[p] = np.einsum('qij,qj->qi', E_negT, carried[None, :] - C_loc[p])
        edge = carried

    return g_plus.reshape(f.shape), g_minus.reshape(f.shape)


def boundary_logdet(A: np.ndarray, B: np.ndarray, T: float) -> float:
    """ln det(I - K) of the one-sided-exponential kernel with drift A and base B on [0, T].

    K has the kernel e^{(s-t)A} B for s > t and B e^{(t-s)A^T} for s < t:
    L for B = Theta, the covariance operator P for B = P0.  Writing
    f = x + B y, x' = A x + B f with x(0) = 0 and y' = -A^T y - f with
    y(T) = 0, so det(I - K) = det Y(T) e^{T tr A}, Y(T) the lower-right
    n x n block of e^{T D}, D = [[A + B, B^2], [-I, -A^T - B]] (Gohberg,
    Goldberg and Kaashoek, Classes of Linear Operators I, 1990, ch. IX).
    One scipy exponential, apart from kernels.bvp_matrices and the grid.
    """
    n = A.shape[0]
    D = np.block([[A + B, B @ B], [-np.eye(n), -A.T - B]])
    sign, logdet = np.linalg.slogdet(scipy.linalg.expm(T * D)[n:, n:])
    if not sign > 0.0:
        raise InvalidParameter(f"det(I - K) = det Y(T) e^(T tr A) has sign {sign}")
    return float(logdet + T * np.trace(A))


def companion(A: np.ndarray, Theta: np.ndarray, mho: np.ndarray,
              inv=np.linalg.inv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The companion-form boundary system (F, U, V) of L's eigenproblem.

        F = [[0, I], [mho A^T mho^-1 A, A - mho A^T mho^-1]],
        U = [A, -I],        V = [I; -Theta A^T Theta^-1],

    with D_c(omega) = F + (i/omega) [[0, 0], [mho, 0]] acting on [f; f'],
    G(T) = U e^{TF} V and E_c(omega) = U e^{T D_c(omega)} V, so that
    det E_c(omega) / det G(T) = Delta(omega).  The arrays may hold floats
    or, with an inv for them, mpmath numbers (dtype object).  mho must be
    nonsingular: m = n with full-rank M.
    """
    n = A.shape[0]
    I, Z = np.eye(n, dtype=A.dtype), np.zeros((n, n), dtype=A.dtype)
    mAm = mho @ A.T @ inv(mho)
    F = np.block([[Z, I], [mAm @ A, A - mAm]])
    return F, np.hstack([A, -I]), np.vstack([I, -Theta @ A.T @ inv(Theta)])


def _companion_of(ctx: KernelContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return companion(ctx.sys.A, ctx.Theta, ctx.sys.mho)


def green_gram(ctx: KernelContext, T: float) -> np.ndarray:
    """G(T) = U e^{TF} V of the companion form."""
    F, U, V = _companion_of(ctx)
    return U @ expm(T * F) @ V


def green_function(ctx: KernelContext, s: float, t: float) -> np.ndarray:
    """Commutator kernel reconstructed from the Green-function formula

        Lambda(s-t) = [I 0] (e^{sF} V G(T)^-1 U e^{(T-t)F}
                              - chi_{[0,s]}(t) e^{(s-t)F}) [0; mho].

    Must coincide with the kernel Lambda(s - t) = e^{(s-t)A} Theta
    (s >= t) or Theta e^{(t-s)A^T} (s < t); the indicator term
    e^{(s-t)F} enters only for t <= s.
    """
    T = ctx.grid.T
    if not (0.0 <= s <= T and 0.0 <= t <= T):
        raise GridMismatch(f"(s, t) must lie in [0, {T}]^2")
    n = ctx.n
    F, U, V = _companion_of(ctx)
    G = U @ expm(T * F) @ V
    if reciprocal_cond(G) < SINGULAR_RCOND:
        raise ValueError("G(T) is numerically singular")
    X = expm(s * F) @ V @ np.linalg.solve(G, U @ expm((T - t) * F))
    if t <= s:
        X = X - expm((s - t) * F)
    # [I 0] ... [0; mho] selects the upper-right n x n block times mho.
    return X[:n, n:] @ ctx.sys.mho


def det_ratio(ctx: KernelContext, omega: float | np.ndarray) -> complex | np.ndarray:
    """Delta(omega) = det E_c(omega) / det G(T) of the companion form, for every omega."""
    F, U, V = _companion_of(ctx)
    n, T = ctx.n, ctx.grid.T
    omega = np.asarray(omega, dtype=float)
    D = np.broadcast_to(F.astype(complex), omega.shape + F.shape).copy()
    D[..., n:, :n] += (1j / omega)[..., None, None] * ctx.sys.mho
    return np.linalg.det(U @ expm(T * D) @ V) / np.linalg.det(U @ expm(T * F) @ V)


def _mp_inv(a: np.ndarray) -> np.ndarray:
    return np.array((mpmath.matrix(a.tolist()) ** -1).tolist(), dtype=object)


def _mp_companion(ctx: KernelContext):
    """(F, U, V, det_E) of the companion form at the working mpmath precision.

    F, U and V are formed from the context's A, Theta and mho in that
    precision, so no float mho^-1 or Theta^-1 enters, and det_E(w) returns
    det E_c(w) = det(U e^{T D_c(w)} V).
    """
    A, Theta, mho = (np.vectorize(mpmath.mpf, otypes=[object])(a)
                     for a in (ctx.sys.A, ctx.Theta, ctx.sys.mho))
    F, U, V = (mpmath.matrix(a.tolist()) for a in companion(A, Theta, mho, inv=_mp_inv))
    n, T = ctx.n, mpmath.mpf(ctx.grid.T)

    def det_E(w):
        D = F * mpmath.mpc(1)
        for a in range(n):
            for b in range(n):
                D[n + a, b] += mpmath.mpc(0, 1) / w * mho[a, b]
        return mpmath.det(U * mpmath.expm(T * D) * V)

    return F, U, V, det_E


def reference_delta(ctx: KernelContext, omega: float, dps: int = 40) -> complex:
    """Delta(omega) = det E_c(omega) / det G(T) of the companion form, to dps digits."""
    with mpmath.workdps(dps):
        F, U, V, det_E = _mp_companion(ctx)
        G = U * mpmath.expm(mpmath.mpf(ctx.grid.T) * F) * V
        return complex(det_E(mpmath.mpf(omega)) / mpmath.det(G))


def reference_root(ctx: KernelContext, omega: float, multiplicity: int = 1,
                   dps: int = 40) -> float:
    """The root of det E_c(w) = det(U e^{T D_c(w)} V) next to omega, to dps digits.

    The companion form is assembled in dps-digit arithmetic from the
    context's A, Theta and mho, so no float mho^-1 or Theta^-1 enters.  A
    secant runs on the multiplicity-th root of det E_c, whose zero is
    simple; each step keeps the branch nearest the secant's own linear
    prediction.  It starts 1e-12 and 2e-12 relative above omega, on one
    side of a root that omega is much closer to, and stops at a 1e-20
    relative step.
    """
    with mpmath.workdps(dps):
        det_E = _mp_companion(ctx)[3]
        units = [mpmath.expjpi(mpmath.mpf(2 * k) / multiplicity) for k in range(multiplicity)]

        def branch(w, near):
            r = mpmath.root(det_E(w), multiplicity)
            return min((r * u for u in units), key=lambda v: abs(v - near))

        x0, x1 = (mpmath.mpf(omega) * (1 + mpmath.mpf(f"{k}e-12")) for k in (1, 2))
        g0 = branch(x0, 0)
        g1 = branch(x1, g0)
        for _ in range(20):
            slope = (g1 - g0) / (x1 - x0)
            x2 = x1 - mpmath.re(g1 / slope)
            if abs(x2 - x1) <= mpmath.mpf("1e-20") * x2:
                return float(x2)
            x0, g0, x1, g1 = x1, g1, x2, branch(x2, g1 + (x2 - x1) * slope)
    raise ValueError(f"the secant from omega={omega!r} did not converge")


def propagate_per_node(ctx: KernelContext, root) -> np.ndarray:
    """[I B] e^{t D} [0; I] at every grid node t, shape (N, n, n), one expm per node.

    D is the root's own D(omega), B = -(i/omega) Theta.
    """
    n = ctx.n
    ex = expm(ctx.grid.nodes[:, None, None] * root.bvp.D)[..., n:]
    return ex[:, :n] + (-1j / root.omega) * ctx.Theta @ ex[:, n:]


def nystrom_hermitian(ctx: KernelContext) -> tuple[np.ndarray, np.ndarray]:
    """The Nystrom spectrum as every eigenvalue of the Hermitian -i K.

    -i K has the eigenvalues +-omega of the weight-symmetrized kernel
    matrix K directly, each to eps omega_1 absolute.  Returns them
    ascending, and the positive omegas descending.
    """
    H = -1j * weighted_blocks(ctx.grid, ctx.lambda_grid)
    evals = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    return evals, evals[evals > 0.0][::-1]


def pair_function(grid: Grid, modes: np.ndarray, k: int = 0) -> np.ndarray:
    """f = phi + i psi of pair k on the grid, shape (N, n), from its mode columns 2k and 2k + 1."""
    f = modes[:, 2 * k] + 1j * modes[:, 2 * k + 1]
    return f.reshape(grid.size, -1) / np.sqrt(2.0 * grid.weights)[:, None]


def ode_residual(ctx: KernelContext, basis, k: int) -> float:
    """Sup-norm residual of the companion form's second-order eigen-ODE on the grid.

    Differentiates the sampled eigenfunction of the basis's pair k with the
    panel Legendre machinery (independent of the shooting propagator) and
    substitutes into f'' = mho A^T mho^-1 A f + (A - mho A^T mho^-1) f' +
    (i/omega) mho f, the lower block row of [f; f']' = D_c(omega) [f; f'].
    """
    grid, n = ctx.grid, ctx.n
    F, _, _ = _companion_of(ctx)
    f = pair_function(grid, basis.modes, k)
    fp = differentiate(grid, f)
    fpp = differentiate(grid, fp)
    resid = (fpp - f @ F[n:, :n].T - fp @ F[n:, n:].T
             - (1j / basis.omegas[k]) * f @ ctx.sys.mho.T)
    return float(np.max(np.abs(resid)))


def hk_of(basis) -> np.ndarray:
    """h_k = [phi_k psi_k] per retained pair on the grid, shape (r, N, n, 2)."""
    grid, r = basis.grid, basis.omegas.size
    h = basis.modes.reshape(grid.size, -1, r, 2)
    return np.moveaxis(h / np.sqrt(2.0 * grid.weights)[:, None, None, None], 2, 0)


def running_integrals(qkl, ts=None) -> np.ndarray:
    """H_k(t) = sqrt(2) int_0^t h_k, shape (len(ts), r, n, 2).

    At the grid nodes unless explicit times in [0, T] are given.
    """
    grid, h = qkl.basis.grid, np.moveaxis(hk_of(qkl.basis), 0, 1)
    if ts is None:
        return np.sqrt(2.0) * cumulative(grid, h)
    return np.sqrt(2.0) * cumulative_at_loop(grid, h, np.asarray(ts, dtype=float))


def surrogate_covariance(qkl, ts: np.ndarray | None = None) -> np.ndarray:
    """Covariance sum tanhc(theta omega_k) H_k(s) H_k(t)^T of the surrogate.

    With the tanhc weights forced to 1 this approximates the Wiener
    covariance min(s, t) I_n up to the truncation tail.  Evaluated at
    the grid nodes unless explicit times are given; returns shape
    (M, M, n, n).
    """
    H = running_integrals(qkl, ts)
    return np.einsum('k,akip,bkjp->abij', tanhc(qkl.theta * qkl.basis.omegas), H, H)


def apply_K(qkl, f: np.ndarray) -> np.ndarray:
    """Spectral action of K = tanc(theta L) from the retained modes.

    K f = sum_k tanhc(theta omega_k) * 2 h_k int h_k^T f dt.  The
    component of f orthogonal to the retained modes is annihilated, so
    the result is accurate up to the reported truncation tail.
    """
    f = np.asarray(f)
    grid, hk = qkl.basis.grid, hk_of(qkl.basis)
    if f.shape != (grid.size, hk.shape[2]):
        raise GridMismatch(f"expected grid function of shape ({grid.size}, {hk.shape[2]}), "
                           f"got {f.shape}")
    proj = np.einsum('kaip,a,ai->kp', hk, grid.weights, f)
    return 2.0 * np.einsum('k,kaip,kp->ai', tanhc(qkl.theta * qkl.basis.omegas), hk, proj)


def omega_from_sigma(sigma: float) -> float:
    """Inverse map omega = (1/2) ln((1 + sigma^2/2) / (1 - sigma^2/2))."""
    if not 0.0 <= sigma < SIGMA_SUP:
        raise InvalidParameter(f"sigma must lie in [0, sqrt(2)), got {sigma}")
    return float(np.arctanh(0.5 * sigma ** 2))


def relative_corner_error(pair: TruncatedPair, omega: float) -> float:
    """corner_error over the corner's largest magnitude, comparable across N."""
    k = pair.N // 2
    return corner_error(pair, omega) / float(np.abs(lhs_exponential(pair, omega)[:k]).max())


def ladder_pair(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The position and momentum matrices (xi, eta) on N Fock levels, dense.

    The standard ladder construction: xi = (a + a^dagger) / sqrt(2) and
    eta = (a - a^dagger) / (i sqrt(2)) with the truncated annihilator a.
    The commutator [xi, eta] equals iI on the leading (N - 1) corner;
    truncation corrupts only its last diagonal entry.
    """
    a = np.diag(np.sqrt(np.arange(1, N)), k=1).astype(complex)
    return (a + a.conj().T) / np.sqrt(2.0), (a - a.conj().T) / (1j * np.sqrt(2.0))


def lhs_exponential_dense(pair: TruncatedPair, omega: float) -> np.ndarray:
    """e^{omega (xi^2 + eta^2)} as a dense matrix exponential of the ladder products."""
    xi, eta = ladder_pair(pair.N)
    return expm(omega * (xi @ xi + eta @ eta))


def dense_lambdas(cache, theta: float) -> np.ndarray:
    """Every eigenvalue of sqrt(K) P sqrt(K), descending, from the dense matrix.

    Assembles X = S P S with S = I + U diag(sqrt(t) - 1) U^T, the
    symmetric root of K from the cache's orthonormal mode block U and
    t = tanhc(theta omega_k) per mode, and diagonalizes it in full.
    """
    scale = np.sqrt(tanhc(theta * np.repeat(cache.basis.omegas, 2))) - 1.0
    U, P = cache.basis.modes, cache.P
    UP = U.T @ P
    X = P + U @ (scale[:, None] * UP)
    X = X + (UP.T * scale[None, :]) @ U.T \
        + U @ ((scale[:, None] * (UP @ U)) * scale[None, :]) @ U.T
    return clip_psd(np.linalg.eigvalsh(0.5 * (X + X.T))[::-1], "sqrt(K) P sqrt(K)")


def critical_theta_by_radius(cache) -> float:
    """Crossing of theta * r(P K(theta)) = 1 by bisection on the Lanczos radius.

    Each step runs cache.lambdas for a fresh radius; the doubling starts at
    the reciprocal radius at theta = 0, and the package's CRITICAL_RTOL and
    CRITICAL_THETA_MAX stop it.  find_critical_theta reaches the same
    crossing from log_det's Cholesky verdict alone.
    """
    def g(theta):
        return theta * float(cache.lambdas(theta)[0])

    r0 = float(cache.lambdas(0.0)[0])
    if r0 <= 0.0:
        return np.inf
    lo, hi = 0.0, 1.0 / r0
    while g(hi) < 1.0:
        lo, hi = hi, 2.0 * hi
        if hi > CRITICAL_THETA_MAX:
            return np.inf
    while hi - lo > CRITICAL_RTOL * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)
