"""Reference implementations that the tests compare the pipeline against.

Nothing in qeflab calls these.  Each computes a quantity the package
also reaches, by an independent route or as a direct consequence of the
theory, so that agreement checks the package's own evaluation:

- the Green-function formula and the one-sided propagation of L,
  against the dense commutator-kernel quadrature, and that quadrature
  as one three-operand einsum, against its contraction in apply_L;
- the eigen-ODE residual and the normalized boundary determinant,
  against the shooting roots and eigenfunctions;
- the shooting propagation with one matrix exponential per node, against
  the panel-factored propagator, and the Nystrom spectrum from a complex
  Hermitian eigvalsh, against the real one of K^T K;
- the spectral action of K and the surrogate covariance, against the
  retained modes;
- the dense spectrum of sqrt(K) P sqrt(K), against the low-rank
  log-determinant and Lanczos radius of the spectral cache;
- a coordinate change of the oscillator, against the realizability
  identity;
- the kernel grid assembled by gathering e^{|tau| A} to every node pair
  first, against the base applied once per panel lag;
- one Monte-Carlo batch drawn and weighted on its own, against the
  stacked groups of batches;
- the inverse of the Fock sigma(omega) map, and the Fock left side as a
  dense matrix exponential;
- the panel Legendre running integrals and spectral derivative these
  routes are built from.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from qeflab import mc
from qeflab.eigensolver import NystromResult
from qeflab.errors import GridMismatch, InvalidParameter
from qeflab.fock import SIGMA_SUP, TruncatedPair, number_form
from qeflab.kernels import (
    KernelContext,
    _check_grid_function,
    bvp_matrices,
    expm,
    weighted_matrix,
)
from qeflab.model import SINGULAR_RCOND, OscillatorSpec, clip_psd, reciprocal_cond
from qeflab.qkl import Hk_at, tanhc
from qeflab.quadrature import Grid, _panel_view, panel_totals


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


def cumulative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Running integral t -> integral of f from 0 to t, sampled at the nodes.

    Uses the panel Legendre antiderivative, exact for the per-panel
    interpolating polynomial, so the result is spectrally accurate for
    smooth integrands.
    """
    local = _panel_view(grid, panel_cumulative(grid, values))
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
    v = _panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    out = half * np.einsum('ij,pj...->pi...', S, v)
    return out.reshape(values.shape)


def differentiate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral derivative of a grid function, panel by panel."""
    _, D, _ = _reference_ops(grid.order)
    v = _panel_view(grid, values)
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


def run_batch(geom, size: int, seed: np.random.SeedSequence, terms: list) -> list[tuple]:
    """One Monte-Carlo batch of a geometry, drawn and weighted on its own.

    Draws dW, then z, from the batch's stream and forms dZ and both
    routes' quadratic forms in full for every theta.  Returns per theta
    ((z_mean, z_clipped), (n_mean, n_clipped)).
    """
    rng = np.random.default_rng(seed)
    dW = rng.standard_normal((size, geom.dH.shape[0])) * np.sqrt(geom.dt)
    zeta = dW @ geom.dH / geom.dt
    y = rng.standard_normal((size, geom.root.shape[0])) @ geom.root
    proj2 = (y @ geom.modes) ** 2
    base = np.einsum('si,si->s', y, y)
    out = []
    for t in terms:
        dZ = dW - (zeta * t.corr) @ geom.dH.T
        q_z = np.einsum('si,si->s', dZ @ geom.Pm, dZ)
        q_n = base + proj2 @ t.tanc_m1
        routes = []
        for q in (q_z, q_n):
            expo = -t.C + 0.5 * t.theta * q
            routes.append((float(np.mean(np.exp(np.minimum(expo, mc.OVERFLOW_LOG)))),
                           int(np.sum(expo > mc.OVERFLOW_LOG))))
        out.append(tuple(routes))
    return out


def apply_L_einsum(ctx: KernelContext, f: np.ndarray) -> np.ndarray:
    """The kernel quadrature sum_b w_b Lambda(s_a - t_b) f(t_b) as one einsum."""
    f = _check_grid_function(ctx, f)
    return np.einsum('abij,b,bj->ai', ctx.lambda_grid, ctx.grid.weights, f)


def apply_L_split(ctx: KernelContext, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided integrals (g_plus, g_minus) with g = g_plus + Theta g_minus.

    g_plus(s) = int_0^s e^{(s-t)A} Theta f(t) dt   (g_plus(0) = 0),
    g_minus(s) = int_s^T e^{(t-s)A^T} f(t) dt      (g_minus(T) = 0).

    Both are propagated panel by panel with variation-of-constants
    recursions, so this route is independent of the dense kernel
    quadrature in apply_L and serves as its consistency check.
    """
    f = _check_grid_function(ctx, f)
    grid = ctx.grid
    A, Theta = ctx.sys.A, ctx.Theta
    q, panels = grid.order, grid.panels
    width = grid.T / panels
    t_loc = grid.nodes[:q] - grid.edges[0]  # local node offsets, same in every panel
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
    G = ctx.gram
    if reciprocal_cond(G) < SINGULAR_RCOND:
        raise ValueError("G(T) is numerically singular")
    right = ctx.U @ expm((T - t) * ctx.F)
    X = expm(s * ctx.F) @ ctx.V @ np.linalg.solve(G, right)
    if t <= s:
        X = X - expm((s - t) * ctx.F)
    # [I 0] ... [0; mho] selects the upper-right n x n block times mho.
    return X[:n, n:] @ ctx.sys.mho


def det_ratio(ctx: KernelContext, omega: float) -> float:
    """|det E(omega)| normalized by |det G(T)| (scale-free root criterion)."""
    log_g = np.linalg.slogdet(ctx.gram)[1]
    return float(np.exp(np.linalg.slogdet(bvp_matrices(ctx, omega).E)[1] - log_g))


def propagate_per_node(ctx: KernelContext, D: np.ndarray) -> np.ndarray:
    """e^{t D} V at every grid node t, shape (N, 2n, n), one expm per node."""
    return expm(ctx.grid.nodes[:, None, None] * D) @ ctx.V


def nystrom_hermitian(ctx: KernelContext) -> NystromResult:
    """The Nystrom spectrum as every eigenvalue of the Hermitian -i K.

    -i K has the eigenvalues +-omega of the weight-symmetrized kernel
    matrix K directly, each to eps omega_1 absolute.
    """
    H = -1j * weighted_matrix(ctx.grid, ctx.lambda_grid)
    evals = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    return NystromResult(eigenvalues=evals, omegas=evals[evals > 0.0][::-1])


def ode_residual(ctx: KernelContext, pair) -> float:
    """Sup-norm residual of the second-order eigen-ODE on the grid.

    Differentiates the sampled eigenfunction with the panel Legendre
    machinery (independent of the shooting propagator) and substitutes
    into f'' + (mho A^T mho^-1 - A) f' - mho A^T mho^-1 A f
    - (i/omega) mho f = 0.
    """
    grid = ctx.grid
    A, mho = ctx.sys.A, ctx.sys.mho
    mAm = mho @ A.T @ ctx.mho_inv
    f = pair.phi + 1j * pair.psi
    fp = differentiate(grid, f)
    fpp = differentiate(grid, fp)
    resid = (fpp + fp @ (mAm - A).T - f @ (mAm @ A).T
             - (1j / pair.omega) * f @ mho.T)
    return float(np.max(np.abs(resid)))


def running_integrals(qkl) -> np.ndarray:
    """H_k(t) = sqrt(2) int_0^t h_k at the grid nodes, shape (N, r, n, 2)."""
    return np.sqrt(2.0) * cumulative(qkl.grid, np.moveaxis(qkl.hk, 0, 1))


def surrogate_covariance(qkl, ts: np.ndarray | None = None) -> np.ndarray:
    """Covariance sum tanhc(theta omega_k) H_k(s) H_k(t)^T of the surrogate.

    With the tanhc weights forced to 1 this approximates the Wiener
    covariance min(s, t) I_n up to the truncation tail.  Evaluated at
    the grid nodes unless explicit times are given; returns shape
    (M, M, n, n).
    """
    H = running_integrals(qkl) if ts is None else Hk_at(qkl, ts)
    return np.einsum('k,akip,bkjp->abij', qkl.tanc_values, H, H)


def apply_K(qkl, f: np.ndarray) -> np.ndarray:
    """Spectral action of K = tanc(theta L) from the retained modes.

    K f = sum_k tanhc(theta omega_k) * 2 h_k int h_k^T f dt.  The
    component of f orthogonal to the retained modes is annihilated, so
    the result is accurate up to the reported truncation tail.
    """
    f = np.asarray(f)
    grid = qkl.grid
    if f.shape != (grid.size, qkl.hk.shape[2]):
        raise GridMismatch(f"expected grid function of shape ({grid.size}, {qkl.hk.shape[2]}), "
                           f"got {f.shape}")
    proj = np.einsum('kaip,a,ai->kp', qkl.hk, grid.weights, f)
    return 2.0 * np.einsum('k,kaip,kp->ai', qkl.tanc_values, qkl.hk, proj)


def omega_from_sigma(sigma: float) -> float:
    """Inverse map omega = (1/2) ln((1 + sigma^2/2) / (1 - sigma^2/2))."""
    if not 0.0 <= sigma < SIGMA_SUP:
        raise InvalidParameter(f"sigma must lie in [0, sqrt(2)), got {sigma}")
    return float(np.arctanh(0.5 * sigma ** 2))


def lhs_exponential_dense(pair: TruncatedPair, omega: float) -> np.ndarray:
    """e^{omega (xi^2 + eta^2)} as a dense matrix exponential, off-diagonal included."""
    return expm(omega * number_form(pair))


def dense_lambdas(cache, theta: float) -> np.ndarray:
    """Every eigenvalue of sqrt(K) P sqrt(K), descending, from the dense matrix.

    Assembles X = S P S with S = I + U diag(sqrt(t) - 1) U^T, the
    symmetric root of K from the cache's orthonormal mode block U and
    t = tanhc(theta omega_k) per mode, and diagonalizes it in full.
    """
    scale = np.sqrt(tanhc(theta * np.repeat(cache.omegas, 2))) - 1.0
    U, P = cache.modes, cache.P
    UP = U.T @ P
    X = P + U @ (scale[:, None] * UP)
    X = X + (UP.T * scale[None, :]) @ U.T \
        + U @ ((scale[:, None] * (UP @ U)) * scale[None, :]) @ U.T
    return clip_psd(np.linalg.eigvalsh(0.5 * (X + X.T))[::-1], "sqrt(K) P sqrt(K)")
