"""Monte-Carlo oracle for the quadratic-exponential functional.

Two independent estimators of the same closed-form value are provided.
The Z-route samples the Gaussian surrogate process and averages
exp(-C) * exp((theta/2) * double increment sum of dZ^T P(s-t) dZ); the
N-route samples the stationary Gaussian process with covariance kernel
P(s-t) and averages exp(-C) * exp((theta/2) <N, K N>).  With
y = sqrt(w) N = z P_h^{1/2} for a standard normal z, it forms
|y|^2 = z P_h z^T and y U = z (P_h^{1/2} U) from the SpectralCache's P_h
and root_modes, with no N n x N n root, so its exact mean is the closed
form's own determinant.

Both routes sample the tail-completed model that matches the spectral
form of K used by the closed-form determinant: the surrogate is drawn as
a Brownian path plus rank-one corrections along the retained modes
(Z = W - sum_k (1 - sqrt(tanhc(theta omega_k))) H_k zeta_k with zeta_k
the mode projections of the same W; H_k enters only through its
increments over the sampling cells, integrated exactly from the basis's
mode matrix), and <N, K N> applies K as identity plus the retained-mode
corrections.  A purely truncated surrogate would estimate a different
quantity, low by the trace of the neglected part of PK, which is not
small even when the Hilbert-Schmidt capture is.

Estimation is batched; each batch owns a spawned RNG substream and
batches are drawn in index order, so estimates are seed-determined.
Consecutive batches are stacked into groups of at most GROUP_ROWS rows
(a larger batch is a group of its own), and only one group's draws are
held in memory at a time.  Theta enters only through K's eigenvalues
from the SpectralCache and through C and r(PK) from compute_qef's
report, so the increment geometry and each group's draws and products
are theta-independent: estimate_qef_mc_many builds the geometry once
per run from the cache, draws each group once and weights it for every
theta.  In the Z-route form, with u = zeta * corr and Pm symmetric,
dZ Pm dZ = dW Pm dW - 2 u.(dW Pm dH) + u (dH^T Pm dH) u^T,
so a theta costs O(rows r^2) rank-2r terms, not a product with Pm.
Every theta of one run is thus estimated from the same draws (common
random numbers): its estimates are correlated across theta, and each
equals what estimate_qef_mc returns for that theta alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OverflowDominated, SupercriticalTheta
from .kernels import KernelContext, kernel_matrix, lag_exponentials
from .qef import OVERFLOW_LOG, QefReport, SpectralCache, compute_qef, find_critical_theta
from .qkl import QklBasis
from .quadrature import Grid, cell_integrals

KURTOSIS_LIMIT = 10.0          # excess kurtosis of batch means beyond this flags the run
GROUP_ROWS = 512               # draws of consecutive batches weighted together, at most


@dataclass(frozen=True, eq=False)
class McConfig:
    """Sampling budget and reproducibility knobs.

    batch is the number of batches, at least two, for the batch-means
    confidence interval; samples must be at least twice that.  increments_per_panel
    refines the increment grid of the Z-route quadratic form inside each
    quadrature panel.
    """

    samples: int
    seed: int
    batch: int = 100
    increments_per_panel: int = 8

    def __post_init__(self):
        if self.batch < 2:
            raise InvalidParameter(
                f"mc.batch must be at least 2 for a batch-means standard error, got {self.batch}")
        if self.increments_per_panel < 1:
            raise InvalidParameter(
                f"mc.increments_per_panel must be positive, got {self.increments_per_panel}")
        if self.samples < 2 * self.batch:
            raise InvalidParameter(
                f"mc.samples must be at least 2*batch = {2 * self.batch}, got {self.samples}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise InvalidParameter(f"mc.seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Batch-means estimate with heavy-tail diagnostics.

    n_eff counts samples that contributed without overflow clipping;
    unreliable marks runs whose variance is not trustworthy (second
    moment of the estimator at or past divergence, or batch means
    failing the kurtosis guard).
    """

    mean: float
    stderr: float
    n_eff: int
    diverged_fraction: float
    unreliable: bool
    kurtosis: float


@dataclass(frozen=True, eq=False)
class QefMcResult:
    """Both estimator routes for one theta."""

    theta: float
    z: McEstimate
    n: McEstimate


def _batch_sizes(samples: int, batches: int) -> np.ndarray:
    sizes = np.full(batches, samples // batches, dtype=int)
    sizes[:samples % batches] += 1
    return sizes


class _Geometry:
    """Theta-independent geometry, shared by every batch and theta of a run.

    The grid, A, P0 and the basis all come from the run's SpectralCache.
    """

    def __init__(self, cache: SpectralCache, cfg: McConfig):
        ctx, grid = cache.ctx, cache.ctx.grid
        # Z-route geometry: uniform increment grid, midpoint kernel; the
        # midpoint rule is the one-node Gauss-Legendre rule on m panels.
        # Both routes' matrices are flat: rows index (increment or node,
        # component), columns (mode, pair member), so each group of
        # batches is a few matrix products
        m = grid.panels * cfg.increments_per_panel
        bounds = np.linspace(0.0, grid.T, m + 1)
        self.dt = grid.T / m
        mids = Grid(T=grid.T, panels=m, order=1, nodes=0.5 * (bounds[:-1] + bounds[1:]),
                    weights=np.full(m, self.dt))
        # cell increments of H_k = sqrt(2) int h_k; mode columns / sqrt(w) are sqrt(2) h_k
        h = cache.basis.modes.reshape(grid.size, ctx.n, -1) / np.sqrt(grid.weights)[:, None, None]
        dH = cell_integrals(grid, h, cfg.increments_per_panel)               # (m, n, 2r)
        self.dH = dH.reshape(m * ctx.n, -1)                                   # (m n, 2r)
        self.Pm = kernel_matrix(mids, lag_exponentials(ctx.sys.A, mids), cache.P0)
        self.PmdH = self.Pm @ self.dH                                         # (m n, 2r)
        self.G = self.dH.T @ self.PmdH                                        # (2r, 2r)
        # N-route geometry, in the weighted node coordinates: P_h and P_h^{1/2} U
        self.cache = cache

    def run_group(self, sizes: np.ndarray, seeds: list[np.random.SeedSequence],
                  reps: list[QefReport]) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive batches, drawn once and weighted for the theta of every report.

        Each batch draws dW, then z, from its own stream into the group's
        rows.  A report's theta and C weight the draws, with K's
        eigenvalues t_k = tanhc(theta omega_k) from the cache: the Z-route
        corrections 1 - sqrt(t_k) and the N-route K action t_k - 1.
        Returns the batch means and clipped counts, each of shape
        (theta, route Z/N, batch).
        """
        starts = np.cumsum(sizes) - sizes
        dW = np.empty((int(sizes.sum()), self.dH.shape[0]))
        P, root_modes = self.cache.P, self.cache.root_modes
        z = np.empty((dW.shape[0], P.shape[0]))
        for start, size, seed in zip(starts, sizes, seeds):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=dW[start:start + size])
            rng.standard_normal(out=z[start:start + size])
        dW *= np.sqrt(self.dt)
        # project with the same cell integrals dH that the correction term
        # applies; a pointwise-h projection completes to a different
        # covariance.  With u = zeta * corr, dZ = dW - u dH^T and, Pm being
        # symmetric, dZ Pm dZ = a - 2 u.b + u G u^T
        zeta = dW @ self.dH / self.dt
        a = np.einsum('si,si->s', dW @ self.Pm, dW)
        b = dW @ self.PmdH
        # y = z P_h^{1/2}: |y|^2 = z P_h z^T and y U = z P_h^{1/2} U
        base = np.einsum('si,si->s', z @ P, z)
        proj2 = (z @ root_modes) ** 2

        means = np.empty((len(reps), 2, len(sizes)))
        clipped = np.empty((len(reps), 2, len(sizes)), dtype=int)
        for i, rep in enumerate(reps):
            t = self.cache.k_eigenvalues(rep.theta)
            u = zeta * (1.0 - np.sqrt(t))
            q_z = a - 2.0 * np.einsum('sk,sk->s', u, b) + np.einsum('sk,sk->s', u @ self.G, u)
            q_n = base + proj2 @ (t - 1.0)
            for route, q in enumerate((q_z, q_n)):
                expo = -rep.C + 0.5 * rep.theta * q
                means[i, route] = np.add.reduceat(np.exp(np.minimum(expo, OVERFLOW_LOG)),
                                                  starts) / sizes
                clipped[i, route] = np.add.reduceat(expo > OVERFLOW_LOG, starts, dtype=int)
        return means, clipped


def _groups(sizes: np.ndarray) -> list[slice]:
    """Runs of consecutive batches of at most GROUP_ROWS rows; a larger batch is its own run."""
    groups, first, rows = [], 0, 0
    for i, size in enumerate(sizes):
        if i > first and rows + size > GROUP_ROWS:
            groups.append(slice(first, i))
            first, rows = i, 0
        rows += size
    groups.append(slice(first, len(sizes)))
    return groups


def _aggregate(batch_means: np.ndarray, sizes: np.ndarray, clipped: int,
               variance_finite: bool) -> McEstimate:
    total = int(sizes.sum())
    weights = sizes / total
    # dividing the sample-count-weighted sum once keeps a constant
    # estimator exact (mean equal to the constant, stderr zero)
    mean = float(np.sum(sizes * batch_means) / total)
    b = len(batch_means)
    stderr = float(np.sqrt(np.sum(weights ** 2 * (batch_means - mean) ** 2) * b / (b - 1)))
    centered = batch_means - batch_means.mean()
    m2 = float(np.mean(centered ** 2))
    kurt = float(np.mean(centered ** 4) / m2 ** 2 - 3.0) if m2 > 0 else 0.0
    frac = clipped / total
    if frac > 0.01:
        raise OverflowDominated(
            f"{100 * frac:.2f}% of samples overflowed the exponent clip")
    return McEstimate(mean=mean, stderr=stderr, n_eff=total - clipped,
                      diverged_fraction=frac,
                      unreliable=(not variance_finite) or kurt > KURTOSIS_LIMIT,
                      kurtosis=kurt)


def estimate_qef_mc_many(cache: SpectralCache, reps: list[QefReport],
                         cfg: McConfig) -> list[QefMcResult]:
    """Both Monte-Carlo routes to the functional at the theta of each report.

    reps holds compute_qef's reports made with cache.  The geometry is
    built once and each batch is drawn once, then weighted for every
    theta, so all thetas see the same draws and their estimates are
    correlated; each result equals what estimate_qef_mc returns for its
    theta alone.  Refuses the run if any report diverges (xi is None).
    One group of consecutive batches, at most GROUP_ROWS rows or one
    larger batch, is held in memory at a time, and a theta weights it
    through rank-2r terms only.
    """
    for rep in reps:
        if rep.xi is None:
            raise SupercriticalTheta(
                f"theta={rep.theta:.6g} is at or beyond the critical value "
                f"{find_critical_theta(cache):.6g}; the estimator mean diverges")
    geom = _Geometry(cache, cfg)
    sizes = _batch_sizes(cfg.samples, cfg.batch)
    groups = _groups(sizes)
    # a group draws dW and z as (rows, columns) doubles, and numpy refuses
    # more bytes than its index type holds with a bare ValueError
    rows = max(int(sizes[group].sum()) for group in groups)
    if rows * max(geom.dH.shape[0], cache.P.shape[0]) * 8 > np.iinfo(np.intp).max:
        raise InvalidParameter(
            f"mc.samples = {cfg.samples} over mc.batch = {cfg.batch} batches puts {rows} "
            "draws in one group, beyond numpy's array size limit")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.batch)
    means = np.empty((len(reps), 2, cfg.batch))
    clipped = np.empty((len(reps), 2, cfg.batch), dtype=int)
    for group in groups:
        means[..., group], clipped[..., group] = geom.run_group(sizes[group], seeds[group], reps)

    results = []
    for i, rep in enumerate(reps):
        # the second moment is finite while 2 theta r(PK) < 1
        variance_finite = 2.0 * rep.theta * rep.spectral_radius < 1.0
        z, n = (_aggregate(means[i, route], sizes, int(clipped[i, route].sum()), variance_finite)
                for route in (0, 1))
        results.append(QefMcResult(theta=rep.theta, z=z, n=n))
    return results


def estimate_qef_mc(ctx: KernelContext, qkl: QklBasis, P0: np.ndarray,
                    cfg: McConfig) -> QefMcResult:
    """Both Monte-Carlo routes to the functional at qkl.theta.

    Builds its own SpectralCache and closed-form report.  Refuses
    supercritical theta (the estimator mean would be infinite).
    Deterministic for a fixed seed: batches draw from spawned substreams
    and run in index order.
    """
    cache = SpectralCache(ctx, qkl, P0)
    return estimate_qef_mc_many(cache, [compute_qef(ctx, qkl, P0, cache)], cfg)[0]
