"""Composite Gauss-Legendre quadrature on [0, T].

The time interval is split into equal panels with a Gauss-Legendre rule
of fixed order on each.  All integral operators in the package share one
such grid, so grid functions are plain arrays whose leading axis runs
over the nodes.  Besides plain integration the module provides panel-wise
Legendre-series antiderivatives (for cumulative integrals, exact on the
interpolating polynomial and evaluable anywhere in [0, T]) and spectral
differentiation, both built from per-order reference matrices on [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import GridMismatch


@dataclass(frozen=True, eq=False)
class Grid:
    """Composite Gauss-Legendre grid on [0, T].

    Attributes
    ----------
    T : float
        Right endpoint of the time interval.
    panels : int
        Number of equal panels.
    order : int
        Gauss-Legendre nodes per panel.
    nodes, weights : ndarray, shape (panels*order,)
        Global nodes (ascending) and quadrature weights.
    edges : ndarray, shape (panels+1,)
        Panel boundaries, from 0 to T.
    """

    T: float
    panels: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray

    @property
    def size(self) -> int:
        return self.panels * self.order


def make_grid(T: float, panels: int = 8, order: int = 16) -> Grid:
    """Build a composite Gauss-Legendre grid with equal panels."""
    if T <= 0:
        raise GridMismatch(f"time horizon must be positive, got {T}")
    if panels < 1 or order < 2:
        raise GridMismatch(f"need panels >= 1 and order >= 2, got {panels}, {order}")
    x, w = legendre.leggauss(order)
    edges = np.linspace(0.0, T, panels + 1)
    half = 0.5 * (T / panels)
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, panels)
    return Grid(T=float(T), panels=panels, order=order,
                nodes=nodes, weights=weights, edges=edges)


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


def _panel_view(grid: Grid, values: np.ndarray) -> np.ndarray:
    if values.shape[0] != grid.size:
        raise GridMismatch(
            f"grid function has leading axis {values.shape[0]}, grid has {grid.size} nodes")
    return values.reshape((grid.panels, grid.order) + values.shape[1:])


def integrate(grid: Grid, values: np.ndarray):
    """Integral over [0, T] of a grid function (leading axis = nodes)."""
    if values.shape[0] != grid.size:
        raise GridMismatch(
            f"grid function has leading axis {values.shape[0]}, grid has {grid.size} nodes")
    w = grid.weights.reshape((grid.size,) + (1,) * (values.ndim - 1))
    return (w * values).sum(axis=0)


def inner(grid: Grid, f: np.ndarray, g: np.ndarray):
    """L2 inner product <f, g> = integral of conj(f)·g over [0, T].

    Contracts all non-node axes, so it works for vector- and matrix-valued
    grid functions alike.
    """
    prod = np.conj(f) * g
    return integrate(grid, prod.reshape(grid.size, -1).sum(axis=1))


def norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(inner(grid, f, f).real))


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


@lru_cache(maxsize=None)
def _panel_weights(order: int) -> np.ndarray:
    return legendre.leggauss(order)[1]


def cumulative_at(grid: Grid, values: np.ndarray, ts) -> np.ndarray:
    """Running integral of a grid function evaluated at arbitrary times.

    Parameters
    ----------
    values : ndarray, shape (nodes, ...)
    ts : scalar or 1-d array of times in [0, T].

    Returns shape ts.shape + values.shape[1:].
    """
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts_arr.min() < -1e-12 or ts_arr.max() > grid.T + 1e-12:
        raise GridMismatch(f"evaluation times must lie in [0, {grid.T}]")
    half = 0.5 * (grid.T / grid.panels)
    totals = panel_totals(grid, values)
    offsets = np.concatenate([np.zeros((1,) + totals.shape[1:]), np.cumsum(totals, axis=0)], axis=0)

    x_ref, _ = legendre.leggauss(grid.order)
    vand_inv = np.linalg.inv(legendre.legvander(x_ref, grid.order - 1))
    coeffs = np.tensordot(vand_inv, values.reshape(grid.panels, grid.order, -1), axes=(1, 1))
    anti = legendre.legint(coeffs, lbnd=-1)

    p = np.clip(np.searchsorted(grid.edges, ts_arr, side='right') - 1, 0, grid.panels - 1)
    center = 0.5 * (grid.edges[p] + grid.edges[p + 1])
    x = (ts_arr - center) / half
    # per-point Clenshaw against each time's own panel, so t = 0 gives exactly 0
    partial = half * legendre.legval(x[:, None], anti[:, p], tensor=False)
    out = offsets[p].reshape(partial.shape) + partial
    out = out.reshape(ts_arr.shape + values.shape[1:])
    if np.isscalar(ts) or np.asarray(ts).ndim == 0:
        return out[0]
    return out


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


def panel_totals(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Integral of a grid function over each panel, shape (panels, ...)."""
    v = _panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    return half * np.einsum('j,pj...->p...', _panel_weights(grid.order), v)


def differentiate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral derivative of a grid function, panel by panel."""
    _, D, _ = _reference_ops(grid.order)
    v = _panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    out = np.einsum('ij,pj...->pi...', D, v) / half
    return out.reshape(values.shape)
