"""Composite Gauss-Legendre quadrature on [0, T].

The time interval is split into equal panels with a Gauss-Legendre rule
of fixed order on each.  All integral operators in the package share one
such grid, so grid functions are plain arrays whose leading axis runs
over the nodes; the operators themselves weight the nodes (see
kernels.weighted_matrix).  The module evaluates running integrals
anywhere in [0, T] through panel-wise Legendre-series antiderivatives,
exact on each panel's interpolating polynomial.
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


def _panel_view(grid: Grid, values: np.ndarray) -> np.ndarray:
    if values.shape[0] != grid.size:
        raise GridMismatch(
            f"grid function has leading axis {values.shape[0]}, grid has {grid.size} nodes")
    return values.reshape((grid.panels, grid.order) + values.shape[1:])


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


def panel_totals(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Integral of a grid function over each panel, shape (panels, ...)."""
    v = _panel_view(grid, values)
    half = 0.5 * (grid.T / grid.panels)
    return half * np.einsum('j,pj...->p...', _panel_weights(grid.order), v)
