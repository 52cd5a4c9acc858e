"""Composite Gauss-Legendre quadrature on [0, T].

The time interval is split into equal panels with a Gauss-Legendre rule
of fixed order on each.  All integral operators in the package share one
such grid, so grid functions are plain arrays whose leading axis runs
over the nodes; the operators themselves weight the nodes (see
kernels.weighted_matrix).  cell_integrals integrates a grid function
over equal sub-cells of every panel, exactly on each panel's
interpolating polynomial: the cell increments the Monte-Carlo Z-route
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
    """

    T: float
    panels: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.panels * self.order


gauss_legendre = cache(legendre.leggauss)    # nodes and weights on [-1, 1], once per order


def make_grid(T: float, panels: int = 8, order: int = 16) -> Grid:
    """Build a composite Gauss-Legendre grid with equal panels."""
    if T <= 0:
        raise GridMismatch(f"time horizon must be positive, got {T}")
    if panels < 1 or order < 2:
        raise GridMismatch(f"need panels >= 1 and order >= 2, got {panels}, {order}")
    x, w = gauss_legendre(order)
    edges = np.linspace(0.0, T, panels + 1)
    half = 0.5 * (T / panels)
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, panels)
    return Grid(T=float(T), panels=panels, order=order, nodes=nodes, weights=weights)


def cell_integrals(grid: Grid, values: np.ndarray, cells: int) -> np.ndarray:
    """Integrals of a grid function over `cells` equal sub-cells of each panel.

    values has shape (nodes, ...); returns shape (panels * cells, ...), the
    sub-cells in time order.  Each panel's interpolating polynomial is
    integrated exactly: the Legendre antiderivatives of the Lagrange basis
    at the sub-cell edges give one (order, cells) matrix for every panel.
    """
    x = gauss_legendre(grid.order)[0]
    anti = legendre.legint(np.linalg.inv(legendre.legvander(x, grid.order - 1)), lbnd=-1)
    edges = legendre.legval(np.linspace(-1.0, 1.0, cells + 1), anti)       # (order, cells + 1)
    S = 0.5 * (grid.T / grid.panels) * np.diff(edges, axis=-1)
    v = values.reshape((grid.panels, grid.order) + values.shape[1:])
    return np.einsum('jc,pj...->pc...', S, v).reshape((-1,) + values.shape[1:])
