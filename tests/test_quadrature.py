"""Composite Gauss-Legendre quadrature: running integrals at arbitrary times."""

import numpy as np
import pytest
from numpy.polynomial import legendre

from qeflab import quadrature
from qeflab.errors import GridMismatch


def cumulative_at_loop(grid, values, ts):
    """Reference: one panel lookup, legint and legval per time."""
    v = values.reshape((grid.panels, grid.order) + values.shape[1:])
    half = 0.5 * (grid.T / grid.panels)
    w = legendre.leggauss(grid.order)[1]
    totals = half * np.einsum('j,pj...->p...', w, v)
    offsets = np.concatenate([np.zeros((1,) + totals.shape[1:]), np.cumsum(totals, axis=0)])
    x_ref, _ = legendre.leggauss(grid.order)
    vand_inv = np.linalg.inv(legendre.legvander(x_ref, grid.order - 1))
    out = np.empty((len(ts),) + values.shape[1:])
    for i, t in enumerate(ts):
        p = min(max(int(np.searchsorted(grid.edges, t, side='right')) - 1, 0), grid.panels - 1)
        x = (t - 0.5 * (grid.edges[p] + grid.edges[p + 1])) / half
        coeffs = vand_inv @ v[p].reshape(grid.order, -1)
        partial = half * legendre.legval(x, legendre.legint(coeffs, lbnd=-1))
        out[i] = (offsets[p].reshape(-1) + partial).reshape(values.shape[1:])
    return out


@pytest.mark.parametrize("panels, order", [(8, 16), (3, 5)])
def test_cumulative_at_matches_per_point_loop(panels, order):
    grid = quadrature.make_grid(1.3, panels, order)
    rng = np.random.default_rng(7)
    t = grid.nodes
    values = np.stack([np.cos(3.0 * t), np.exp(-t) * np.sin(5.0 * t), t ** 3 - t],
                      axis=-1).reshape(grid.size, 3, 1) * rng.standard_normal((1, 3, 2))
    ts = np.concatenate([[0.0, grid.T], grid.edges, rng.uniform(0.0, grid.T, 40)])
    got = quadrature.cumulative_at(grid, values, ts)
    ref = cumulative_at_loop(grid, values, ts)
    assert got.shape == (ts.size, 3, 2)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.all(got[0] == 0.0)
    scalar = quadrature.cumulative_at(grid, values, float(ts[-1]))
    assert scalar.shape == (3, 2)
    assert np.max(np.abs(scalar - ref[-1])) <= 1e-15 * np.max(np.abs(ref))
    with pytest.raises(GridMismatch):
        quadrature.cumulative_at(grid, values, [grid.T + 1e-9])
