"""Composite Gauss-Legendre quadrature: integrals over the sub-cells of each panel."""

import numpy as np
import pytest
from oracles import cumulative_at_loop

from qeflab import quadrature


@pytest.mark.parametrize("panels, order, cells", [(8, 16, 8), (3, 5, 7)])
def test_cell_integrals_match_loop_differences(panels, order, cells):
    # each cell integral is the difference of the per-point running
    # integrals at the cell's edges, on the panel's interpolating
    # polynomial; those differences round relative to the running integrals
    grid = quadrature.make_grid(1.3, panels, order)
    rng = np.random.default_rng(7)
    t = grid.nodes
    values = np.stack([np.cos(3.0 * t), np.exp(-t) * np.sin(5.0 * t), t ** 3 - t],
                      axis=-1).reshape(grid.size, 3, 1) * rng.standard_normal((1, 3, 2))
    got = quadrature.cell_integrals(grid, values, cells)
    bounds = np.linspace(0.0, grid.T, panels * cells + 1)
    running = cumulative_at_loop(grid, values, bounds)
    assert got.shape == (panels * cells, 3, 2)
    assert np.max(np.abs(got - np.diff(running, axis=0))) <= 1e-14 * np.max(np.abs(running))
    # the cells of a panel add up to its Gauss-Legendre integral
    totals = (grid.weights[:, None, None] * values).reshape(panels, order, 3, 2).sum(axis=1)
    assert np.max(np.abs(got.reshape(panels, cells, 3, 2).sum(axis=1) - totals)) <= 1e-15
