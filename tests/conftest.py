"""Shared fixtures: the one-mode reference system and seeded random specs.

The reference system (Theta = J2, R = I, M = I, T = 1) has closed-form
system matrices A = 2(J2 - I), B = 2 J2, mho = 4 J2, P0 = I and kernel
Lambda(tau) = e^{-2 tau} (cos(2 tau) I + sin(2 tau) J2) J2 for tau >= 0,
so most oracles below are hand-derivable.  The spectral basis is built
once per session; it is immutable and shared read-only.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qeflab import kernels, model, quadrature
from qeflab.eigensolver import build_basis

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture(scope="session")
def osc_spec():
    return model.OscillatorSpec(n=2, m=2, Theta=J2.copy(), R=np.eye(2),
                                M=np.eye(2), T=1.0, theta=0.348)


@pytest.fixture(scope="session")
def grid():
    return quadrature.make_grid(1.0)


@pytest.fixture(scope="session")
def ctx(osc_spec, grid):
    return kernels.make_context(osc_spec, grid)


@pytest.fixture(scope="session")
def state(ctx):
    return model.solve_state_ale(ctx.sys.A, ctx.sys.B)


BASIS_CAPTURE = 0.99       # the capture fraction the basis fixture is built for


@pytest.fixture(scope="session")
def basis(ctx):
    return build_basis(ctx, BASIS_CAPTURE)


def squeezed_spec():
    """A non-passive oscillator: R couples the quadratures, M mixes the channels.

    A defect that respects passivity, as the reference system does, can
    show here.
    """
    return model.OscillatorSpec(n=2, m=2, Theta=J2.copy(), R=np.array([[1.0, 0.3], [0.3, 2.0]]),
                                M=np.array([[1.0, 0.5], [0.2, 1.0]]), T=1.0, theta=0.0)


def random_spec(rng, n, m=None, T=1.0):
    """Random valid oscillator spec with moderate matrix norms.

    Theta is S J S^T for a well-conditioned S, normalized to unit
    spectral norm; realizability holds by construction for any such
    spec, Hurwitz stability does not.
    """
    m = n if m is None else m
    while True:
        S = rng.standard_normal((n, n))
        if np.linalg.cond(S) < 20.0:
            break
    Theta = S @ model.canonical_j(n) @ S.T
    Theta /= np.linalg.norm(Theta, 2)
    Q = rng.standard_normal((n, n))
    R = 0.5 * (Q + Q.T) / np.sqrt(n)
    M = rng.standard_normal((m, n)) / np.sqrt(n)
    return model.OscillatorSpec(n=n, m=m, Theta=Theta, R=R, M=M, T=T, theta=0.0)


def random_hurwitz_spec(rng, n, m=None, T=1.0):
    """Random spec redrawn until the drift is Hurwitz.

    A positive definite R plus the field coupling makes the rejection
    rate low, for m < n too; the loop is bounded in practice.
    """
    m = n if m is None else m
    while True:
        cand = random_spec(rng, n, m, T)
        Q = rng.standard_normal((n, n)) / np.sqrt(n)
        cand = model.OscillatorSpec(
            n=n, m=m, Theta=cand.Theta, R=Q.T @ Q + 0.3 * np.eye(n),
            M=cand.M, T=T, theta=0.0)
        if model.is_hurwitz(model.build_system(cand).A):
            return cand


def envelope_config(rng, out_dir):
    """One CLI config of the operating-envelope corpus, drawn from rng.

    Three draws in four are random_hurwitz_spec: n in {2, 4}, m = 2 or
    m = n, the horizon T log-uniform in [0.1, 16], 1-8 panels of 16 nodes
    and capture 0.99.  The rest are the non-Hurwitz slice: random_spec,
    whose drift need not be stable, T log-uniform in [0.01, 20], 1-8
    panels of 2-19 nodes and a capture in [0.5, 0.999].  Every grid stays
    at desk scale (at most 608 unknowns).  The mc section (400 samples in
    20 batches) lets validate run too.
    """
    n = int(rng.choice([2, 4]))
    m = int(rng.choice([2, n]))
    if rng.uniform() < 0.75:
        T = float(np.exp(rng.uniform(np.log(0.1), np.log(16.0))))
        spec = random_hurwitz_spec(rng, n, m, T)
        nodes, capture = 16, 0.99
    else:
        T = float(np.exp(rng.uniform(np.log(0.01), np.log(20.0))))
        spec = random_spec(rng, n, m, T)
        nodes, capture = int(rng.integers(2, 20)), float(rng.uniform(0.5, 0.999))
    return {
        "oscillator": {"n": n, "m": m, "Theta": spec.Theta.tolist(), "R": spec.R.tolist(),
                       "M": spec.M.tolist(), "T": T, "theta": 0.0},
        "grid": {"panels": int(rng.integers(1, 9)), "nodes_per_panel": nodes},
        "eigen": {"capture_fraction": capture},
        "qef": {"theta_list": [0.1, 0.5]},
        "mc": {"samples": 400, "seed": 0, "batch": 20},
        "output_dir": str(out_dir),
    }


def dense_kernel(A, base, s, t):
    """One-sided-exponential kernel with one expm per time pair.

    The reference for the panel-factored kernels.kernel_matrix:
    e^{tau A} base for tau = s_a - t_b >= 0, base e^{-tau A^T} otherwise.
    """
    d = s[:, None] - t[None, :]
    E = expm(np.abs(d)[..., None, None] * A)
    return np.where((d >= 0.0)[..., None, None], E @ base, base @ np.swapaxes(E, -1, -2))


def planted_bvp_matrices(defect):
    """kernels.bvp_matrices with one planted defect in D(omega).

    "transpose" puts A in place of A^T in the lower-right block, "sign"
    flips B^2; the split is recomputed from the planted D.
    """
    def bvp(ctx, omega):
        n, A = ctx.n, ctx.sys.A
        D = kernels.bvp_matrices(ctx, omega).D
        if defect == "transpose":
            D[..., n:, n:] += A.T - A
        else:
            D[..., :n, n:] *= -1.0
        return kernels.boundary_split(D, ctx.grid.T, np.asarray(omega, dtype=float))
    return bvp
