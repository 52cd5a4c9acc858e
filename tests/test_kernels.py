"""Kernel evaluation, integral operator routes, and the boundary system.

For the reference system A = 2(J2 - I) gives e^{tau A} =
e^{-2 tau} (cos(2 tau) I + sin(2 tau) J2), so the commutator and
covariance kernels have hand-checkable closed forms, and the squared
Hilbert-Schmidt norm integrates to (3 + e^{-4}) / 4.
"""

import numpy as np
import pytest
import scipy.linalg
from conftest import J2, dense_kernel, random_hurwitz_spec, squeezed_spec
from oracles import (
    apply_L_einsum,
    apply_L_split,
    boundary_logdet,
    det_ratio,
    green_function,
    inner,
    kernel_on_grid_gathered,
    nystrom_apply,
    reference_delta,
    weighted_blocks,
)

from qeflab import kernels, model, quadrature
from qeflab.errors import GridMismatch, IllConditionedSplit, NonpositiveOmega

HS_GRID_FROZEN = 7.5470480014459196e-01
FIRST_ROOT = 5.7465521633649530e-01


def rotation_form(tau):
    decay = np.exp(-2.0 * tau)
    return decay * (np.cos(2.0 * tau) * np.eye(2) + np.sin(2.0 * tau) * J2)


def lambda_at(ctx, s, t):
    """Commutator kernel Lambda(s - t) from the dense one-expm reference."""
    return dense_kernel(ctx.sys.A, ctx.Theta, np.array([s]), np.array([t]))[0, 0]


def test_lambda_kernel_closed_form(ctx):
    for tau in (0.0, 0.2, 0.7):
        want = rotation_form(tau) @ J2
        got = lambda_at(ctx, tau, 0.0)
        assert np.allclose(got, want, atol=1e-13)
    assert np.allclose(lambda_at(ctx, 0.3, 0.3), J2, atol=1e-14)


def test_lambda_kernel_skew_symmetry(ctx):
    for s, t in ((0.1, 0.6), (0.9, 0.2), (0.4, 0.4)):
        fwd = lambda_at(ctx, s, t)
        rev = lambda_at(ctx, t, s)
        assert np.allclose(fwd, -rev.T, atol=1e-13)


def test_lambda_grid_matches_pointwise(ctx):
    nodes = ctx.grid.nodes
    idx = [0, 17, 63, 127]
    for a in idx:
        for b in idx:
            want = lambda_at(ctx, nodes[a], nodes[b])
            assert np.allclose(ctx.lambda_grid[a, b], want, atol=1e-12)


@pytest.fixture(scope="module")
def nonnormal_system():
    spec = random_hurwitz_spec(np.random.default_rng(2024), 4)
    sysm = model.build_system(spec)
    return sysm.A, spec.Theta, model.solve_state_ale(sysm.A, sysm.B).P0


def _midpoint_grid(m):
    # the Monte-Carlo Z-route increment grid: one Gauss-Legendre node per panel
    bounds = np.linspace(0.0, 1.0, m + 1)
    return quadrature.Grid(T=1.0, panels=m, order=1, nodes=0.5 * (bounds[:-1] + bounds[1:]),
                           weights=np.full(m, 1.0 / m))


@pytest.mark.parametrize("make", [
    lambda: quadrature.make_grid(1.0, panels=1, order=2),    # no panel gaps
    lambda: quadrature.make_grid(1.0, panels=3, order=5),
    lambda: quadrature.make_grid(1.0, panels=8, order=16),
    lambda: quadrature.make_grid(1.0, panels=16, order=16),
    lambda: _midpoint_grid(64),
], ids=["1x2", "3x5", "8x16", "16x16", "midpoint64"])
def test_kernel_on_grid_matches_dense_expm(nonnormal_system, make):
    A, Theta, P0 = nonnormal_system
    grid = make()
    for base in (Theta, P0):
        ref = dense_kernel(A, base, grid.nodes, grid.nodes)
        got = kernels._block_view(
            kernels.kernel_matrix(grid, kernels.lag_exponentials(A, grid), base), A.shape[0])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("system", ["readme", "squeezed", "random4"])
def test_grids_equal_per_pair_assembly(osc_spec, grid, system):
    # applying the base once per panel lag, before the gather, must not
    # move a bit against applying it at every node pair after the gather
    spec = {"readme": osc_spec, "squeezed": squeezed_spec(),
            "random4": random_hurwitz_spec(np.random.default_rng(2024), 4)}[system]
    c = kernels.make_context(spec, grid)
    P0 = model.solve_state_ale(c.sys.A, c.sys.B).P0
    assert np.array_equal(c.lambda_grid, kernel_on_grid_gathered(c.sys.A, grid, c.Theta))
    assert np.array_equal(kernels.covariance_on_grid(c, P0),
                          weighted_blocks(grid, kernel_on_grid_gathered(c.sys.A, grid, P0)))


def test_grids_share_one_set_of_lag_exponentials(osc_spec, grid, monkeypatch):
    # the in-panel, cross-panel and gap exponentials are made once per
    # context; both kernel grids only apply their base to them
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return expm(a)

    expm = kernels.expm
    monkeypatch.setattr(kernels, "expm", counting)
    c = kernels.make_context(osc_spec, grid)
    c.lambda_grid
    kernels.covariance_on_grid(c, np.eye(2))
    assert len(calls) == 3
    # lambda_grid is a view of the node-major matrix the Nystrom matrix weights
    assert np.shares_memory(c.lambda_grid, c.lambda_matrix)


def _max_rel(got, ref):
    """Largest entry error of each matrix relative to its largest entry."""
    err = np.abs(got - ref).max(axis=(-2, -1))
    return float(np.max(err / np.abs(ref).max(axis=(-2, -1))))


def test_expm_closed_form(ctx):
    # e^{tA} of the README drift A = 2(J2 - I), far into its decay
    t = np.linspace(0.0, 16.0, 321)
    got = kernels.expm(t[:, None, None] * ctx.sys.A)
    ref = np.stack([rotation_form(tau) for tau in t])
    assert _max_rel(got, ref) <= 1e-13


def test_expm_matches_scipy():
    rng = np.random.default_rng(505)
    lags = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    real = lags[..., None, None] * (rng.standard_normal((2, 2)) - 2.0 * np.eye(2))
    cplx = (rng.standard_normal((400, 4, 4)) + 1j * rng.standard_normal((400, 4, 4))) \
        * np.linspace(0.01, 20.0, 400)[:, None, None]
    jordan = 0.5 * np.eye(4) + np.eye(4, k=1)
    nilpotent = np.array([[0, 1], [0, 0]])          # integer input
    for a in (real, cplx, jordan, np.zeros((3, 3)), nilpotent):
        got = kernels.expm(a)
        assert got.shape == a.shape and got.dtype == np.result_type(a, float)
        assert _max_rel(got, scipy.linalg.expm(a)) <= 1e-12


def test_hs_total_frozen_and_analytic(ctx):
    assert ctx.hs_total == pytest.approx(HS_GRID_FROZEN, rel=1e-12)
    analytic = (3.0 + np.exp(-4.0)) / 4.0
    # the |tau| kink limits the grid quadrature near the diagonal
    assert ctx.hs_total == pytest.approx(analytic, abs=3e-4)


def composite_hs(ctx, panels=64, order=64):
    """2 int_0^T (T - tau) ||e^{tau A} Theta||_F^2 dtau by a composite rule and scipy's expm."""
    tau_grid = quadrature.make_grid(ctx.grid.T, panels, order)
    tau, w = tau_grid.nodes, tau_grid.weights
    lam = np.stack([scipy.linalg.expm(t * ctx.sys.A) for t in tau]) @ ctx.Theta
    return 2.0 * float(np.sum(w * (ctx.grid.T - tau) * np.einsum('kij,kij->k', lam, lam)))


def test_hs_exact_is_grid_free(osc_spec):
    # the README closed form on every grid, where hs_total misses it by
    # up to 0.3 on one panel of two nodes
    analytic = (3.0 + np.exp(-4.0)) / 4.0
    for panels, order in ((1, 2), (2, 4), (8, 16)):
        c = kernels.make_context(osc_spec, quadrature.make_grid(1.0, panels, order))
        assert c.hs_exact == pytest.approx(analytic, rel=1e-14)


def at_horizon(spec, T, **changes):
    """spec with horizon T (and any other field changed) on a 2 x 4 grid's context."""
    fields = dict(n=spec.n, m=spec.m, Theta=spec.Theta, R=spec.R, M=spec.M, T=T, theta=0.0)
    fields.update(changes)
    return kernels.make_context(model.OscillatorSpec(**fields), quadrature.make_grid(T, 2, 4))


@pytest.mark.parametrize("T", [1.0, 64.0, 200.0, 1e6])
def test_hs_exact_matches_closed_form_at_any_horizon(osc_spec, T):
    # README: ||L||^2_HS = 4 (T/4 - (1 - e^{-4T})/16).  One 32-node rule
    # over [0, T] was off by 1.3e-6 at T = 64 and 4.0e-2 at T = 200; the
    # panel sums double 22 times at T = 1e6 (2^22 panels)
    exact = 4.0 * (T / 4.0 - (1.0 - np.exp(-4.0 * T)) / 16.0)
    assert at_horizon(osc_spec, T).hs_exact == pytest.approx(exact, rel=1e-13)


def test_hs_exact_on_a_closed_oscillator(osc_spec):
    # M = 0 and R = diag(1, 2) leave A = [[0, 4], [-2, 0]], with imaginary
    # eigenvalues +-i sqrt(8): ||e^{tau A} Theta||_F^2 = 2.25 - 0.25 cos(2
    # sqrt(8) tau), so ||L||^2_HS = 2.25 T^2 - (1 - cos(2 sqrt(8) T)) / 64.
    # At T = 64 the integrand turns 58 times, and one 32-node rule was off
    # by 1.4e-2
    T = 64.0
    c = at_horizon(osc_spec, T, R=np.diag([1.0, 2.0]), M=np.zeros((2, 2)))
    assert np.allclose(c.sys.A, [[0.0, 4.0], [-2.0, 0.0]], rtol=0.0, atol=0.0)
    exact = 2.25 * T ** 2 - (1.0 - np.cos(2.0 * np.sqrt(8.0) * T)) / 64.0
    assert c.hs_exact == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("T", [1.0, 8.0])
@pytest.mark.parametrize("seed", [None, 7, 12])
def test_hs_exact_matches_composite_rule(T, seed):
    # squeezed and two random n = 4 specs (the stiff seed 12 reads 3.0e-9 at T = 8)
    spec = squeezed_spec() if seed is None else random_hurwitz_spec(
        np.random.default_rng(seed), 4)
    spec = model.OscillatorSpec(n=spec.n, m=spec.m, Theta=spec.Theta, R=spec.R, M=spec.M,
                                T=T, theta=0.0)
    c = kernels.make_context(spec, quadrature.make_grid(T))
    assert c.hs_exact == pytest.approx(composite_hs(c), rel=1e-8)


def test_covariance_closed_form(ctx, state):
    # P_h is node-major and weighted: its (a, b) block is sqrt(w_a w_b) P(s_a - s_b)
    nodes, w = ctx.grid.nodes, ctx.grid.weights
    Ph = kernels.covariance_on_grid(ctx, state.P0)
    assert Ph.shape == (2 * nodes.size, 2 * nodes.size)
    blocks = kernels._block_view(Ph, 2) / np.sqrt(np.outer(w, w))[..., None, None]
    a, b = 90, 30
    tau = nodes[a] - nodes[b]
    assert np.allclose(blocks[a, b], rotation_form(tau), atol=1e-13)
    assert np.allclose(blocks[b, a], rotation_form(tau).T, atol=1e-13)
    want = dense_kernel(ctx.sys.A, state.P0, nodes[[b]], nodes[[a]])[0, 0]
    assert np.allclose(blocks[b, a], want, atol=1e-14)


def test_apply_L_routes_agree(ctx):
    # the Nystrom matrix K against the one-sided propagation of L
    nodes = ctx.grid.nodes
    f = np.stack([np.sin(2.0 * nodes), np.cos(nodes) * nodes], axis=1)
    dense = nystrom_apply(ctx, f)
    g_plus, g_minus = apply_L_split(ctx, f)
    split = g_plus + g_minus @ ctx.Theta.T
    assert np.max(np.abs(dense - split)) <= 2e-4
    with pytest.raises(GridMismatch):
        apply_L_split(ctx, f[:-1])


@pytest.mark.parametrize("system", ["readme", "squeezed", "random4"])
def test_apply_L_matches_einsum_reference(ctx, grid, system):
    spec = {"readme": None, "squeezed": squeezed_spec(),
            "random4": random_hurwitz_spec(np.random.default_rng(7), 4)}[system]
    c = ctx if spec is None else kernels.make_context(spec, grid)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((grid.size, c.n)) + 1j * rng.standard_normal((grid.size, c.n))
    ref = apply_L_einsum(c, f)
    assert np.max(np.abs(nystrom_apply(c, f) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_apply_L_discrete_skew_adjointness(ctx, grid):
    # the weighted kernel is antisymmetric before K's antisymmetrization, so
    # that only removes rounding
    K = ctx.nystrom_matrix
    K0 = kernels.weighted_matrix(grid, ctx.lambda_matrix)
    assert np.max(np.abs(K0 + K0.T)) <= 1e-15 * np.max(np.abs(K))
    rng = np.random.default_rng(11)
    f = rng.standard_normal((grid.size, 2))
    g = rng.standard_normal((grid.size, 2))
    lhs = inner(grid, f, nystrom_apply(ctx, g))
    rhs = inner(grid, nystrom_apply(ctx, f), g)
    assert abs(lhs + rhs) <= 1e-13 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("operator", ["L", "P"])
def test_nystrom_determinants_converge_to_boundary_logdet(operator):
    # ln det(I - K) at s = 1 and ln det(I - theta P_h) at theta = 0.348 on the
    # squeezed oscillator against the grid-free boundary determinant: O(h^2),
    # so each halving of the panel width divides the error by 4 (measured
    # 3.996-4.003).  A 1e-6 relative error in P_h drives the ratio to 3.3
    spec = squeezed_spec()
    errors = []
    for panels in (4, 8, 16):
        c = kernels.make_context(spec, quadrature.make_grid(spec.T, panels, 16))
        if operator == "L":
            M, B = c.nystrom_matrix, c.Theta
        else:
            P0 = model.solve_state_ale(c.sys.A, c.sys.B).P0
            M, B = 0.348 * kernels.covariance_on_grid(c, P0), 0.348 * P0
        sign, logdet = np.linalg.slogdet(np.eye(M.shape[0]) - M)
        assert sign > 0.0
        errors.append(logdet - boundary_logdet(c.sys.A, B, spec.T))
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.3)
    assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.3)


def test_boundary_logdet_gives_the_leqg_value(ctx, state):
    # the classical QEF exp(-ln det(I - theta P) / 2) at theta = 0.87 on the
    # README oscillator, off the grid
    xi_classical = np.exp(-0.5 * boundary_logdet(ctx.sys.A, 0.87 * state.P0, ctx.grid.T))
    assert xi_classical == pytest.approx(2.9532891834831543, rel=1e-12)


def delta(ctx, omega):
    """Delta(omega) = det Y(T) e^{T tr A} from the package's split of D(omega).

    det N = (-1)^n e^{-T tr S+} det Y(T), by the Schur complement of N's
    lower-left block e^{-T S+}.
    """
    b, n, T = kernels.bvp_matrices(ctx, omega), ctx.n, ctx.grid.T
    tr_plus = np.trace(b.S[..., 0, :, :], axis1=-2, axis2=-1)
    return (-1) ** n * np.linalg.det(b.N) * np.exp(T * (tr_plus + np.trace(ctx.sys.A)))


@pytest.mark.parametrize("system", ["readme", "squeezed", "random4"])
def test_bvp_determinant_matches_companion(ctx, grid, system):
    # the x/y system's det Y(T) e^{T tr A} against det E_c / det G(T) of the
    # companion form, which needs mho^-1 and Theta^-1, at 50 omega of
    # [omega_max / 10, omega_max], omega_max just above the HS bound on
    # omega_1; near a root both sides keep only their absolute
    # rounding, so the misfit is measured against the band's largest
    # |Delta| (7.9e-14 README, 2.7e-13 squeezed, 6.5e-14 random4; near the
    # README roots the companion form is itself up to 1.8e-12 relative off
    # a 40-digit Delta, the x/y system 4.3e-14)
    spec = {"readme": None, "squeezed": squeezed_spec(),
            "random4": random_hurwitz_spec(np.random.default_rng(7), 4)}[system]
    c = ctx if spec is None else kernels.make_context(spec, grid)
    omega_max = 1.05 * float(np.sqrt(c.hs_total / 2.0))
    ws = np.linspace(omega_max / 10.0, omega_max, 50)
    got, ref = delta(c, ws), det_ratio(c, ws)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("omega", [0.1, 0.19, 0.3, 0.45, 0.57, 0.65])
def test_bvp_determinant_matches_40_digit_delta(ctx, omega):
    # pointwise against the companion form's Delta evaluated at 40 digits,
    # so the float companion's own rounding cannot hide a misfit; 0.19 and
    # 0.57 lie within 3% of the README roots 0.1955 and 0.5747 (misfits
    # 1.7e-14 and 4.3e-14, at most 3.2e-15 elsewhere)
    ref = reference_delta(ctx, omega)
    assert abs(delta(ctx, omega) - ref) <= 1e-12 * abs(ref)


def test_green_function_matches_lambda(ctx):
    for s, t in ((0.0, 0.5), (0.5, 0.0), (0.3, 0.3), (0.9, 0.4), (0.2, 0.8)):
        want = lambda_at(ctx, s, t)
        got = green_function(ctx, s, t)
        assert np.max(np.abs(got - want)) <= 1e-8
    with pytest.raises(GridMismatch):
        green_function(ctx, -0.1, 0.5)


def test_bvp_matrices_structure(ctx):
    with pytest.raises(NonpositiveOmega):
        kernels.bvp_matrices(ctx, 0.0)
    omega = 0.31
    b = kernels.bvp_matrices(ctx, omega)
    D, B, A = b.D, (-1j / omega) * ctx.Theta, ctx.sys.A
    assert np.array_equal(D[:2, :2], A + B)
    assert np.allclose(D[:2, 2:], -(J2 @ J2) / omega ** 2, rtol=1e-15, atol=0.0)
    assert np.array_equal(D[2:, :2], -np.eye(2))
    assert np.array_equal(D[2:, 2:], -A.T - B)
    # Z's halves span invariant subspaces of D, c = Z^-1 [0; I], and the
    # ordered split leaves S+ the eigenvalues right of S-'s
    Xp, Xm, Sp, Sm = b.Z[:, :2], b.Z[:, 2:], b.S[0], b.S[1]
    assert _max_rel(D @ Xp, Xp @ Sp) <= 1e-14 and _max_rel(D @ Xm, Xm @ Sm) <= 1e-14
    assert _max_rel(b.Z @ b.c, np.vstack([np.zeros((2, 2)), np.eye(2)])) <= 1e-14
    assert np.linalg.eigvals(Sm).real.max() <= np.linalg.eigvals(Sp).real.min() + 1e-12
    # X2+ e^{T S+} c+ + X2- e^{T S-} c- is the lower-right block of e^{T D}, T = 1
    Y = (Xp[2:] @ scipy.linalg.expm(Sp) @ b.c[:2] + Xm[2:] @ scipy.linalg.expm(Sm) @ b.c[2:])
    assert _max_rel(Y, scipy.linalg.expm(D)[2:, 2:]) <= 1e-13
    N = np.block([[Xp[2:], Xm[2:] @ scipy.linalg.expm(Sm) @ b.c[2:]],
                  [scipy.linalg.expm(-Sp), -b.c[:2]]])
    assert _max_rel(b.N, N) <= 1e-14


def test_bvp_matrices_batched(ctx):
    ws = np.array([0.31, FIRST_ROOT, 1.7, 4.0])
    b = kernels.bvp_matrices(ctx, ws)
    assert b.D.shape == (4, 4, 4) and b.S.shape == (4, 2, 2, 2) and b.N.shape == (4, 4, 4)
    for field, value in zip(b._fields, b):
        single = np.stack([getattr(kernels.bvp_matrices(ctx, w), field) for w in ws])
        assert np.array_equal(value, single), field
    assert kernels.bvp_matrices(ctx, ws.reshape(2, 2)).N.shape == (2, 2, 4, 4)
    for bad in (np.array([0.31, 0.0]), np.array([-1.0, 0.5]), np.array([0.5, np.nan])):
        with pytest.raises(NonpositiveOmega):
            kernels.bvp_matrices(ctx, bad)


@pytest.mark.parametrize("T", [1.0, 64.0, 400.0])
def test_split_stays_bounded(osc_spec, T):
    # README near omega_1 and omega_2 and at omega = 61.4, far above the
    # spectrum: e^{T D(omega)} grows like e^{7.4 T} and overflowed at
    # T = 400, while N's largest entry stays 1.000 at every T, and
    # ln |Delta(61.4)| = ln |det N| + T Re tr S+ + T tr A matches
    # -||L||^2_HS / (2 omega^2) within 8.3e-5 relative
    c = at_horizon(osc_spec, T)
    ws = np.array([0.2, 0.57, 61.4])
    b = kernels.bvp_matrices(c, ws)
    assert np.abs(b.N).max() <= 1.5
    tr_plus = np.trace(b.S[:, 0], axis1=-2, axis2=-1).real
    log_delta = np.linalg.slogdet(b.N)[1] + T * (tr_plus + np.trace(c.sys.A))
    assert log_delta[-1] == pytest.approx(-c.hs_exact / (2.0 * ws[-1] ** 2), rel=1e-3)


def test_coalescing_eigenvalues_are_one_named_error():
    # a 4-fold defective eigenvalue of D belongs to both halves of the
    # split, which then share no pair of invariant subspaces: the split
    # refuses it, naming omega, rather than return an N built from them
    D = 2j * np.eye(4) + np.diag(np.ones(3), 1)
    with pytest.raises(IllConditionedSplit, match="at omega = 1 has an eigenvalue on each side"):
        kernels.boundary_split(D, 1.0, np.asarray(1.0))
    assert IllConditionedSplit.exit_code == 3


def test_bvp_determinant_vanishes_at_root(ctx):
    assert abs(delta(ctx, FIRST_ROOT)) <= 1e-8
    assert abs(delta(ctx, 0.31)) > 1e-4

