"""Eigenfrequency scan, shooting eigenfunctions, and the Nystrom oracle."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import J2, random_hurwitz_spec, squeezed_spec
from oracles import det_ratio, nystrom_hermitian, ode_residual, propagate_per_node
from scipy.linalg import block_diag

from qeflab import eigensolver as es
from qeflab import kernels, model, quadrature
from qeflab.errors import (
    CaptureUnreachable,
    InvalidParameter,
    NonpositiveOmega,
    NoRootsFound,
    RankCollapse,
    RefinementStalled,
)

ROOTS_FROZEN = (5.7465521633649530e-01, 1.9547061871487989e-01,
                7.8524605398457306e-02)
HS_CAPTURED_FROZEN = 7.4920698819301113e-01
CAPTURE_FROZEN = 9.9271528159019595e-01
MERCER_FROZEN = 5.3907773051912484e-03
NYSTROM_TOP_FROZEN = 5.7468672587252234e-01
SQUEEZED_ROOTS_FROZEN = (6.339011479288987e-01, 1.8865706645488806e-01,
                         7.195140364983442e-02)


def test_scan_finds_certified_roots(ctx):
    roots = es.scan_eigenfrequencies(ctx, 0.06, 0.65, samples=400)
    assert len(roots) == 3
    omegas = [r.omega for r in roots]
    assert omegas == sorted(omegas, reverse=True)
    for root, frozen in zip(roots, ROOTS_FROZEN):
        assert root.omega == pytest.approx(frozen, rel=1e-9)
        assert root.det_ratio <= es.DET_ACCEPT_RTOL
        assert root.multiplicity == 1


def test_scan_input_validation(ctx):
    with pytest.raises(NonpositiveOmega):
        es.scan_eigenfrequencies(ctx, -0.1, 0.5, samples=50)
    with pytest.raises(NonpositiveOmega):
        es.scan_eigenfrequencies(ctx, 0.5, 0.1, samples=50)
    with pytest.raises(InvalidParameter, match="eigen.samples must be at least 3, got 2"):
        es.scan_eigenfrequencies(ctx, 0.1, 0.5, samples=2)


def test_scan_empty_band_raises(ctx):
    with pytest.raises(NoRootsFound):
        es.scan_eigenfrequencies(ctx, 0.60, 0.65, samples=60)


def two_copy_spec():
    """Two identical decoupled copies of the README mode.

    M routes columns to channels [0, 2, 1, 3] so that M^T J M = blockdiag(J2, J2).
    """
    return model.OscillatorSpec(n=4, m=4, Theta=block_diag(J2, J2), R=np.eye(4),
                                M=np.eye(4)[:, [0, 2, 1, 3]], T=1.0, theta=0.0)


def default_band(ctx):
    """build_basis's default band [omega_max / 10, omega_max]."""
    omega_max = 1.05 * float(np.sqrt(ctx.hs_total / 2.0))
    return omega_max / 10.0, omega_max


def test_minimum_between_gates_stalls(ctx, monkeypatch):
    # every README root refines to |det E|/|det G| between 1e-14 and 1e-10;
    # with the accept gate below that, the first one lies between the gates
    monkeypatch.setattr(es, "DET_ACCEPT_RTOL", 1e-20)
    with pytest.raises(RefinementStalled, match="refined only to"):
        es.scan_eigenfrequencies(ctx, *default_band(ctx))


def test_scan_refines_in_few_batched_calls(ctx, monkeypatch):
    # one call samples the band, each refinement step is one call for all
    # brackets, and each root adds one kernel-dimension check
    calls = []

    def counting(ctx, omega):
        calls.append(np.shape(omega))
        return kernels.bvp_matrices(ctx, omega)

    monkeypatch.setattr(es, "bvp_matrices", counting)
    roots = es.scan_eigenfrequencies(ctx, *default_band(ctx))
    assert len(calls) <= 30
    assert calls.count(()) == len(roots)


def test_squeezed_oscillator_roots():
    ctx = kernels.make_context(squeezed_spec(), quadrature.make_grid(1.0, panels=8, order=16))
    roots = es.scan_eigenfrequencies(ctx, *default_band(ctx))
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    omegas = np.array([r.omega for r in roots])
    assert omegas == pytest.approx(SQUEEZED_ROOTS_FROZEN, rel=1e-12)
    nystrom = es.nystrom_oracle(ctx).omegas[:3]
    assert np.max(np.abs(omegas - nystrom)) <= 2e-4 * omegas[0]


def test_degenerate_roots(grid):
    ctx4 = kernels.make_context(two_copy_spec(), grid)
    assert np.allclose(ctx4.sys.A, block_diag(2.0 * (J2 - np.eye(2)), 2.0 * (J2 - np.eye(2))))
    basis = es.build_basis(ctx4, 0.97)
    assert [p.multiplicity for p in basis.pairs] == [2, 2, 2, 2]
    assert basis.omegas == pytest.approx(np.repeat(ROOTS_FROZEN[:2], 2), rel=1e-9)
    assert basis.gram_max_dev <= 1e-12


def test_det_ratio_profile(ctx):
    assert det_ratio(ctx, ROOTS_FROZEN[0]) <= es.DET_ACCEPT_RTOL
    assert det_ratio(ctx, 0.31) > 1e-4


def test_eigenfunction_properties(ctx, grid):
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[0]
    assert root.omega == pytest.approx(ROOTS_FROZEN[0], rel=1e-9)
    pairs = es.eigenfunction_from_root(ctx, root)
    assert len(pairs) == 1
    p = pairs[0]
    f = p.phi + 1j * p.psi
    assert quadrature.norm(grid, p.phi) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert quadrature.norm(grid, p.psi) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert quadrature.norm(grid, f) == pytest.approx(1.0, abs=1e-12)
    # canonical phase: the dominant f0 entry is real positive
    lead = p.f0[np.argmax(np.abs(p.f0))]
    assert abs(lead.imag) <= 1e-12 * abs(lead)
    assert lead.real > 0.0
    assert p.boundary_residual <= 1e-8
    assert p.bvp_residual <= 1e-4
    # the integral operator reproduces i omega f
    resid = kernels.apply_L(ctx, f) - 1j * p.omega * f
    assert quadrature.norm(grid, resid) <= 1e-4


def test_eigenfunction_ode_residual(ctx, basis):
    for pair in basis.pairs:
        assert ode_residual(ctx, pair) <= 1e-6


def test_conjugate_orthogonality(ctx, grid, basis):
    # <conj f_j, f_k> = 0 distinguishes the +omega eigenspace from -omega
    for j, pj in enumerate(basis.pairs):
        fj = pj.phi + 1j * pj.psi
        for pk in basis.pairs[j:]:
            fk = pk.phi + 1j * pk.psi
            assert abs(quadrature.inner(grid, np.conj(fj), fk)) <= 1e-6


def test_rank_collapse_on_repeated_kernel_rows(ctx):
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[0]
    repeated = replace(root, kernel=np.vstack([root.kernel, root.kernel]))
    assert repeated.multiplicity == 2
    with pytest.raises(RankCollapse, match="linearly dependent"):
        es.eigenfunction_from_root(ctx, repeated)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_rank_collapse_on_nearly_equal_kernel_rows(ctx, index):
    # rows 1e-9 apart are one kernel direction; propagation magnifies their
    # difference to 4e-8 (omega = 0.19547) and 4e-7 (omega = 0.078525) of
    # the functions, which a Gram-pivot test at 1e-8 passed as a second
    # eigenpair with bvp_residual 0.49 and 0.35
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[index]
    assert root.omega == pytest.approx(ROOTS_FROZEN[index], rel=1e-10)
    k = root.kernel[0]
    near = replace(root, kernel=np.array([k, k + 1e-9 * np.array([1.0, -1.0j])]))
    with pytest.raises(RankCollapse, match="linearly dependent"):
        es.eigenfunction_from_root(ctx, near)


def test_mixed_kernel_rows_orthonormalize(grid):
    # a non-orthogonal basis of a double root's kernel gives the same
    # orthonormal eigenspace as the scan's own kernel vectors
    ctx4 = kernels.make_context(two_copy_spec(), grid)
    root = es.scan_eigenfrequencies(ctx4, *default_band(ctx4))[0]
    a, b = root.kernel
    pairs = es.eigenfunction_from_root(ctx4, replace(root, kernel=np.array([a, a + 0.5j * b])))
    f = np.stack([p.phi + 1j * p.psi for p in pairs], axis=-1)
    gram = np.einsum('a,aij,aik->jk', grid.weights, f.conj(), f)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
    for p in pairs:
        assert p.multiplicity == 2
        assert p.bvp_residual <= 1e-4
        assert p.boundary_residual <= 1e-8
    scan = es.eigenfunction_from_root(ctx4, root)
    g = np.stack([p.phi + 1j * p.psi for p in scan], axis=-1)
    overlap = np.einsum('a,aij,aik->jk', grid.weights, g.conj(), f)
    assert np.allclose(overlap.conj().T @ overlap, np.eye(2), atol=1e-12)


def test_build_basis_one_pass_per_root(ctx, grid, monkeypatch):
    # each root costs one scalar bvp_matrices call and one SVD in the scan,
    # which its eigenpairs reuse, whatever its multiplicity
    calls, svds = [], []

    def counting(ctx, omega):
        calls.append(np.shape(omega))
        return kernels.bvp_matrices(ctx, omega)

    def counting_svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return svd(a, *args, **kwargs)

    svd = np.linalg.svd
    two_copy = kernels.make_context(two_copy_spec(), grid)
    monkeypatch.setattr(es, "bvp_matrices", counting)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for c, capture, n_roots in ((ctx, 0.99, 3), (two_copy, 0.97, 2)):
        calls.clear()
        svds.clear()
        es.build_basis(c, capture)
        assert calls.count(()) == n_roots
        assert len(svds) == n_roots


def test_squeezed_basis_orthonormal(grid):
    ctx = kernels.make_context(squeezed_spec(), grid)
    basis = es.build_basis(ctx, 0.99)
    target = 0.5 * np.einsum('jk,pq->jkpq', np.eye(len(basis.pairs)), np.eye(2))
    assert np.max(np.abs(es.basis_gram(basis) - target)) <= 1e-12
    for p in basis.pairs:
        assert p.bvp_residual <= 1e-4
        assert p.boundary_residual <= 1e-8
    assert basis.mercer_residual <= basis.hs_total - basis.hs_captured


def test_nystrom_oracle_spectrum(ctx):
    res = es.nystrom_oracle(ctx)
    assert res.omegas[0] == pytest.approx(NYSTROM_TOP_FROZEN, rel=1e-12)
    # the spectrum of the skew operator comes in +/- pairs
    ev = res.eigenvalues
    assert np.array_equal(ev, np.sort(ev))
    assert np.array_equal(ev, -ev[::-1])
    # discretized eigenvalues agree with shooting at grid accuracy
    for k, frozen in enumerate(ROOTS_FROZEN):
        assert res.omegas[k] == pytest.approx(frozen, rel=5e-3)


@pytest.fixture(scope="module", params=["readme", "squeezed", "random4"])
def route_ctx(request, ctx):
    """(system, context) on the 8 x 16 grid for the README, squeezed and a random n = 4 system."""
    if request.param == "readme":
        return request.param, ctx
    spec = (squeezed_spec() if request.param == "squeezed"
            else random_hurwitz_spec(np.random.default_rng(7), 4))
    return request.param, kernels.make_context(spec, quadrature.make_grid(1.0))


def test_panel_propagation_matches_per_node(route_ctx):
    # e^{t_p D} e^{x_q D} V against one exponential per node at every
    # certified root.  Both round at a level that grows with ||T D||: for
    # the random n = 4 draw of seed 12 (||D|| = 1e3) they differ by 7e-11,
    # per node 5e-11 and by panel 2e-11 off a 40-digit exponential, so the
    # random system here is a fixed draw with ||D|| of 16-17 (README: 16-59)
    _, c = route_ctx
    roots = es.scan_eigenfrequencies(c, *default_band(c))
    assert roots
    for root in roots:
        got = es._propagator(c, root.bvp.D)
        want = propagate_per_node(c, root.bvp.D)[:, :c.n]
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert err.max() <= 1e-13


def test_nystrom_matches_hermitian_route(route_ctx):
    system, c = route_ctx
    res, ref = es.nystrom_oracle(c), nystrom_hermitian(c)
    w1 = ref.omegas[0]
    top = 2 * len(es.scan_eigenfrequencies(c, *default_band(c)))
    assert np.abs(res.omegas[:top] - ref.omegas[:top]).max() <= 1e-12 * w1
    assert res.eigenvalues.shape == ref.eigenvalues.shape
    # squaring keeps every omega^2 to a few eps omega_1^2, so omega only to
    # about eps omega_1^2 / omega: 1e-10 omega_1 holds down to the bottom of
    # these two spectra (smallest omega 5e-6 omega_1), not for every random
    # draw (up to 2e-9 omega_1 over seeds 0-29, whose smallest omega reach
    # 1e-9 omega_1)
    assert np.abs(res.eigenvalues ** 2 - ref.eigenvalues ** 2).max() <= 1e-12 * w1 ** 2
    if system != "random4":
        assert np.abs(res.eigenvalues - ref.eigenvalues).max() <= 1e-10 * w1


def test_build_basis_diagnostics(basis, ctx):
    assert len(basis.pairs) == 3
    assert basis.hs_total == pytest.approx(ctx.hs_total, rel=0.0)
    assert basis.hs_captured == pytest.approx(HS_CAPTURED_FROZEN, rel=1e-9)
    achieved = basis.hs_captured / basis.hs_total
    assert achieved == pytest.approx(CAPTURE_FROZEN, rel=1e-9)
    assert achieved >= basis.capture_fraction
    assert basis.gram_max_dev <= 1e-12
    assert basis.mercer_residual == pytest.approx(MERCER_FROZEN, rel=1e-6)
    assert basis.mercer_residual <= basis.hs_total - basis.hs_captured + 1e-6
    assert np.all(np.diff(basis.omegas) < 0)
    # reference: the kernel expansion as one four-operand einsum
    hk = es.stack_hk(basis)
    approx = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', basis.omegas, hk, J2, hk)
    diff = ctx.lambda_grid - approx
    w = ctx.grid.weights
    ref = float(np.einsum('a,b,ab->', w, w, np.einsum('abij,abij->ab', diff, diff)))
    assert basis.mercer_residual == pytest.approx(ref, rel=1e-13)


def test_long_horizon_basis_fails_gram_gate():
    # README oscillator at T = 16 on 32 x 16: the shooting eigenfunctions
    # pass the root scan but are far from orthonormal; the Gram gate must
    # refuse the basis rather than return it
    spec = model.OscillatorSpec(n=2, m=2, Theta=J2, R=np.eye(2), M=np.eye(2),
                                T=16.0, theta=0.348)
    ctx = kernels.make_context(spec, quadrature.make_grid(16.0, panels=32, order=16))
    with pytest.raises(RefinementStalled, match="Gram deviates"):
        es.build_basis(ctx, 0.99)


def test_build_basis_validation(ctx):
    with pytest.raises(InvalidParameter):
        es.build_basis(ctx, 0.0)
    with pytest.raises(InvalidParameter):
        es.build_basis(ctx, 1.2)


def test_build_basis_capture_unreachable(ctx):
    # the default band certifies ~0.9927; asking for more must fail loudly
    with pytest.raises(CaptureUnreachable):
        es.build_basis(ctx, 0.999)


def test_build_basis_empty_band_reports_capture_unreachable(ctx):
    with pytest.raises(CaptureUnreachable):
        es.build_basis(ctx, 0.5, omega_min=0.6, omega_max=0.65)


def test_stack_and_gram_shapes(basis):
    hk = es.stack_hk(basis)
    assert hk.shape == (3, basis.grid.size, 2, 2)
    gram = es.basis_gram(basis)
    target = 0.5 * np.einsum('jk,pq->jkpq', np.eye(3), np.eye(2))
    assert np.max(np.abs(gram - target)) <= 1e-12


def test_mercer_reconstruction_pointwise(ctx, basis):
    # 2 sum omega h J2 h^T reproduces Lambda up to the spectral tail
    hk = es.stack_hk(basis)
    om = basis.omegas
    recon = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', om, hk, J2, hk)
    misfit = recon - ctx.lambda_grid
    w = ctx.grid.weights
    msq = float(np.einsum('a,b,abij,abij->', w, w, misfit, misfit))
    assert msq <= basis.hs_total - basis.hs_captured + 1e-6
