"""Eigenfrequency scan, shooting eigenfunctions, and the Nystrom oracle."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    BASIS_CAPTURE,
    J2,
    envelope_config,
    planted_bvp_matrices,
    random_hurwitz_spec,
    squeezed_spec,
)
from oracles import (
    det_ratio,
    hk_of,
    inner,
    norm,
    nystrom_apply,
    nystrom_hermitian,
    ode_residual,
    pair_function,
    propagate_per_node,
    reference_root,
)
from scipy.linalg import block_diag

from qeflab import eigensolver as es
from qeflab import kernels, model, qef, quadrature
from qeflab.errors import (
    CaptureUnreachable,
    DeterminantIdentityViolated,
    InvalidParameter,
    NonpositiveOmega,
    NoRootsFound,
    RankCollapse,
    RefinementStalled,
)
from qeflab.qkl import build_qkl

ROOTS_FROZEN = (5.7465521633649530e-01, 1.9547061871487989e-01,
                7.8524605398457306e-02)
HS_CAPTURED_FROZEN = 7.4920698819301113e-01
CAPTURE_FROZEN = 9.9271528159019595e-01
MERCER_FROZEN = 5.3907773051912484e-03
NYSTROM_TOP_FROZEN = 5.7468672587252234e-01
SQUEEZED_ROOTS_FROZEN = (6.339011479288987e-01, 1.8865706645488806e-01,
                         7.195140364983442e-02)


def test_scan_finds_certified_roots(ctx):
    roots = es.scan_eigenfrequencies(ctx, 0.06, 0.65)
    assert len(roots) == 3
    omegas = [r.omega for r in roots]
    assert omegas == sorted(omegas, reverse=True)
    for root, frozen in zip(roots, ROOTS_FROZEN):
        assert root.omega == pytest.approx(frozen, rel=1e-9)
        assert abs(det_ratio(ctx, root.omega)) <= 1e-8
        assert root.multiplicity == 1


def test_scan_input_validation(ctx):
    with pytest.raises(NonpositiveOmega):
        es.scan_eigenfrequencies(ctx, -0.1, 0.5)
    with pytest.raises(NonpositiveOmega):
        es.scan_eigenfrequencies(ctx, 0.5, 0.1)


def test_scan_empty_band_raises(ctx):
    with pytest.raises(NoRootsFound):
        es.scan_eigenfrequencies(ctx, 0.60, 0.65)


@pytest.mark.parametrize("defect", ["transpose", "sign"])
def test_scan_refuses_a_broken_assembly(ctx, monkeypatch, defect):
    # ln Delta far above the spectrum misses -hs_exact / (2 omega^2) by
    # 0.34 (A for A^T) and 2.0 (-B^2), against <= 4.9e-5 for the real assembly
    monkeypatch.setattr(es, "bvp_matrices", planted_bvp_matrices(defect))
    with pytest.raises(DeterminantIdentityViolated, match="deviates"):
        es.scan_eigenfrequencies(ctx, *default_band(ctx))


def test_tail_check_holds_on_coarse_grids(osc_spec):
    # the check's reference is the grid-free HS norm, which the real
    # assembly meets to <= 5e-5 on every grid; the grid's hs_total is
    # 3.6e-2 high on 2 x 4, so the check must not read it.  The coarse
    # grid shows as a capture shortfall instead
    ctx24 = kernels.make_context(osc_spec, quadrature.make_grid(1.0, panels=2, order=4))
    assert es.scan_eigenfrequencies(ctx24, *default_band(ctx24))
    with pytest.raises(CaptureUnreachable):
        es.build_basis(ctx24, 0.99)


def test_tail_check_stands_aside_below_its_rounding():
    # envelope seed 23, config 21: an anti-stable drift (Re lambda(A) = 4.26
    # and 1.40) over T = 18.5 puts hs_exact at 8.8e66 and omega_inf at
    # 2.1e35, where N has lost its O(1) scale (largest entry 5.1e-12,
    # condition number 9.9e56).  ln Delta reads -67.1 there against a target
    # of -1e-4, far inside the rounding of ln |det N|: the assembly is
    # right, and the scan must not call it broken.  The basis built there
    # is not orthonormal, and the Gram gate refuses it
    cfg = envelope_config(np.random.default_rng([23, 21]), "unused")
    osc = cfg["oscillator"]
    spec = model.OscillatorSpec(
        n=osc["n"], m=osc["m"], Theta=np.array(osc["Theta"]), R=np.array(osc["R"]),
        M=np.array(osc["M"]), T=osc["T"], theta=0.0)
    ctx = kernels.make_context(spec, quadrature.make_grid(spec.T, panels=1, order=15))
    assert cfg["grid"] == {"panels": 1, "nodes_per_panel": 15}
    assert ctx.hs_exact == pytest.approx(8.8e66, rel=1e-2)
    with pytest.raises(RefinementStalled, match="Gram"):
        es.build_basis(ctx, cfg["eigen"]["capture_fraction"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_basis_with_fewer_channels_than_variables(seed):
    # m = 2 < n = 4 leaves mho = B J B^T singular; nothing in the pipeline
    # reads it, and the bases are as clean as for m = n (measured <= 3.4e-6
    # omega_1 from the Nystrom list)
    ctx4 = kernels.make_context(random_hurwitz_spec(np.random.default_rng(seed), 4, m=2),
                                quadrature.make_grid(1.0))
    assert np.linalg.matrix_rank(ctx4.sys.mho) == 2
    basis = es.build_basis(ctx4, 0.99)
    assert basis.gram_max_dev <= 1e-8
    nystrom = es.nystrom_oracle(ctx4)
    gaps = [np.min(np.abs(nystrom - w)) for w in basis.omegas]
    assert max(gaps) <= 2e-4 * nystrom[0]


def two_copy_spec():
    """Two identical decoupled copies of the README mode.

    M routes columns to channels [0, 2, 1, 3] so that M^T J M = blockdiag(J2, J2).
    """
    return model.OscillatorSpec(n=4, m=4, Theta=block_diag(J2, J2), R=np.eye(4),
                                M=np.eye(4)[:, [0, 2, 1, 3]], T=1.0, theta=0.0)


def default_band(ctx):
    """[omega_max / 10, omega_max], omega_max = 1.05 sqrt(hs_total / 2) above every omega."""
    omega_max = 1.05 * float(np.sqrt(ctx.hs_total / 2.0))
    return omega_max / 10.0, omega_max


def test_deep_tail_root_is_certified_by_its_kernel(ctx):
    # |Delta| at this README root is rounding noise while N has a clean
    # kernel (sigma_min / sigma_max = 9.2e-15): the scan must certify it,
    # to the Nystrom omega and the eigenpair equation
    nystrom = es.nystrom_oracle(ctx)
    roots = es.scan_eigenfrequencies(ctx, 0.02, 0.03)
    assert [r.multiplicity for r in roots] == [1]
    assert np.min(np.abs(nystrom - roots[0].omega)) <= 2e-4 * nystrom[0]
    _, bvp_residual, _ = es.eigenfunction_from_root(ctx, roots[0])
    assert bvp_residual[0] <= 1e-4


@pytest.mark.parametrize("case", ["midway", "straddle"])
def test_every_seed_yields_one_root_or_an_error(osc_spec, grid, case):
    # a spurious seed midway between the top two README omegas refines to
    # no root, and two seeds 1e-5 either side of the top root both refine
    # to it; the scan used to drop the first and merge the second in
    # silence, so build_basis ended in a misleading CaptureUnreachable
    ctx = kernels.make_context(osc_spec, grid)
    s = ctx.nystrom_omegas
    if case == "midway":
        planted = np.insert(s, 1, 0.5 * (s[0] + s[1]))
        match = "no kernel"
    else:
        planted = np.concatenate([ROOTS_FROZEN[0] * (1.0 + np.array([1e-5, -1e-5])), s[1:]])
        match = "both refine"
    ctx.__dict__["nystrom_omegas"] = planted
    with pytest.raises(RefinementStalled, match=match):
        es.scan_eigenfrequencies(ctx, planted[3], planted[0])
    with pytest.raises(RefinementStalled, match=f"seeds? {planted[1]:.10g}"):
        es.build_basis(ctx, 0.99)


def test_unrefined_seeds_are_not_certified(ctx, monkeypatch):
    # with no secant step the seeds are the scan's omegas, and N there has
    # no kernel at KERNEL_SV_RTOL, so the scan must refuse them rather than
    # certify nearby omegas as roots: the top three README seeds of the
    # grid (sigma_min / sigma_max of N 7.8e-5, 2.3e-4 and 7.3e-4), and the
    # three roots moved up by 1e-6 relative (1.4e-6, 1.4e-6 and 1.8e-6),
    # which a certificate at 1e-4 would pass as roots
    monkeypatch.setattr(es, "REFINE_STEPS", 0)
    s = ctx.nystrom_omegas
    with pytest.raises(RefinementStalled, match="has no kernel"):
        es.scan_eigenfrequencies(ctx, s[2], s[0])
    planted = np.concatenate([np.array(ROOTS_FROZEN) * (1.0 + 1e-6), s[3:]])
    monkeypatch.setitem(ctx.__dict__, "nystrom_omegas", planted)
    with pytest.raises(RefinementStalled, match="has no kernel"):
        es.scan_eigenfrequencies(ctx, planted[2], planted[0])


def readme_T4_ctx():
    """The README oscillator at T = 4 on a 32 x 16 grid."""
    spec = model.OscillatorSpec(n=2, m=2, Theta=J2, R=np.eye(2), M=np.eye(2), T=4.0, theta=0.348)
    return kernels.make_context(spec, quadrature.make_grid(4.0, panels=32, order=16))


def test_long_horizon_scan_finds_every_band_root():
    # README oscillator at T = 4: the band holds six Nystrom omegas, and
    # each must come back as a certified root
    ctx = readme_T4_ctx()
    lo, hi = default_band(ctx)
    nystrom = es.nystrom_oracle(ctx)
    in_band = nystrom[(nystrom >= lo) & (nystrom <= hi)]
    assert len(in_band) == 6
    omegas = np.array([r.omega for r in es.scan_eigenfrequencies(ctx, lo, hi)])
    assert len(omegas) == len(in_band)
    assert np.max(np.abs(omegas - in_band)) <= 2e-4 * nystrom[0]


@pytest.mark.parametrize("system", ["readme", "squeezed"])
def test_long_horizon_roots_match_reference(system):
    # T = 4 on 16 x 16, where the exponential's secant could not leave its
    # seeds and the Gram gate ended the run: every root of the 0.99
    # capture lies within 3.1e-15 of a 60-digit companion-form root, the
    # basis is orthonormal to 4.2e-15, and README's xi reads 3.5e-7 and
    # 1.6e-5 from e^{theta T} (2.7e-4 at theta = 0.87, the closed form's
    # own truncation error, which grows with T and theta)
    base = squeezed_spec() if system == "squeezed" else model.OscillatorSpec(
        n=2, m=2, Theta=J2, R=np.eye(2), M=np.eye(2), T=1.0, theta=0.0)
    spec = model.OscillatorSpec(n=2, m=2, Theta=base.Theta, R=base.R, M=base.M, T=4.0,
                                theta=0.0)
    ctx = kernels.make_context(spec, quadrature.make_grid(4.0, panels=16, order=16))
    basis = es.build_basis(ctx, 0.99)
    assert basis.omegas.size >= 9
    for w in basis.omegas:
        ref = reference_root(ctx, w, dps=60)
        assert abs(w - ref) <= 1e-12 * ref
    assert basis.gram_max_dev <= 1e-10
    if system == "readme":
        P0 = model.solve_state_ale(ctx.sys.A, ctx.sys.B).P0
        cache = qef.SpectralCache(ctx, build_qkl(basis, 0.0), P0)
        for theta in (0.1, 0.348):
            rep = qef.compute_qef(ctx, build_qkl(basis, theta), P0, cache=cache)
            assert abs(rep.xi / np.exp(theta * 4.0) - 1.0) <= 1e-4


def counting_bvp_calls(monkeypatch):
    """Record the omega shape of every bvp_matrices call the scan makes."""
    calls = []

    def counting(ctx, omega):
        calls.append(np.shape(omega))
        return kernels.bvp_matrices(ctx, omega)

    monkeypatch.setattr(es, "bvp_matrices", counting)
    return calls


def test_scan_refines_in_few_batched_calls(ctx, monkeypatch):
    # one call starts every seed's secant, each secant step is one call for
    # all seeds (3 here), and one call checks every root's kernel
    calls = counting_bvp_calls(monkeypatch)
    roots = es.scan_eigenfrequencies(ctx, *default_band(ctx))
    assert len(calls) <= 12
    assert calls[-1] == (len(roots),)


@pytest.mark.parametrize("case, most", [("two_copy", 12), ("tail", 12), ("readme_T4", 24)])
def test_scan_stops_in_few_batched_calls(case, most, ctx, grid, monkeypatch):
    # a double root, the deep tail and T = 4 each take few calls, 5 here:
    # one starts the secants, three secant steps follow, and one checks
    # every root's kernel (on the exponential, the six T = 4 secants took
    # 8 steps and each root one call, 15 in all)
    if case == "two_copy":
        c = kernels.make_context(two_copy_spec(), grid)
        band = default_band(c)
    elif case == "readme_T4":
        c = readme_T4_ctx()
        band = default_band(c)
    else:
        c, band = ctx, (0.02, 0.03)
    calls = counting_bvp_calls(monkeypatch)
    roots = es.scan_eigenfrequencies(c, *band)
    assert len(calls) <= most
    assert calls[-1] == (len(roots),)


def scan_with(monkeypatch, c, change):
    """Scan c's default band with every N passed through change; the roots and call count."""
    calls = []

    def changed(ctx, omega):
        calls.append(np.shape(omega))
        b = kernels.bvp_matrices(ctx, omega)
        return b._replace(N=change(b.N))

    monkeypatch.setattr(es, "bvp_matrices", changed)
    roots = es.scan_eigenfrequencies(c, *default_band(c))
    monkeypatch.undo()
    return np.array([r.omega for r in roots]), len(calls)


def flip_column(N):
    N = N.copy()
    N[..., 0] *= -1.0
    return N


def swap_columns(N):
    return N[..., [1, 0] + list(range(2, N.shape[-1]))]


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0])
def test_double_root_secant_converges_in_either_order(T, monkeypatch):
    # the secant has no noise-floor stop: at the two-copy oscillator's double
    # roots det N^{1/2} reaches rounding within 1e-9 of the root.  Another
    # order of X+'s columns, as another sort of equal eigenvalues gives,
    # changes det N's sign, so the square root's branch; with either sign or
    # order every scan still ends in 5-7 calls, its roots within 1.1e-12
    spec = two_copy_spec()
    spec = model.OscillatorSpec(n=4, m=4, Theta=spec.Theta, R=spec.R, M=spec.M, T=T,
                                theta=0.0)
    c = kernels.make_context(spec, quadrature.make_grid(T, 4 * int(np.ceil(T)), 16))
    clean, _ = scan_with(monkeypatch, c, lambda N: N)
    for change in (lambda N: N, flip_column, swap_columns):
        roots, calls = scan_with(monkeypatch, c, change)
        assert calls <= 8
        assert roots == pytest.approx(clean, rel=1e-11)


def test_secant_in_noise_stays_in_the_noise_band(ctx, monkeypatch):
    # N read with a relative error of 1e-10 puts det N's zero in a noise band
    # far wider than REFINE_XTOL: the secant wanders inside it and stops by
    # chance or after REFINE_STEPS (30 steps, 32 calls), its last iterate
    # in the band (6-12 calls and within 1.5e-11 of the clean roots over
    # noise seeds 0-7; on the two-copy oscillator, 1e-8 noise spends all
    # 30 steps and ends within 3e-9, still certified)
    clean, _ = scan_with(monkeypatch, ctx, lambda N: N)
    rng = np.random.default_rng(5)
    roots, calls = scan_with(monkeypatch, ctx,
                             lambda N: N * (1.0 + 1e-10 * rng.standard_normal(N.shape)))
    assert calls <= es.REFINE_STEPS + 2
    assert roots == pytest.approx(clean, rel=1e-9)


@pytest.mark.parametrize("case", ["readme", "squeezed", "two_copy", "random11", "random12"])
def test_roots_match_40_digit_reference(case, ctx, grid):
    # each certified omega against a secant on det E_c, the companion form
    # assembled in 40-digit arithmetic from A, Theta and mho; a refinement
    # that stops at a 1e-12 wide bracket is up to 1.3e-13 off.  The stiff
    # n = 4 draws of seeds 11 and 12 come within 1.3e-14 and 1.3e-13 (the
    # companion form in floats, with mho^-1 and ||D|| up to 1e3, left them
    # 1.2e-12 and 2.0e-10 off)
    spec = {"squeezed": squeezed_spec(), "two_copy": two_copy_spec(),
            "random11": random_hurwitz_spec(np.random.default_rng(11), 4),
            "random12": random_hurwitz_spec(np.random.default_rng(12), 4)}.get(case)
    c = ctx if spec is None else kernels.make_context(spec, grid)
    roots = es.scan_eigenfrequencies(c, *default_band(c))
    assert [r.multiplicity for r in roots] == ([2, 2] if case == "two_copy" else [1, 1, 1])
    rtol = 5e-13 if case.startswith("random") else 5e-14
    for r in roots:
        ref = reference_root(c, r.omega, r.multiplicity)
        assert abs(r.omega - ref) <= rtol * ref


def test_squeezed_oscillator_roots():
    ctx = kernels.make_context(squeezed_spec(), quadrature.make_grid(1.0, panels=8, order=16))
    roots = es.scan_eigenfrequencies(ctx, *default_band(ctx))
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    omegas = np.array([r.omega for r in roots])
    assert omegas == pytest.approx(SQUEEZED_ROOTS_FROZEN, rel=1e-12)
    nystrom = es.nystrom_oracle(ctx)[:3]
    assert np.max(np.abs(omegas - nystrom)) <= 2e-4 * omegas[0]


def test_degenerate_roots(grid):
    ctx4 = kernels.make_context(two_copy_spec(), grid)
    assert np.allclose(ctx4.sys.A, block_diag(2.0 * (J2 - np.eye(2)), 2.0 * (J2 - np.eye(2))))
    basis = es.build_basis(ctx4, 0.97)
    assert basis.multiplicity.tolist() == [2, 2, 2, 2]
    assert basis.omegas == pytest.approx(np.repeat(ROOTS_FROZEN[:2], 2), rel=1e-9)
    assert basis.gram_max_dev <= 1e-12


def test_two_copy_basis_reaches_the_default_capture(grid):
    # the two copies' 0.99 needs the third double root, 0.0785, far below
    # sqrt(hs_total / 2) of the doubled HS norm
    basis = es.build_basis(kernels.make_context(two_copy_spec(), grid), 0.99)
    assert basis.multiplicity.tolist() == [2] * 6
    assert basis.omegas == pytest.approx(np.repeat(ROOTS_FROZEN, 2), rel=1e-9)
    assert basis.gram_max_dev <= 1e-12


def test_det_ratio_profile(ctx):
    assert abs(det_ratio(ctx, ROOTS_FROZEN[0])) <= 1e-8
    assert abs(det_ratio(ctx, 0.31)) > 1e-4


def test_eigenfunction_properties(ctx, grid):
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[0]
    assert root.omega == pytest.approx(ROOTS_FROZEN[0], rel=1e-9)
    modes, bvp_residual, boundary_residual = es.eigenfunction_from_root(ctx, root)
    assert modes.shape == (grid.size * ctx.n, 2)
    f = pair_function(grid, modes)
    assert norm(grid, f.real) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert norm(grid, f.imag) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert norm(grid, f) == pytest.approx(1.0, abs=1e-12)
    # canonical phase: the dominant entry of y(0) is real positive, with
    # y(0) fitted by least squares to f = [I B] e^{t D} [0; y(0)] at the nodes
    prop = propagate_per_node(ctx, root)
    y0 = np.linalg.lstsq(prop.reshape(-1, ctx.n), f.reshape(-1), rcond=None)[0]
    lead = y0[np.argmax(np.abs(y0))]
    assert abs(lead.imag) <= 1e-12 * abs(lead)
    assert lead.real > 0.0
    assert boundary_residual[0] <= 1e-8
    assert bvp_residual[0] <= 1e-4
    # the integral operator reproduces i omega f
    resid = nystrom_apply(ctx, f) - 1j * root.omega * f
    assert norm(grid, resid) == pytest.approx(bvp_residual[0], rel=1e-12)


def test_eigenfunction_ode_residual(ctx, basis):
    for k in range(basis.omegas.size):
        assert ode_residual(ctx, basis, k) <= 1e-6


def test_conjugate_orthogonality(ctx, grid, basis):
    # <conj f_j, f_k> = 0 distinguishes the +omega eigenspace from -omega
    r = basis.omegas.size
    for j in range(r):
        fj = pair_function(grid, basis.modes, j)
        for k in range(j, r):
            fk = pair_function(grid, basis.modes, k)
            assert abs(inner(grid, np.conj(fj), fk)) <= 1e-6


def test_rank_collapse_on_repeated_kernel_rows(ctx):
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[0]
    repeated = replace(root, kernel=np.vstack([root.kernel, root.kernel]))
    assert repeated.multiplicity == 2
    with pytest.raises(RankCollapse, match="linearly dependent"):
        es.eigenfunction_from_root(ctx, repeated)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_rank_collapse_on_nearly_equal_kernel_rows(ctx, index):
    # rows 1e-9 apart are one kernel direction; the bounded propagation
    # leaves their difference at 5.3e-10 to 7.0e-10 of the normalized
    # functions, against a limit of 1e-8 times its gain of 1.2 to 1.4 (the
    # exponential magnified it to 4e-8 and 4e-7 at omega = 0.19547 and
    # 0.078525, which a Gram-pivot test at 1e-8 passed as a second
    # eigenpair with bvp_residual 0.49 and 0.35)
    root = es.scan_eigenfrequencies(ctx, *default_band(ctx))[index]
    assert root.omega == pytest.approx(ROOTS_FROZEN[index], rel=1e-10)
    k = root.kernel[0]
    near = replace(root, kernel=np.array([k, k + 1e-9 * np.array([1.0, -1.0j, 1.0j, 1.0])]))
    with pytest.raises(RankCollapse, match="linearly dependent"):
        es.eigenfunction_from_root(ctx, near)


def test_mixed_kernel_rows_orthonormalize(grid):
    # a non-orthogonal basis of a double root's kernel gives the same
    # orthonormal eigenspace as the scan's own kernel vectors
    ctx4 = kernels.make_context(two_copy_spec(), grid)
    root = es.scan_eigenfrequencies(ctx4, *default_band(ctx4))[0]
    a, b = root.kernel
    modes, bvp_residual, boundary_residual = es.eigenfunction_from_root(
        ctx4, replace(root, kernel=np.array([a, a + 0.5j * b])))
    f = np.stack([pair_function(grid, modes, j) for j in range(2)], axis=-1)
    gram = np.einsum('a,aij,aik->jk', grid.weights, f.conj(), f)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
    assert bvp_residual.shape == boundary_residual.shape == (2,)
    assert np.all(bvp_residual <= 1e-4)
    assert np.all(boundary_residual <= 1e-8)
    scan = es.eigenfunction_from_root(ctx4, root)[0]
    g = np.stack([pair_function(grid, scan, j) for j in range(2)], axis=-1)
    overlap = np.einsum('a,aij,aik->jk', grid.weights, g.conj(), f)
    assert np.allclose(overlap.conj().T @ overlap, np.eye(2), atol=1e-12)


def test_build_basis_one_pass_per_root(ctx, grid, monkeypatch):
    # the scan checks every root's kernel in one bvp_matrices call and one
    # stacked SVD, which the eigenpairs reuse, whatever their multiplicity
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
        assert calls[-1] == (n_roots,)
        assert svds == [(n_roots, 2 * c.n, 2 * c.n)]


def test_squeezed_basis_orthonormal(grid):
    ctx = kernels.make_context(squeezed_spec(), grid)
    basis = es.build_basis(ctx, 0.99)
    target = 0.5 * np.einsum('jk,pq->jkpq', np.eye(basis.omegas.size), np.eye(2))
    assert np.max(np.abs(es.basis_gram(basis) - target)) <= 1e-12
    assert np.all(basis.bvp_residual <= 1e-4)
    assert np.all(basis.boundary_residual <= 1e-8)
    hk = hk_of(basis)
    recon = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', basis.omegas, hk, J2, hk)
    misfit = recon - ctx.lambda_grid
    w = ctx.grid.weights
    assert (float(np.einsum('a,b,abij,abij->', w, w, misfit, misfit))
            <= basis.hs_total - basis.hs_captured)


def test_nystrom_oracle_spectrum(ctx):
    omegas = es.nystrom_oracle(ctx)
    assert omegas[0] == pytest.approx(NYSTROM_TOP_FROZEN, rel=1e-12)
    # the spectrum of the skew operator comes in +/- pairs
    ev = np.concatenate([-omegas, omegas[::-1]])
    assert np.array_equal(ev, np.sort(ev))
    assert np.array_equal(ev, -ev[::-1])
    # discretized eigenvalues agree with shooting at grid accuracy
    for k, frozen in enumerate(ROOTS_FROZEN):
        assert omegas[k] == pytest.approx(frozen, rel=5e-3)


@pytest.fixture(scope="module", params=["readme", "squeezed", "random4"])
def route_ctx(request, ctx):
    """(system, context) on the 8 x 16 grid for the README, squeezed and a random n = 4 system."""
    if request.param == "readme":
        return request.param, ctx
    spec = (squeezed_spec() if request.param == "squeezed"
            else random_hurwitz_spec(np.random.default_rng(7), 4))
    return request.param, kernels.make_context(spec, quadrature.make_grid(1.0))


def test_panel_propagation_matches_per_node(route_ctx):
    # the split's propagation started from [a; y(0)] with a = e^{T S+} c+
    # y(0) for every y(0) is [I B] e^{t D} [0; I]: against one exponential
    # of D per node at every certified root, within 3.1e-14 of each node's
    # norm here
    _, c = route_ctx
    n, T = c.n, c.grid.T
    roots = es.scan_eigenfrequencies(c, *default_band(c))
    assert roots
    for root in roots:
        b = root.bvp
        start = np.concatenate([kernels.expm(T * b.S[0]) @ b.c[:n], np.eye(n)])
        got = es._propagator(c, b) @ start
        want = propagate_per_node(c, root)
        err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert err.max() <= 1e-13


def test_nystrom_matches_hermitian_route(route_ctx):
    system, c = route_ctx
    res, (ref_ev, ref) = es.nystrom_oracle(c), nystrom_hermitian(c)
    ev = np.concatenate([-res, res[::-1]])
    w1 = ref[0]
    top = 2 * len(es.scan_eigenfrequencies(c, *default_band(c)))
    assert np.abs(res[:top] - ref[:top]).max() <= 1e-12 * w1
    assert ev.shape == ref_ev.shape
    # squaring keeps every omega^2 to a few eps omega_1^2, so omega only to
    # about eps omega_1^2 / omega: 1e-10 omega_1 holds down to the bottom of
    # these two spectra (smallest omega 5e-6 omega_1), not for every random
    # draw (up to 2e-9 omega_1 over seeds 0-29, whose smallest omega reach
    # 1e-9 omega_1)
    assert np.abs(ev ** 2 - ref_ev ** 2).max() <= 1e-12 * w1 ** 2
    if system != "random4":
        assert np.abs(ev - ref_ev).max() <= 1e-10 * w1


def test_build_basis_diagnostics(basis, ctx):
    assert basis.omegas.size == 3
    assert basis.multiplicity.tolist() == [1, 1, 1]
    assert basis.hs_total == pytest.approx(ctx.hs_total, rel=0.0)
    assert basis.hs_captured == pytest.approx(HS_CAPTURED_FROZEN, rel=1e-9)
    achieved = basis.hs_captured / basis.hs_total
    assert achieved == pytest.approx(CAPTURE_FROZEN, rel=1e-9)
    assert achieved >= BASIS_CAPTURE
    assert basis.gram_max_dev <= 1e-12
    assert np.all(np.diff(basis.omegas) < 0)
    # the Mercer residual: the kernel expansion as one four-operand einsum
    hk = hk_of(basis)
    approx = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', basis.omegas, hk, J2, hk)
    diff = ctx.lambda_grid - approx
    w = ctx.grid.weights
    ref = float(np.einsum('a,b,ab->', w, w, np.einsum('abij,abij->ab', diff, diff)))
    assert ref == pytest.approx(MERCER_FROZEN, rel=1e-6)
    assert ref <= basis.hs_total - basis.hs_captured + 1e-6


def test_long_horizon_basis_is_orthonormal():
    # README oscillator at T = 16 on 32 x 16: the exponential's shooting
    # eigenfunctions were far from orthonormal there, and the Gram gate
    # refused the basis; the split's 38 eigenpairs are orthonormal to
    # 1.9e-14, and their omegas within 5.5e-4 omega_1 of the Nystrom list
    # (the grid's accuracy at two panels per unit of T)
    spec = model.OscillatorSpec(n=2, m=2, Theta=J2, R=np.eye(2), M=np.eye(2),
                                T=16.0, theta=0.348)
    ctx = kernels.make_context(spec, quadrature.make_grid(16.0, panels=32, order=16))
    basis = es.build_basis(ctx, 0.99)
    assert basis.gram_max_dev <= 1e-12
    nystrom = es.nystrom_oracle(ctx)
    assert np.max(np.abs(basis.omegas - nystrom[:basis.omegas.size])) <= 1e-3 * nystrom[0]


def test_build_basis_validation(ctx):
    with pytest.raises(InvalidParameter):
        es.build_basis(ctx, 0.0)
    with pytest.raises(InvalidParameter):
        es.build_basis(ctx, 1.2)


def test_build_basis_capture_unreachable(ctx):
    # the roots sum to hs_exact, 0.999833 of the grid's hs_total on 8 x 16:
    # asking for more must fail loudly
    with pytest.raises(CaptureUnreachable, match="capture only"):
        es.build_basis(ctx, 0.9999)


def test_stack_and_gram_shapes(basis):
    assert basis.modes.shape == (basis.grid.size * 2, 6)
    gram = es.basis_gram(basis)
    target = 0.5 * np.einsum('jk,pq->jkpq', np.eye(3), np.eye(2))
    assert np.max(np.abs(gram - target)) <= 1e-12
    # reference: the quadrature Gram blocks int h_j^T h_k dt of the pairs
    hk = hk_of(basis)
    ref = np.einsum('jaip,a,kaiq->jkpq', hk, basis.grid.weights, hk)
    assert np.max(np.abs(gram - ref)) <= 1e-15


def test_mercer_reconstruction_pointwise(ctx, basis):
    # 2 sum omega h J2 h^T reproduces Lambda up to the spectral tail
    hk = hk_of(basis)
    om = basis.omegas
    recon = 2.0 * np.einsum('k,kaip,pq,kbjq->abij', om, hk, J2, hk)
    misfit = recon - ctx.lambda_grid
    w = ctx.grid.weights
    msq = float(np.einsum('a,b,abij,abij->', w, w, misfit, misfit))
    assert msq <= basis.hs_total - basis.hs_captured + 1e-6
