"""System construction, realizability, CCR recovery, and the state ALE."""

import numpy as np
import pytest
import scipy.linalg
from conftest import J2, random_hurwitz_spec, random_spec
from oracles import transform_system

from qeflab import model
from qeflab.errors import (
    CovarianceNotPSD,
    InvalidParameter,
    LyapunovSolveFailed,
    NonFinite,
    NotAntisymmetric,
    NotHurwitz,
    SingularTheta,
)


def test_fixture_matrices_closed_form(osc_spec):
    sysm = model.build_system(osc_spec)
    assert np.allclose(sysm.A, 2.0 * (J2 - np.eye(2)), atol=1e-15)
    assert np.allclose(sysm.B, 2.0 * J2, atol=1e-15)
    assert np.allclose(sysm.mho, 4.0 * J2, atol=1e-14)
    assert np.allclose(model.canonical_j(2), J2, atol=0.0)
    assert sysm.hurwitz


def test_fixture_pr_residual(osc_spec):
    sysm = model.build_system(osc_spec)
    assert sysm.pr_residual <= 1e-12 * np.linalg.norm(sysm.mho)


def test_fixture_state_is_identity(state):
    assert np.allclose(state.P0, np.eye(2), atol=1e-13)


def test_fixture_ccr_roundtrip(osc_spec):
    sysm = model.build_system(osc_spec)
    rec = model.recover_ccr(sysm.A, sysm.mho)
    assert np.allclose(rec, osc_spec.Theta, atol=1e-12)


def test_random_pr_identity():
    rng = np.random.default_rng(101)
    for k in range(20):
        spec = random_spec(rng, n=2 if k % 2 else 4)
        sysm = model.build_system(spec)
        assert sysm.pr_residual <= 1e-12 * max(np.linalg.norm(sysm.mho), 1e-30)


def test_random_ccr_roundtrip():
    rng = np.random.default_rng(202)
    for _ in range(10):
        spec = random_hurwitz_spec(rng, n=4)
        sysm = model.build_system(spec)
        rec = model.recover_ccr(sysm.A, sysm.mho)
        rel = np.linalg.norm(rec - spec.Theta) / np.linalg.norm(spec.Theta)
        assert rel <= 1e-8


def test_random_state_ale_residual():
    rng = np.random.default_rng(303)
    for _ in range(10):
        spec = random_hurwitz_spec(rng, n=4)
        sysm = model.build_system(spec)
        P0 = model.solve_state_ale(sysm.A, sysm.B).P0
        BBt = sysm.B @ sysm.B.T
        resid = np.linalg.norm(sysm.A @ P0 + P0 @ sysm.A.T + BBt)
        assert resid <= 1e-10 * max(np.linalg.norm(BBt), 1.0)
        assert np.linalg.eigvalsh(P0).min() >= -1e-12


def test_lyapunov_solve_matches_scipy():
    rng = np.random.default_rng(606)
    for _ in range(10):
        A = model.build_system(random_hurwitz_spec(rng, n=4)).A
        Q = rng.standard_normal((4, 4))
        got = model.solve_continuous_lyapunov(A, Q)
        ref = scipy.linalg.solve_continuous_lyapunov(A, Q)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_lyapunov_solve_refuses_singular_and_nonfinite():
    # one guarded solve serves both Lyapunov paths: a singular Kronecker
    # system and a solution beyond the double range are LyapunovSolveFailed
    # (the state path returned a nan P0 for the latter)
    with pytest.raises(LyapunovSolveFailed, match="Singular matrix"):
        model.solve_continuous_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    A = -1e-9 * np.eye(2)
    with pytest.raises(LyapunovSolveFailed, match="non-finite"):
        model.solve_state_ale(A, 1e154 * np.eye(2))
    with pytest.raises(LyapunovSolveFailed, match="non-finite"):
        model.recover_ccr(A, 1e308 * J2)


def test_clip_psd():
    evals = np.array([4.0, 1.0, -1e-12, 0.0])
    assert np.array_equal(model.clip_psd(evals, "m"), [4.0, 1.0, 0.0, 0.0])
    with pytest.raises(CovarianceNotPSD):
        model.clip_psd(np.array([4.0, -1e-9]), "m")
    with pytest.raises(CovarianceNotPSD):
        model.clip_psd(np.array([-1.0, -2.0]), "m")


def test_state_ale_rejects_indefinite_solution(osc_spec, monkeypatch):
    # an exact Lyapunov solution is PSD; a solver returning an indefinite
    # one must be caught by the shared PSD check
    sysm = model.build_system(osc_spec)
    monkeypatch.setattr(model, "solve_continuous_lyapunov", lambda A, Q: -np.eye(2))
    with pytest.raises(CovarianceNotPSD):
        model.solve_state_ale(sysm.A, sysm.B)


def test_transform_system_preserves_realizability(osc_spec):
    rng = np.random.default_rng(404)
    S = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    moved = transform_system(osc_spec, S)
    sys0 = model.build_system(osc_spec)
    sys1 = model.build_system(moved)
    assert sys1.pr_residual <= 1e-12 * np.linalg.norm(sys1.mho)
    # A transforms by similarity, so the spectrum is invariant
    e0 = np.sort_complex(np.linalg.eigvals(sys0.A))
    e1 = np.sort_complex(np.linalg.eigvals(sys1.A))
    assert np.allclose(e0, e1, atol=1e-10)
    assert np.allclose(moved.Theta, S @ osc_spec.Theta @ S.T, atol=1e-14)


def test_transform_rejects_singular_S(osc_spec):
    with pytest.raises(ValueError, match="singular"):
        transform_system(osc_spec, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2 x 2"):
        transform_system(osc_spec, np.eye(3))


def test_validate_rejects_bad_specs(osc_spec):
    bad = model.OscillatorSpec(n=2, m=2, Theta=np.eye(2), R=np.eye(2),
                               M=np.eye(2), T=1.0, theta=0.0)
    with pytest.raises(NotAntisymmetric):
        model.validate_spec(bad)
    bad = model.OscillatorSpec(n=2, m=2, Theta=np.zeros((2, 2)), R=np.eye(2),
                               M=np.eye(2), T=1.0, theta=0.0)
    with pytest.raises(SingularTheta):
        model.validate_spec(bad)
    bad = model.OscillatorSpec(n=2, m=2, Theta=J2 * np.nan, R=np.eye(2),
                               M=np.eye(2), T=1.0, theta=0.0)
    with pytest.raises(NonFinite):
        model.validate_spec(bad)
    bad = model.OscillatorSpec(n=3, m=2, Theta=np.zeros((3, 3)), R=np.eye(3),
                               M=np.zeros((2, 3)), T=1.0, theta=0.0)
    with pytest.raises(InvalidParameter, match="even positive"):
        model.validate_spec(bad)
    # shape errors are not antisymmetry failures
    bad = model.OscillatorSpec(n=2, m=2, Theta=J2.copy(), R=np.eye(4),
                               M=np.eye(2), T=1.0, theta=0.0)
    with pytest.raises(InvalidParameter, match="n x n"):
        model.validate_spec(bad)
    bad = model.OscillatorSpec(n=2, m=2, Theta=J2.copy(), R=np.eye(2),
                               M=np.eye(4, 2), T=1.0, theta=0.0)
    with pytest.raises(InvalidParameter, match="m x n"):
        model.validate_spec(bad)
    # an asymmetric R gives an A that no Hamiltonian describes
    bad = model.OscillatorSpec(n=2, m=2, Theta=J2.copy(), R=np.array([[1.0, 0.5], [0.0, 1.0]]),
                               M=np.eye(2), T=1.0, theta=0.0)
    with pytest.raises(InvalidParameter, match="R is not symmetric"):
        model.validate_spec(bad)


def test_non_hurwitz_is_refused():
    # M = 0 removes dissipation; A = 2 J2 R has a positive-real eigenvalue
    spec = model.OscillatorSpec(n=2, m=2, Theta=J2.copy(),
                                R=np.diag([1.0, -1.0]), M=np.zeros((2, 2)),
                                T=1.0, theta=0.0)
    sysm = model.build_system(spec)
    assert not sysm.hurwitz
    with pytest.raises(NotHurwitz):
        model.recover_ccr(sysm.A, sysm.mho)
    with pytest.raises(NotHurwitz):
        model.solve_state_ale(sysm.A, sysm.B)


def test_canonical_j_structure():
    J4 = model.canonical_j(4)
    assert np.allclose(J4, -J4.T)
    assert np.allclose(J4 @ J4, -np.eye(4))
    with pytest.raises(InvalidParameter, match="even and positive"):
        model.canonical_j(3)
