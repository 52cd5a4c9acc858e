"""Reference computations made outside qeflab, and the output checks.

Nothing here imports qeflab: the system matrices, the quadrature grid,
the dense kernels, the Lyapunov state and the classical Riccati value
are rebuilt from the configuration with numpy and scipy, so a fault in
the program cannot cancel against the same fault in its check.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Shooting roots against the dense spectrum: the Nystrom discretization
# of a kernel with a derivative jump at s = t is O(h^2); on the README
# 8x16 grid every omega is off by the same 3.2e-5 (5.5e-5 of omega_1).
OMEGA_ATOL_OF_TOP = 2e-4
NYSTROM_RTOL = 1e-9          # the program's Nystrom list against the dense one
GRAM_ATOL = 1e-8             # basis Gram against I/2
XI_ZERO_ATOL = 1e-12         # xi(0) = 1
MONOTONE_RTOL = 1e-12
# xi_classical against the Riccati ODE: the Nystrom determinant carries
# an O(h^2) grid error, 3.9e-5 relative at theta = 0.87 on 8x16; it grows
# towards the critical theta, so the bound leaves a factor of ten.
CLASSICAL_RTOL = 5e-4
MC_K = 4.0                   # Monte-Carlo means within MC_K standard errors
# Fock, relative to the corner scale e^{omega (N-1)}: the corner error is
# set by the truncation (4.6e-6 at N=20, 1.1e-8 at N=32, omega=0.2) and
# the ODE residual by the central-difference step (at most 6e-3 for
# omega <= 0.2, N <= 48).  A broken identity is off by O(1).
FOCK_CORNER_RTOL = 1e-4
FOCK_ODE_RTOL = 5e-2


def canonical_j(m: int) -> np.ndarray:
    return np.kron(J2, np.eye(m // 2))


def system(osc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = 2 Theta (R + M^T J M), B = 2 Theta M^T, and Theta."""
    Theta = np.array(osc["Theta"], dtype=float)
    R = np.array(osc["R"], dtype=float)
    M = np.array(osc["M"], dtype=float)
    A = 2.0 * Theta @ (R + M.T @ canonical_j(osc["m"]) @ M)
    B = 2.0 * Theta @ M.T
    return A, B, Theta


def state_covariance(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """P0 with A P0 + P0 A^T + B B^T = 0."""
    X = solve_continuous_lyapunov(A, -B @ B.T)
    return 0.5 * (X + X.T)


def gauss_grid(T: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, T]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * T / panels
    centers = (np.arange(panels) + 0.5) * (T / panels)
    return (centers[:, None] + half * x).ravel(), np.tile(half * w, panels)


def dense_kernel(A: np.ndarray, base: np.ndarray, nodes: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Weight-symmetrized matrix of e^{tau A} base (tau >= 0), base e^{-tau A^T}."""
    n, N = A.shape[0], nodes.size
    tau = nodes[:, None] - nodes[None, :]
    E = expm(np.abs(tau)[..., None, None] * A)
    blk = np.where((tau >= 0)[..., None, None], E @ base, base @ np.swapaxes(E, -1, -2))
    sw = np.sqrt(weights)
    blk = blk * sw[:, None, None, None] * sw[None, :, None, None]
    return blk.transpose(0, 2, 1, 3).reshape(N * n, N * n)


def readme_kernel(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Closed-form commutator kernel of the README oscillator (A = 2(J2 - I)).

    Lambda(tau) = e^{-2|tau|} (cos 2tau I + sin 2tau J2) J2 for either sign.
    """
    tau = nodes[:, None] - nodes[None, :]
    c, s = np.cos(2 * tau), np.sin(2 * tau)
    blk = np.exp(-2 * np.abs(tau))[..., None, None] * (
        c[..., None, None] * np.eye(2) + s[..., None, None] * J2) @ J2
    sw = np.sqrt(weights)
    blk = blk * sw[:, None, None, None] * sw[None, :, None, None]
    N = nodes.size
    return blk.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)


def dense_omegas(kmat: np.ndarray) -> np.ndarray:
    """Positive eigenvalues of -i K, descending."""
    ev = np.linalg.eigvalsh(-1j * kmat)
    return ev[ev > 0.0][::-1]


def riccati_xi_classical(A: np.ndarray, B: np.ndarray, T: float, theta: float) -> float:
    """e^{c(0)} det(I - P0 Pi(0))^{-1/2} from the backward Riccati equations.

    -Pi' = A^T Pi + Pi A + Pi B B^T Pi + theta I, Pi(T) = 0, and
    -c' = tr(B B^T Pi) / 2, c(T) = 0; integrated in s = T - t.
    """
    n = A.shape[0]
    BBt = B @ B.T

    def rhs(_, y):
        Pi = y[:-1].reshape(n, n)
        dPi = A.T @ Pi + Pi @ A + Pi @ BBt @ Pi + theta * np.eye(n)
        return np.append(dPi.ravel(), 0.5 * np.trace(BBt @ Pi))

    sol = solve_ivp(rhs, (0.0, T), np.zeros(n * n + 1), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    Pi = sol.y[:-1, -1].reshape(n, n)
    c = sol.y[-1, -1]
    P0 = state_covariance(A, B)
    sign, logdet = np.linalg.slogdet(np.eye(n) - P0 @ Pi)
    if sign <= 0:
        return math.inf
    return math.exp(c - 0.5 * logdet)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def number(cell: str) -> float:
    """A CSV cell as a float; the CLI's `diverged` marker reads as NaN."""
    return math.nan if cell == "diverged" else float(cell)


class Reference:
    """Per-config reference values, computed once per benchmark run."""

    def __init__(self, cfg: dict):
        osc = cfg["oscillator"]
        self.A, self.B, self.Theta = system(osc)
        self.nodes, self.weights = gauss_grid(osc["T"], cfg["grid"]["panels"],
                                              cfg["grid"]["nodes_per_panel"])
        self.omegas = dense_omegas(dense_kernel(self.A, self.Theta, self.nodes,
                                                self.weights))
        if osc["n"] == 2 and np.allclose(self.A, 2.0 * (J2 - np.eye(2)), atol=0) \
                and np.allclose(self.Theta, J2, atol=0):
            closed = dense_omegas(readme_kernel(self.nodes, self.weights))
            gap = float(np.max(np.abs(closed[:8] - self.omegas[:8])))
            if gap > NYSTROM_RTOL * self.omegas[0]:
                raise RuntimeError(f"expm kernel disagrees with the closed form by {gap:.3e}")
        thetas = cfg.get("qef", {}).get("theta_list", [])
        self.xi_classical = {
            th: riccati_xi_classical(self.A, self.B, osc["T"], th) for th in thetas}


def check_eigen(ref: Reference, out: Path) -> list[str]:
    """Shooting and Nystrom omegas against the dense spectrum; Gram = I/2."""
    errors = []
    shooting = [float(r["omega"]) for r in read_csv(out / "eigen_shooting.csv")]
    nystrom = [float(r["omega"]) for r in read_csv(out / "eigen_nystrom.csv")]
    top = ref.omegas[0]
    for k, w in enumerate(shooting):
        gap = abs(w - ref.omegas[k])
        if gap > OMEGA_ATOL_OF_TOP * top:
            errors.append(f"eigen: shooting omega[{k}]={w:.10g} vs dense "
                          f"{ref.omegas[k]:.10g} (gap {gap:.3e})")
    for k, w in enumerate(nystrom):
        if abs(w - ref.omegas[k]) > NYSTROM_RTOL * top:
            errors.append(f"eigen: nystrom omega[{k}]={w:.16g} vs dense {ref.omegas[k]:.16g}")
    for r in read_csv(out / "basis_gram.csv"):
        want = 0.5 if (r["j"] == r["k"] and r["p"] == r["q"]) else 0.0
        if abs(float(r["value"]) - want) > GRAM_ATOL:
            errors.append(f"eigen: gram[{r['j']},{r['k']},{r['p']},{r['q']}]={r['value']}")
    return errors


def check_qef(ref: Reference, out: Path) -> list[str]:
    """xi(0) = 1, monotone xi <= xi_classical, theta r < 1, Riccati xi_classical."""
    errors = []
    rows = read_csv(out / "qef.csv")
    if len(rows) != len(ref.xi_classical):
        return [f"qef: {len(rows)} rows for {len(ref.xi_classical)} thetas"]
    prev = 0.0
    for r in rows:
        th, xi, xi_cl = float(r["theta"]), number(r["xi"]), number(r["xi_classical"])
        sr = float(r["spectral_radius"])
        if math.isnan(xi):
            continue
        if th == 0.0 and abs(xi - 1.0) > XI_ZERO_ATOL:
            errors.append(f"qef: xi(0) = {xi!r}")
        if xi < prev * (1.0 - MONOTONE_RTOL):
            errors.append(f"qef: xi decreases to {xi:.10g} at theta={th}")
        prev = xi
        if not th * sr < 1.0:
            errors.append(f"qef: theta*r = {th * sr:.6g} on a finite row (theta={th})")
        if xi > xi_cl * (1.0 + MONOTONE_RTOL):
            errors.append(f"qef: xi={xi:.10g} above xi_classical={xi_cl:.10g} at theta={th}")
        want = ref.xi_classical[th]
        if abs(xi_cl - want) > CLASSICAL_RTOL * want:
            errors.append(f"qef: xi_classical={xi_cl:.10g} vs Riccati {want:.10g} "
                          f"at theta={th} (rel {abs(xi_cl - want) / want:.2e})")
    return errors


def check_validate(out: Path, xi_by_theta: dict[float, float]) -> list[str]:
    """Every Monte-Carlo mean within MC_K standard errors of the closed form."""
    errors = []
    for r in read_csv(out / "mc.csv"):
        th, mean, se = float(r["theta"]), float(r["mean"]), float(r["stderr"])
        xi = xi_by_theta[th]
        if not abs(mean - xi) <= MC_K * se:
            errors.append(f"validate: {r['estimator']} mean {mean:.10g} vs xi {xi:.10g} "
                          f"at theta={th} is {abs(mean - xi) / se:.2f} stderr off")
    return errors


def check_fock(out: Path) -> list[str]:
    """Corner error and ODE residual relative to the corner scale e^{omega (N-1)}."""
    errors = []
    for r in read_csv(out / "fock.csv"):
        N, omega = int(r["N"]), float(r["omega"])
        scale = math.exp(omega * (N - 1))
        corner, ode = float(r["corner_error"]) / scale, float(r["ode_residual"]) / scale
        if not corner <= FOCK_CORNER_RTOL:
            errors.append(f"fock: corner error {corner:.3e} of scale at omega={omega}")
        if not ode <= FOCK_ODE_RTOL:
            errors.append(f"fock: ODE residual {ode:.3e} of scale at omega={omega}")
    return errors
