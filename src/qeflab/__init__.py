"""Spectral toolkit for multimode open quantum harmonic oscillators.

Builds the two-point commutator and covariance kernels of a linear
quantum system, expands them over the eigenbasis of the commutator
integral operator, and evaluates quadratic-exponential performance
functionals in closed form with independent Monte-Carlo and truncated
number-basis cross-checks.

The public names load with their module on first access (PEP 562), so
``import qeflab`` imports no numpy and a program such as the CLI can
configure numpy's BLAS first.
"""

import importlib

_EXPORTS = {
    "eigensolver": ("SpectralBasis", "build_basis", "nystrom_oracle", "scan_eigenfrequencies"),
    "errors": ("QeflabError",),
    "fock": ("TruncatedPair", "build_pair", "lhs_exponential", "rhs_average", "verify_ode"),
    "kernels": ("KernelContext", "bvp_matrices", "make_context"),
    "mc": ("McConfig", "McEstimate", "QefMcResult", "estimate_qef_mc"),
    "model": ("OscillatorSpec", "SystemMatrices", "build_system", "recover_ccr",
              "solve_state_ale"),
    "qef": ("QefReport", "compute_C", "compute_qef", "find_critical_theta"),
    "qkl": ("QklBasis", "build_qkl"),
    "quadrature": ("Grid", "make_grid"),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value
