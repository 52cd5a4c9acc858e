"""Spectral toolkit for multimode open quantum harmonic oscillators.

Builds the two-point commutator and covariance kernels of a linear
quantum system, expands them over the eigenbasis of the commutator
integral operator, and evaluates quadratic-exponential performance
functionals in closed form with independent Monte-Carlo and truncated
number-basis cross-checks.
"""

from .eigensolver import (
    SpectralBasis,
    build_basis,
    nystrom_oracle,
    scan_eigenfrequencies,
)
from .errors import QeflabError
from .fock import TruncatedPair, build_pair, lhs_exponential, rhs_average, verify_ode
from .kernels import KernelContext, bvp_matrices, make_context
from .mc import McConfig, McEstimate, QefMcResult, estimate_qef_mc
from .model import OscillatorSpec, SystemMatrices, build_system, recover_ccr, solve_state_ale
from .qef import QefReport, compute_C, compute_qef, find_critical_theta
from .qkl import QklBasis, build_qkl
from .quadrature import Grid, make_grid

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "KernelContext",
    "McConfig",
    "McEstimate",
    "OscillatorSpec",
    "QefMcResult",
    "QefReport",
    "QeflabError",
    "QklBasis",
    "SpectralBasis",
    "SystemMatrices",
    "TruncatedPair",
    "build_basis",
    "build_pair",
    "build_qkl",
    "build_system",
    "bvp_matrices",
    "compute_C",
    "compute_qef",
    "estimate_qef_mc",
    "find_critical_theta",
    "lhs_exponential",
    "make_context",
    "make_grid",
    "nystrom_oracle",
    "recover_ccr",
    "rhs_average",
    "scan_eigenfrequencies",
    "solve_state_ale",
    "verify_ode",
]
