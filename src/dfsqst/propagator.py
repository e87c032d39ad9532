"""Single-particle propagator Delta(t) = exp(-i Omega t) via spectral decomposition.

Every coupling matrix in this project is symmetric tridiagonal, so the
eigenproblem goes through LAPACK's dedicated tridiagonal solver
(scipy.linalg.eigh_tridiagonal); the propagator then follows from
Delta = V exp(-i lambda t) V^T.  Because Omega is real symmetric the
resulting Delta is complex symmetric and unitary.

Also provided: the n = 2 weak-coupling closed forms for the three register
matrix elements, and the mirror-inversion check Delta_eff(tau) = (-1)^n E
(E the antidiagonal exchange matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import ChainSpec, CouplingMatrix, build_effective_coupling_matrix

__all__ = [
    "SpectralDecomposition",
    "Propagator",
    "eigendecompose",
    "propagator_at",
    "closed_form_effective_elements",
    "mirror_inversion_report",
    "MirrorInversionReport",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a coupling matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: CouplingMatrix


@dataclass(frozen=True)
class Propagator:
    """Unitary evolution matrix Delta(t) with its source and time."""

    t: float
    entries: np.ndarray
    source: CouplingMatrix


def eigendecompose(omega: CouplingMatrix) -> SpectralDecomposition:
    """Full spectral decomposition, eigenvalues ascending.

    Solves the zero-diagonal tridiagonal problem straight from the bonds a
    `CouplingMatrix` stores; no dense matrix is formed.  Raises ValueError
    for a non-finite bond, and numpy/scipy LinAlgError if the LAPACK
    iteration fails to converge (its internal cap is ~30 sweeps per
    eigenvalue, which only trips on pathological input).
    """
    if not np.all(np.isfinite(omega.bonds)):
        raise ValueError("coupling matrix has non-finite bonds")
    w, v = eigh_tridiagonal(np.zeros(omega.order), omega.bonds)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v, source=omega)


def propagator_at(decomp: SpectralDecomposition, t: float) -> Propagator:
    """Delta(t) = V exp(-i lambda t) V^T."""
    v = decomp.eigenvectors
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return Propagator(t=t, entries=(v * phases) @ v.T, source=decomp.source)


def closed_form_effective_elements(g0: float, t: float) -> tuple[complex, complex, complex]:
    """Weak-coupling closed forms for n = 2: (Delta_R1L1, Delta_R2L2, Delta_R1L2)."""
    c1, c2 = np.cos(g0 * t), np.cos(2 * g0 * t)
    s1, s2 = np.sin(g0 * t), np.sin(2 * g0 * t)
    d_r1l1 = (3.0 - 4.0 * c1 + c2) / 8.0
    d_r2l2 = (-c1 + c2) / 2.0
    d_r1l2 = 0.25j * (2.0 * s1 - s2)
    return d_r1l1, d_r2l2, d_r1l2


# largest |Delta_eff(tau) - (-1)^n E| entry a mirror inversion passes with
MIRROR_TOL = 1e-10


@dataclass(frozen=True)
class MirrorInversionReport:
    n: int
    tau: float
    max_error: float
    passed: bool


def mirror_inversion_report(spec: ChainSpec) -> MirrorInversionReport:
    """Check Delta_eff(tau) = (-1)^n E with E the antidiagonal exchange matrix."""
    omega = build_effective_coupling_matrix(spec)
    delta = propagator_at(eigendecompose(omega), spec.tau).entries
    exchange = np.fliplr(np.eye(omega.order))
    err = float(np.max(np.abs(delta - (-1) ** spec.n * exchange)))
    return MirrorInversionReport(n=spec.n, tau=spec.tau, max_error=err, passed=err <= MIRROR_TOL)
