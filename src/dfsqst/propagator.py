"""Dense single-particle propagator Delta(t) = exp(-i Omega t): the reference
the sweep engine (`fidelity.register_elements`) is tested against.

Every coupling matrix in this project is symmetric tridiagonal, so the
eigenproblem goes through LAPACK's dedicated tridiagonal solver
(scipy.linalg.eigh_tridiagonal); the propagator then follows from
Delta = V exp(-i lambda t) V^T.  Because Omega is real symmetric the
resulting Delta is complex symmetric and unitary.  Everything here takes
and returns plain arrays; `dense_register_elements` picks the four n = 2
register elements out of Delta.

Also provided: the n = 2 weak-coupling closed forms for the three register
matrix elements, and the mirror-inversion error of Delta_eff(tau) against
(-1)^n E (E the antidiagonal exchange matrix).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fidelity import RegisterElements
from .model import (ChainSpec, CouplingMatrix, _is_real, _quote, _times,
                    build_effective_coupling_matrix)

__all__ = [
    "eigendecompose",
    "propagator_at",
    "dense_register_elements",
    "closed_form_effective_elements",
    "mirror_inversion_error",
]


def eigendecompose(omega: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(w, v): the eigenvalues, ascending, and the orthonormal eigenvectors as columns.

    Solves the zero-diagonal tridiagonal problem straight from the bonds a
    `CouplingMatrix` stores; no dense matrix is formed.  Raises ValueError
    for a non-finite bond, and numpy/scipy LinAlgError if the LAPACK
    iteration fails to converge (its internal cap is ~30 sweeps per
    eigenvalue, which only trips on pathological input).
    """
    if not np.all(np.isfinite(omega.bonds)):
        raise ValueError("coupling matrix has non-finite bonds")
    return eigh_tridiagonal(np.zeros(omega.order), omega.bonds)


def propagator_at(decomp: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """Delta(t) = V exp(-i lambda t) V^T from `eigendecompose`'s (w, v);
    ValueError for a t that is not a finite real number (`_is_real`)."""
    if not (_is_real(t) and math.isfinite(t)):
        raise ValueError(f"the time t must be a finite real number, got t = {t!r}")
    w, v = decomp
    return (v * np.exp(-1j * w * t)) @ v.T


def dense_register_elements(omega: CouplingMatrix, t: float) -> RegisterElements:
    """Delta_{R1,L1}, Delta_{R2,L2}, Delta_{R1,L2}, Delta_{R2,L1} of the dense Delta(t).

    The sites are found by position in the model's ordering: L1, L2 first,
    R2, R1 last.
    """
    if not isinstance(omega, CouplingMatrix):
        raise ValueError(f"omega must be a CouplingMatrix, got {_quote(omega)}")
    if omega.n < 2:
        raise ValueError("register_elements needs the sites L1, L2, ..., R2, R1")
    d = propagator_at(eigendecompose(omega), t)
    return RegisterElements(d_r1l1=d[-1, 0], d_r2l2=d[-2, 1],
                            d_r1l2=d[-1, 1], d_r2l1=d[-2, 0])


def closed_form_effective_elements(g0: float, t) -> tuple:
    """Weak-coupling closed forms for n = 2: (Delta_R1L1, Delta_R2L2, Delta_R1L2),
    at one time t or at each time of a 1-D sequence t (then arrays)."""
    times = _times(t)
    if times is None or not all(_is_real(x) and math.isfinite(x) for x in (g0, *times)):
        raise ValueError(f"g0 and t must be finite real numbers, "
                         f"got g0 = {_quote(g0)}, t = {_quote(t)}")
    t = np.asarray(t, dtype=float)
    c1, c2 = np.cos(g0 * t), np.cos(2 * g0 * t)
    s1, s2 = np.sin(g0 * t), np.sin(2 * g0 * t)
    d_r1l1 = (3.0 - 4.0 * c1 + c2) / 8.0
    d_r2l2 = (-c1 + c2) / 2.0
    d_r1l2 = 0.25j * (2.0 * s1 - s2)
    return d_r1l1, d_r2l2, d_r1l2


# largest |Delta_eff(tau) - (-1)^n E| entry a mirror inversion passes with
MIRROR_TOL = 1e-10


def mirror_inversion_error(spec: ChainSpec) -> float:
    """Largest entry of |Delta_eff(tau) - (-1)^n E|, E the antidiagonal exchange matrix."""
    omega = build_effective_coupling_matrix(spec)
    delta = propagator_at(eigendecompose(omega), spec.tau)
    exchange = np.fliplr(np.eye(omega.order))
    return float(np.max(np.abs(delta - (-1) ** spec.n * exchange)))
