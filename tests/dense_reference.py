"""Dense references the package's fast paths are tested against.

None of this is on a CLI or benchmark path: the full 2^L x 2^L spin
Hamiltonian and its eigendecomposition (the reference for the oracle's
sector evolve), the M x M coupling matrix, the J = n angular-momentum
matrix, and two derived chain numbers.
"""

import numpy as np

from dfsqst.oracle import MAX_SITES, _coupling_for


def dense(omega):
    """The M x M symmetric matrix of a `CouplingMatrix`."""
    return np.diag(omega.bonds, 1) + np.diag(omega.bonds, -1)


def total_sites(spec):
    return 2 * spec.n + spec.N


def kappa_parity(spec):
    """(-1)**(kappa-1), the sign absorbed into the right-end mode."""
    return -1 if (spec.kappa - 1) % 2 else 1


def jx_matrix(n):
    """Angular-momentum x-matrix for J = n, dimension 2n+1.

    Superdiagonal element m -> m+1 is (1/2) sqrt(J(J+1) - m(m+1)) with
    m = -J..J-1.
    """
    m = np.arange(-n, n)
    off = 0.5 * np.sqrt(n * (n + 1) - m * (m + 1))
    return np.diag(off, 1) + np.diag(off, -1)


def build_spin_hamiltonian(spec, which="full"):
    """Dense many-body XX Hamiltonian, H = sum_bonds g (s+ s- + s- s+)."""
    return spin_hamiltonian_from_coupling(_coupling_for(spec, which))


def spin_hamiltonian_from_coupling(omega):
    """Many-body Hamiltonian whose single-excitation block is omega.

    Each bond becomes an XX hop between neighbouring spins; a longer-range
    hop, which a `CouplingMatrix` cannot hold, would need explicit
    Jordan-Wigner strings in spin language.
    """
    L = omega.order
    if L > MAX_SITES:
        raise ValueError(f"{L} sites exceeds the oracle cap of {MAX_SITES}")
    dim = 1 << L
    H = np.zeros((dim, dim))
    s = np.arange(dim)
    for b, g in enumerate(omega.bonds):
        bi = (s >> b) & 1
        bj = (s >> (b + 1)) & 1
        hop = s[bi != bj]
        H[hop ^ (1 << b) ^ (1 << (b + 1)), hop] += g
    return H


def evolve_state(H, psi, t):
    """exp(-iHt) psi via full Hermitian eigendecomposition; psi is one state
    or a matrix whose columns are states."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * t)) @ (V.conj().T @ psi)
