"""Independent dense reference for the n = 2 transfer fidelity.

Builds the full coupling matrix Omega straight from the chain parameters
(g_C = 1), diagonalises it with dense ``scipy.linalg.eigh`` and applies the
two average-fidelity formulas.  Nothing here imports dfsqst, so a defect in
the package's model, eigensolver, propagator or formula layers shows up as
a mismatch instead of being shared by both sides of the check.

Site order is [L1, L2, c1..cN, R2, R1]; the register bonds follow the
perfect-transfer profile g_u = (g0/2) sqrt(u (2n - u + 1)), which for n = 2
gives g_1 = g0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh


def transfer_time(N: int, g_I: float) -> float:
    """tau = pi / g0 with g0 = 2 t_kappa / sqrt(n (n + 1)) and n = 2."""
    t_kappa = g_I * math.sqrt(2.0 / (N + 1))
    return math.pi / (2.0 * t_kappa / math.sqrt(6.0))


def fidelities(N: int, g_I: float, t: float) -> tuple[float, float]:
    """(F_DFS, F_NDFS) of the full chain at time t."""
    g1 = math.pi / transfer_time(N, g_I)  # = g0
    off = np.concatenate([[g1, g_I], np.ones(N - 1), [g_I, g1]])
    omega = np.diag(off, 1) + np.diag(off, -1)
    w, v = eigh(omega)
    phases = np.exp(-1j * w * t)
    rows = v[[-1, -2]] * phases          # R1, R2
    cols = v[[0, 1]].T                   # L1, L2
    d = rows @ cols                      # d[r, l] = Delta_{R(r+1), L(l+1)}
    a, b, c, e = d[0, 0], d[1, 1], d[0, 1], d[1, 0]
    f_dfs = 0.5 + (2.0 * np.real(np.conj(a) * b) + abs(a) ** 2 - abs(c) ** 2) / 6.0
    f_ndfs = 0.5 + (2.0 * np.real(a * b - c * e) + abs(a) ** 2 + abs(c) ** 2) / 6.0
    return float(f_dfs), float(f_ndfs)
