"""Chain geometry and coupling-matrix construction.

The system is a 1D XX chain made of three segments: a left register of n
qubits (L1..Ln), a channel of N qubits (c1..cN), and a right register
(Rn..R1, mirror ordered).  The channel couples uniformly with strength g_C,
the registers attach to the channel ends with strength g_I, and the
intraregister couplings follow the perfect-transfer profile

    g_u = (g0/2) * sqrt(u * (2n - u + 1)),   u = 1..n,

with g_n tuned to the zero-mode coupling t_kappa.  That tuning makes the
weak-coupling effective matrix equal to g0 * Jx for a pseudo spin J = n,
which is what produces mirror inversion at tau = pi / g0.

Every coupling matrix here is real symmetric tridiagonal with zero
diagonal, so `CouplingMatrix` stores just its M - 1 bonds and the register
size n.  The site ordering [L1..Ln, c1..cN, Rn..R1] is fixed once here and
every other module finds the registers by position in it: L1, L2 are sites
0, 1 and R2, R1 sites M - 2, M - 1.

This module also owns the rule for which numbers a caller may pass, as two
predicates that every module's input checks call: `_is_int` (an int or
numpy integer, not a bool) and `_is_real` (an int, float or numpy real
scalar that a float can hold, not a bool).  Neither accepts a numeric
string.  Whether a value must also be finite or in range is each
caller's own test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "CouplingMatrix",
    "derive_parameters",
    "build_full_coupling_matrix",
    "build_full_bonds",
    "build_effective_coupling_matrix",
]


@dataclass(frozen=True)
class ChainSpec:
    """Geometry plus every derived coupling parameter.

    Instances should be produced by :func:`derive_parameters`; the fields
    satisfy g_u[n-1] == t_kappa (tuning), g0 == 2*t_kappa/sqrt(n(n+1)) and
    tau * g0 == pi.
    """

    n: int              # qubits per register
    N: int              # channel length, odd
    g_C: float          # intrachannel coupling
    g_I: float          # register-channel coupling
    kappa: int          # zero-mode index, (N+1)/2
    t_kappa: float      # register <-> zero-mode coupling
    g0: float           # base register coupling, sets the transfer clock
    g_u: tuple[float, ...]  # intraregister couplings, u = 1..n
    tau: float          # transfer time, pi / g0


@dataclass(frozen=True)
class CouplingMatrix:
    """Zero-diagonal tridiagonal matrix; bonds[k] couples sites k and k + 1.

    The first n sites are the left register L1..Ln and the last n the right
    register Rn..R1, so L1 is site 0 and R1 site M - 1.
    """

    bonds: np.ndarray
    n: int  # register sites at each end

    @property
    def order(self) -> int:
        return len(self.bonds) + 1


def _is_int(x) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """An int, float or numpy real scalar that a float can hold (inf, nan too), not a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        float(x)
    except OverflowError:  # an int or fraction beyond the float range
        return False
    return True


def derive_parameters(n: int, N: int, g_C: float, g_I: float) -> ChainSpec:
    """Derive every coupling parameter from the four free inputs.

    Raises ValueError for even N (no zero-energy channel mode exists),
    sizes that are not positive integers (`_is_int`: a bool, a float such
    as 3.0 or a numeric string is refused), sizes so large that the
    couplings leave the floating-point range, couplings that are not finite
    positive reals (`_is_real`: a bool, a string or an int beyond the float
    range is refused), or a g_I so far from 1 that g0 or tau = pi/g0 leaves
    the floating-point range.
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"register size must be an integer >= 1, got {n!r}")
    if not _is_int(N) or N < 1 or N % 2 == 0:
        raise ValueError(f"channel length must be a positive odd integer, got {N!r}")
    if not all(_is_real(g) and 0 < g < math.inf for g in (g_C, g_I)):
        raise ValueError(f"couplings must be finite reals > 0, got g_C={g_C!r}, g_I={g_I!r}")

    kappa = (N + 1) // 2
    # sin(kappa*pi/(N+1)) = sin(pi/2) = 1 for odd N; keep the formula literal.
    # Python floats throughout: the same bits as numpy's scalars (sqrt is
    # correctly rounded, and that sine is 1.0 either way), at less cost
    try:
        t_kappa = float(g_I) * math.sqrt(2.0 / (N + 1)) * math.sin(kappa * math.pi / (N + 1))
        g0 = 2.0 * t_kappa / math.sqrt(n * (n + 1))
    except OverflowError:  # N + 1 or n (n + 1) beyond the float range
        raise ValueError(f"sizes n = {n}, N = {N} put the couplings out of range") from None
    if not (0.0 < g0 < math.inf and math.pi / g0 < math.inf):
        raise ValueError(f"g_I = {g_I!r} at N = {N} puts g0 = {g0!r} or tau = pi/g0 out of range")
    g_u = tuple(0.5 * g0 * math.sqrt(u * (2 * n - u + 1)) for u in range(1, n + 1))
    tau = math.pi / g0
    return ChainSpec(n=n, N=N, g_C=g_C, g_I=g_I, kappa=kappa,
                     t_kappa=t_kappa, g0=g0, g_u=g_u, tau=tau)


def build_full_coupling_matrix(spec: ChainSpec) -> CouplingMatrix:
    """(N+2n) x (N+2n) coupling matrix in the ordering [L1..Ln, c1..cN, Rn..R1]."""
    return CouplingMatrix(bonds=build_full_bonds([spec])[0], n=spec.n)


def build_full_bonds(specs) -> np.ndarray:
    """The bonds of the full chains of `specs`, which share n and N, one
    chain a row: [g_1..g_(n-1), g_I, g_C (N - 1 times), g_I, g_(n-1)..g_1]."""
    n, N = specs[0].n, specs[0].N
    ends = []
    for spec in specs:
        reg = spec.g_u[:n - 1]
        ends.append((*reg, spec.g_I, spec.g_C, spec.g_I, *reg[::-1]))
    return np.repeat(np.array(ends, dtype=float), [1] * n + [N - 1] + [1] * n, axis=1)


def build_effective_coupling_matrix(spec: ChainSpec) -> CouplingMatrix:
    """(2n+1) x (2n+1) weak-coupling matrix [L1..Ln, kappa, Rn..R1].

    Under the tuning g_n = t_kappa this equals g0 * Jx for J = n.
    """
    n = spec.n
    reg = np.asarray(spec.g_u[:n - 1])
    off = np.concatenate([reg, [spec.t_kappa, spec.t_kappa], reg[::-1]])
    return CouplingMatrix(bonds=off, n=n)

