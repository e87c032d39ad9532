"""Average-fidelity formulas and the g_I/g_C parameter sweep.

For two-qubit registers (n = 2) the average transfer fidelity of a logical
qubit is a closed function of four propagator matrix elements between
register sites.  With e = (Delta_R1L1, Delta_R2L2, Delta_R1L2, Delta_R2L1):

    F_DFS  = 1/2 + (1/6) [ 2 Re(Delta_R1L1^* Delta_R2L2)
                           + |Delta_R1L1|^2 - |Delta_R1L2|^2 ]
    F_NDFS = 1/2 + (1/6) [ 2 Re(Delta_R1L1 Delta_R2L2 - Delta_R1L2 Delta_R2L1)
                           + |Delta_R1L1|^2 + |Delta_R1L2|^2 ]

DFS refers to the logical basis {|dn,up>, |up,dn>} (dephasing-protected),
NDFS to {|dn,dn>, |up,up>}.  Both formulas are invariant under flipping the
sign of all four elements, which is exactly the (-1)^(kappa-1) convention
ambiguity of the right-end mode.

The sweep engine needs only those four elements of the full-chain
propagator, and gets them from the eigenvalues alone (`register_elements`,
the residue formula for a Jacobi matrix); the dense propagator is the
reference it is tested against.  It evaluates them over a grid of coupling
ratios, by default at t = tau, optionally averaging over Gaussian disorder
on the intraregister bonds.  Grid points are independent and are mapped in
parallel with deterministic result ordering.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import CouplingMatrix, derive_parameters, build_full_coupling_matrix
from .propagator import Propagator

__all__ = [
    "RegisterElements",
    "extract_register_elements",
    "register_elements",
    "pauli_transfer_terms",
    "f_dfs",
    "f_ndfs",
    "SweepRow",
    "SweepResult",
    "DisorderSpec",
    "sweep_fidelity",
    "default_ratio_grid",
]


@dataclass(frozen=True)
class RegisterElements:
    """The four register-to-register propagator elements for n = 2."""

    d_r1l1: complex
    d_r2l2: complex
    d_r1l2: complex
    d_r2l1: complex


def extract_register_elements(prop: Propagator) -> RegisterElements:
    """Pick out Delta_{R1,L1}, Delta_{R2,L2}, Delta_{R1,L2}, Delta_{R2,L1}.

    Site indices come from the labels fixed in the model module; R1 is the
    last index, L1 the first.
    """
    src = prop.source
    l1, l2 = src.index_of("L1"), src.index_of("L2")
    r1, r2 = src.index_of("R1"), src.index_of("R2")
    d = prop.entries
    return RegisterElements(d_r1l1=d[r1, l1], d_r2l2=d[r2, l2],
                            d_r1l2=d[r1, l2], d_r2l1=d[r2, l1])


def register_elements(omega: CouplingMatrix, t: float) -> RegisterElements:
    """The four n = 2 register elements of exp(-i Omega t) from the eigenvalues alone.

    For a Jacobi matrix (zero diagonal, bonds b_1..b_{M-1} on sites 1..M)
    the residues of the resolvent give, for i <= j,

        Delta_ij(t) = sum_k e^{-i lambda_k t} b_i...b_{j-1}
                      theta_{i-1}(lambda_k) phi_{j+1}(lambda_k) / chi'(lambda_k),

    where theta_k and phi_k are the characteristic polynomials of the
    leading block up to site k and the trailing block from site k, and chi
    that of Omega (Usmani, LAA 212/213, 1994).  At the register corners
    theta_0 = phi_{M+1} = 1 and theta_1 = phi_M = lambda, so each element
    is a spectral sum whose weights are lambda^p times a bond product over
    chi'(lambda_k) = prod_{j != k} (lambda_k - lambda_j).  Both products are
    summed as logs with their signs kept apart: chi'(lambda_k) has sign
    (-1)^(M-1-k) for ascending lambda, and a disordered bond may be
    negative.

    No eigenvectors are formed; the cost is the O(M^2) log-differences.
    Requires the labels L1, L2 at the start and R2, R1 at the end and no
    zero bond (which would make eigenvalues degenerate); the diagonal is
    zero because a `CouplingMatrix` has none.  Where the sums leave the float
    range the elements come out inf or nan, silently; callers check.
    """
    if omega.site_labels[:2] != ("L1", "L2") or omega.site_labels[-2:] != ("R2", "R1"):
        raise ValueError("register_elements needs the sites L1, L2, ..., R2, R1")
    b = omega.bonds
    if not np.all(b):
        raise ValueError("register_elements needs every bond nonzero")
    m = omega.order
    lam = eigh_tridiagonal(np.zeros(m), b, eigvals_only=True)
    # at extreme couplings or times the sums overflow: the caller gets a
    # non-finite element rather than a warning
    with np.errstate(all="ignore"):
        gaps = np.abs(np.subtract.outer(lam, lam))
        np.fill_diagonal(gaps, 1.0)
        log_chi = np.log(gaps, out=gaps).sum(axis=1)      # log |chi'(lambda_k)|
        # e^{-i lambda_k t} times the sign of chi'(lambda_k)
        phases = np.exp(-1j * lam * t) * np.where((m - 1 - np.arange(m)) % 2, -1.0, 1.0)
        log_b, sign_b = np.log(np.abs(b)), np.sign(b)

        def element(first: int, stop: int, power: int) -> complex:
            # bonds b[first:stop] (0-based) times lambda^power
            weights = np.exp(log_b[first:stop].sum() - log_chi) * lam ** power
            return np.prod(sign_b[first:stop]) * (weights @ phases)

        # Delta_{R1,L1} = Delta_{1,M}, Delta_{R2,L2} = Delta_{2,M-1},
        # Delta_{R1,L2} = Delta_{2,M}, Delta_{R2,L1} = Delta_{1,M-1}
        return RegisterElements(d_r1l1=element(0, m - 1, 0), d_r2l2=element(1, m - 2, 2),
                                d_r1l2=element(1, m - 1, 1), d_r2l1=element(0, m - 2, 1))


def pauli_transfer_terms(e: RegisterElements) -> tuple[float, float, float]:
    """Pauli x/y/z transfer traces of the encode-evolve-decode channel."""
    t_x = 2.0 * np.real(e.d_r1l1 * np.conj(e.d_r2l2) + e.d_r1l2 * np.conj(e.d_r2l1))
    t_y = 2.0 * np.real(e.d_r1l1 * np.conj(e.d_r2l2) - e.d_r1l2 * np.conj(e.d_r2l1))
    t_z = 2.0 * (abs(e.d_r1l1) ** 2 - abs(e.d_r1l2) ** 2)
    return float(t_x), float(t_y), float(t_z)


def f_dfs(e: RegisterElements) -> float:
    """Average fidelity for the DFS encoding {|dn,up>, |up,dn>}."""
    return float(0.5 + (2.0 * np.real(np.conj(e.d_r1l1) * e.d_r2l2)
                        + abs(e.d_r1l1) ** 2 - abs(e.d_r1l2) ** 2) / 6.0)


def f_ndfs(e: RegisterElements) -> float:
    """Average fidelity for the non-DFS encoding {|dn,dn>, |up,up>}."""
    return float(0.5 + (2.0 * np.real(e.d_r1l1 * e.d_r2l2 - e.d_r1l2 * e.d_r2l1)
                        + abs(e.d_r1l1) ** 2 + abs(e.d_r1l2) ** 2) / 6.0)


@dataclass(frozen=True)
class SweepRow:
    N: int
    n: int
    ratio: float
    t: float
    encoding: str  # "dfs" | "ndfs"
    fidelity: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class DisorderSpec:
    """Relative Gaussian disorder on the intraregister couplings."""

    sigma_rel: float
    seed: int
    samples: int


def default_ratio_grid(lo: float = 1e-3, hi: float = 1.0, steps: int = 40,
                       log_spaced: bool = True) -> np.ndarray:
    """Ratio grid, pre-rounded to 15 significant digits so that the CSV
    scientific-notation contract round-trips exactly."""
    if steps < 1:
        raise ValueError("ratio grid must have at least one point")
    if lo >= hi and steps > 1:
        raise ValueError(f"need ratio_min < ratio_max, got [{lo}, {hi}]")
    if lo <= 0:
        raise ValueError("ratios must be positive")
    if log_spaced:
        grid = np.geomspace(lo, hi, steps)
    else:
        grid = np.linspace(lo, hi, steps)
    return np.array([float(f"{r:.14e}") for r in grid])


def _worker_count(max_workers: int | None) -> int:
    """Pool size: the argument, else QST_THREADS; unset, empty or <= 0 means one per core."""
    if max_workers is None:
        env = os.environ.get("QST_THREADS", "").strip()
        try:
            max_workers = int(env or 0)
        except ValueError:
            raise ValueError(f"QST_THREADS must be an integer, got {env!r}") from None
    if max_workers <= 0:
        max_workers = os.cpu_count() or 1
    return max_workers


def _point_fidelities(n: int, N: int, ratio: float, t_choice,
                      encodings: tuple[str, ...],
                      disorder: DisorderSpec | None,
                      point_index: int) -> list[SweepRow]:
    spec = derive_parameters(n=n, N=N, g_C=1.0, g_I=ratio)
    t = float(spec.tau) if t_choice == "tau" else float(t_choice)

    if disorder is None or disorder.sigma_rel == 0.0:
        draws = [None]
    else:
        rng = np.random.default_rng([disorder.seed, point_index])
        reg = np.asarray(spec.g_u[:n - 1])
        draws = [(reg * (1.0 + rng.normal(0.0, disorder.sigma_rel, n - 1)),
                  reg * (1.0 + rng.normal(0.0, disorder.sigma_rel, n - 1)))
                 for _ in range(disorder.samples)]

    acc = {enc: 0.0 for enc in encodings}
    for draw in draws:
        omega = build_full_coupling_matrix(spec, register_offdiag=draw)
        elems = register_elements(omega, t)
        fids = {enc: f_dfs(elems) if enc == "dfs" else f_ndfs(elems) for enc in encodings}
        # extreme ratios or times overflow the spectral sums
        if not np.all(np.isfinite([*vars(elems).values(), *fids.values()])):
            raise ValueError(f"non-finite result at N = {N}, ratio = {ratio!r}, t = {t!r}")
        for enc in encodings:
            acc[enc] += fids[enc]
    return [SweepRow(N=N, n=n, ratio=ratio, t=t, encoding=enc,
                     fidelity=acc[enc] / len(draws))
            for enc in encodings]


def sweep_fidelity(n: int, N_list, ratio_grid, t_choice="tau",
                   encodings: tuple[str, ...] = ("dfs", "ndfs"),
                   disorder: DisorderSpec | None = None,
                   max_workers: int | None = None) -> SweepResult:
    """Fidelity over the (N, ratio) grid at g_C = 1.

    Row order is deterministic: N outer, ratio inner ascending, dfs before
    ndfs.  Points are computed in parallel but results are keyed by grid
    index, not completion order.  Only two-qubit registers (n = 2) are
    supported: the fidelity formulas and `register_elements` are the n = 2
    ones.
    """
    if n != 2:
        raise ValueError(f"the sweep evaluates the n = 2 fidelity formulas, got n = {n}")
    N_list = list(N_list)
    ratios = sorted(float(r) for r in ratio_grid)
    if not N_list or not ratios:
        raise ValueError("empty sweep grid")
    for N in N_list:
        if N % 2 == 0:
            raise ValueError(f"channel length must be odd, got {N}")
    for enc in encodings:
        if enc not in ("dfs", "ndfs"):
            raise ValueError(f"unknown encoding {enc!r}")

    points = [(N, r) for N in N_list for r in ratios]
    workers = _worker_count(max_workers)

    def task(item):
        idx, (N, r) = item
        return _point_fidelities(n, N, r, t_choice, encodings, disorder, idx)

    if workers == 1:
        chunks = [task(p) for p in enumerate(points)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(task, enumerate(points)))
    return SweepResult(rows=tuple(row for chunk in chunks for row in chunk))
