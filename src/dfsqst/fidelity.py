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
the residue formula for a Jacobi matrix).  The dense propagator in
`propagator` is the reference it is tested against; that module imports
this one, never the other way round.  The mirror-symmetric chain is solved
as its even and odd halves.  Each half has a zero diagonal, so its spectrum is
+-sigma (and one zero at odd order), where sigma are the singular values of
a bidiagonal of half its order, found by LAPACK's dqds (`dlasq1`) to high
relative accuracy.  The log-gap sums then run over the positive half
sigma_1..sigma_p alone, a quarter of the full spectrum's pairs, with each
gap floored at eps times the pair's sum so that modes of the two halves
that agree to every bit stay finite.  A gap is one product of two factors
while every such product is a normal float, and the sum of their two logs
at weak coupling or extreme scales.  The engine evaluates the elements over
a grid of coupling ratios, by default at t = tau.  The ratios of one
channel length run as stacks of chains of the same order M
(`_register_stack`), and each step from bonds to rows is one set of array
operations over the whole stack: the dqds inputs of every chain's even
blocks and then of its odd blocks are one work array each (`_spectra`),
one dqds call a chain; the gap sums, weights and phases follow, the phases
exp(-i sigma t) taken over the positive half only and conjugated for
-sigma; and each fidelity formula is one call over the stack's elements.
Each chain keeps its own choice of gap form.  A stack holds as many chains
as fit their whole gap matrices into one block of `_GAP_CELLS` cells, so
the scratch memory stays O(M), and a chain gets the same bits in any
stack; `register_elements` stacks one chain.  A chain of at least
`_POOL_MIN_ORDER` sites, whose stacks are single points, runs its ratios on
a thread pool of one worker per usable CPU, since the dqds call and the gap
sums release the GIL; shorter chains, single-ratio grids and one-CPU
processes run one stack after another in the calling thread.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg import cython_lapack, eigvalsh_tridiagonal

from .model import (ChainSpec, CouplingMatrix, _is_int, _is_real, _quote, _times,
                    build_full_bonds, derive_parameters)

__all__ = [
    "RegisterElements",
    "register_elements",
    "f_dfs",
    "f_ndfs",
    "SweepRow",
    "SweepResult",
    "sweep_fidelity",
    "default_ratio_grid",
]

# cells of each of the three gap-matrix blocks `register_elements` reuses:
# 512 KB each, so they stay near the core instead of paging in 6 M^2 bytes
# per point
_GAP_CELLS = 1 << 16
_EPS = np.finfo(float).eps
# a floored gap |sigma_k^2 - sigma_j^2| lies in [eps (sigma_k + sigma_j)^2,
# (2 sigma_max)^2]; `register_elements` takes it as one product while that
# range is normal floats, and as the log of each factor otherwise
_TINY = np.finfo(float).tiny
_ROOT_MAX = np.sqrt(np.finfo(float).max)
_SQRT2 = math.sqrt(2.0)

_DLASQ1_SIGNATURE = "void (int *, d *, d *, d *, int *)"


def _lapack_routine(name: str, signature: str):
    """The LAPACK routine `name` from scipy's cython_lapack capsule table, as a
    ctypes function of raw addresses, once its C signature is checked to be
    `signature` (Cython's mangled typedef names spelled short, so a double is d)."""
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    found = re.sub(r"__pyx_t_\w*?cython_lapack_", "", capsule_name.decode())
    if found != signature:
        # an ILP64 or otherwise changed ABI would take the arguments wrongly
        raise ImportError(f"scipy {scipy.__version__} exports {name} as {found!r}, "
                          f"not {signature!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, capsule_name)
    # raw addresses: ndpointer argument checks cost more than a small solve
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count("*"))(address)


# dqds: the singular values of a bidiagonal to high relative accuracy
# (Fernando & Parlett, Numer. Math. 67, 191 (1994))
_dlasq1 = _lapack_routine("dlasq1", _DLASQ1_SIGNATURE)


def _singular_values(b: np.ndarray) -> np.ndarray:
    """Row by row, the descending positive half of the spectrum of the
    zero-diagonal tridiagonal matrix with bonds b[i], for a stack b of rows
    of one length: the singular values of its even-by-odd site block, the
    bidiagonal with diagonal b[i, 0::2] and superdiagonal b[i, 1::2]
    (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965)).  The stack's
    bidiagonals and workspaces are one work array, and dqds runs once a
    row; the result is a view of that array."""
    r, k = b.shape
    n = k // 2 + 1
    # each row's diagonal and superdiagonal, both zero-padded to order n,
    # then dlasq1's workspace of 4n
    work = np.zeros((r, 6 * n))
    work[:, :(k + 1) // 2] = b[:, 0::2]
    work[:, n:n + k // 2] = b[:, 1::2]
    order, info = ctypes.c_int(n), ctypes.c_int()
    order_at, info_at = ctypes.addressof(order), ctypes.addressof(info)
    # the buffer's address, at a third of the cost of `work.ctypes.data`
    at = ctypes.addressof(ctypes.c_char.from_buffer(work))
    for row in range(at, at + 48 * n * r, 48 * n):
        _dlasq1(order_at, row, row + 8 * n, row + 16 * n, info_at)
        if info.value:
            raise np.linalg.LinAlgError(f"dlasq1 failed to converge (info = {info.value})")
    # an odd-order matrix has one more even site than odd ones, and the
    # structural zero singular value that leaves is dropped
    return work[:, :(k + 1) // 2]


def _spectra(b: np.ndarray) -> np.ndarray:
    """Row by row, the floor(M/2) ascending positive eigenvalues of the
    zero-diagonal tridiagonal matrix of order M with bonds b[i], for a stack
    b of shape (R, M - 1).  Each spectrum is these, their negatives and, at
    odd order, one zero.  A mirror-symmetric chain is solved as its even and
    odd blocks (Cantoni & Butler, LAA 13, 275 (1976)), any other chain whole
    by one dqds call on a bidiagonal of half the order (`_singular_values`).
    At odd order 2c + 1 the even block is b[:c], the last times sqrt 2,
    solved by dqds, and the odd block is b[:c-1], solved by this function
    again; the mirror rows' even blocks and then their odd blocks are each
    one work array, one dqds call a row.  At even order 2c + 2 the even
    block is b[:c] with the middle bond b[c] on its last diagonal entry, and
    the odd block is its negative under the sign flip (-1)^i, so the positive
    half is |eig(even block)|.  That block is not bipartite, so dsterf solves
    it, to an absolute error of about eps times the largest bond: dqds on
    the whole chain's persymmetric bidiagonal returned two mirror modes
    100 eps apart as their mean, off by more than that.  The sweep's chains
    have odd order, and their odd blocks are not mirror-symmetric.  Each row
    gets the bits it gets alone.  The bonds must be finite, which
    `_register_stack` checks once for a whole stack."""
    r, k = b.shape
    c = k // 2
    # the ufunc's reduce, not the `all` method, whose overhead a small solve shows
    mirror = np.logical_and.reduce(b == b[:, ::-1], 1) if c else np.zeros(r, dtype=bool)
    flags = mirror.tolist()
    if not any(flags):
        return _singular_values(b)[:, ::-1].copy()
    both = all(flags)
    pal = b if both else b[mirror]
    if k % 2:  # dsterf, not a dense eigvalsh: O(M) scratch, not O(M^2)
        half = np.empty((len(pal), c + 1))
        diag = np.zeros(c + 1)
        for i, row in enumerate(pal):
            diag[-1] = row[c]
            half[i] = np.sort(np.abs(eigvalsh_tridiagonal(diag, row[:c], lapack_driver="sterf")))
    else:
        even = pal[:, :c].copy()
        np.multiply(even[:, -1], _SQRT2, out=even[:, -1])
        half = np.concatenate([_singular_values(even), _spectra(pal[:, :c - 1])], 1)
        half.sort(1)
    if both:
        return half
    sig = np.empty((r, (k + 1) // 2))
    sig[mirror] = half
    sig[~mirror] = _singular_values(b[~mirror])[:, ::-1]
    return sig


@dataclass(frozen=True)
class RegisterElements:
    """The four register-to-register propagator elements for n = 2: complex
    numbers, or arrays of them, one entry a chain of a stack or a time."""

    d_r1l1: complex | np.ndarray
    d_r2l2: complex | np.ndarray
    d_r1l2: complex | np.ndarray
    d_r2l1: complex | np.ndarray


def register_elements(omega: CouplingMatrix, t) -> RegisterElements:
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
    (-1)^(M-1-k) for ascending lambda, and a bond may be negative.

    No eigenvectors are formed.  `_spectra` gives the positive half
    sigma_1..sigma_p of the spectrum (the rest is -sigma and, when
    z = M - 2p is 1, a zero), so with every factor taken over that half

        |chi'(+-sigma_k)| = 2 sigma_k sigma_k^z prod_{j != k} |sigma_k^2 - sigma_j^2|,
        |chi'(0)| = prod_j sigma_j^2.

    Each factor |sigma_k^2 - sigma_j^2| is max(|sigma_k - sigma_j|,
    eps (sigma_k + sigma_j)) (sigma_k + sigma_j): modes of the two mirror
    blocks can agree to every bit at strong coupling, and a floor relative to
    the pair, not to the largest mode, keeps the tiny register gaps of weak
    coupling.  The product of the two factors is a normal float unless a
    mode lies below about 1e-146 or above 1e154; at such a point each factor
    gets its own log instead, so no gap loses digits as a subnormal or drops
    a mode as an overflow.  The p^2 = M^2/4 products are taken in row blocks
    of at most `_GAP_CELLS` cells, so the scratch memory is O(M).
    The diagonal is zero because a `CouplingMatrix` has none.  Where the
    sums leave the float range the elements come out inf or nan, silently;
    callers check.  A 1-D sequence t gives arrays, one entry a time, run as
    stacks of up to `_stack_size(M)` copies of the chain, each the scalar call's bits.

    Raises ValueError for registers of fewer than two sites (L1, L2 first,
    R2, R1 last), a zero bond (which makes eigenvalues degenerate), a
    non-finite bond, or a t that is neither a real number nor a 1-D sequence
    of them (`_is_real`: a bool, a numeric string or an int beyond the float
    range is refused; an inf or nan t is taken, and gives non-finite elements).
    """
    if omega.n < 2:
        raise ValueError("register_elements needs the sites L1, L2, ..., R2, R1")
    times = _times(t)
    if times is None:
        raise ValueError(f"the time t must be a real number or a 1-D sequence of them, "
                         f"got {_quote(t)}")
    times, size = np.array(times, dtype=float), _stack_size(omega.order)
    parts = [_register_stack(omega.bonds[None].repeat(len(ts), 0), ts)
             for ts in (times[k:k + size] for k in range(0, len(times), size))]
    e = np.concatenate(parts) if parts else np.empty((0, 4), dtype=complex)
    return RegisterElements(*(e[0] if _is_real(t) else e.T))


def _stack_size(m: int) -> int:
    """How many chains of order m one stack holds: as many as fill one gap
    block of `_GAP_CELLS` cells with whole p x p gap matrices, p = m // 2,
    and at least one."""
    return max(1, _GAP_CELLS // (m // 2) ** 2)


def _register_stack(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The register elements of R chains of one order M at once, as the
    rows (d_r1l1, d_r2l2, d_r1l2, d_r2l1) of an (R, 4) array: bonds b of
    shape (R, M - 1), chain i at time t[i].  See `register_elements` for the
    formula.  Every step is one set of array operations over the stack: the
    spectra (`_spectra`, whose dqds inputs are one work array per block
    kind), the choice of gap form (one test, each chain its own result), the
    gap sums, the weights, and the phases, which exp takes over the zero
    mode and the positive half only, since at -sigma_k the phase is the
    conjugate of that at sigma_k bit for bit.  Every row of gap logs is
    summed whole and every element is one vector dot, so a chain's elements
    are the same bits in any stack.  The gap matrices of all R chains are
    taken a block of the same rows of each chain at a time, at most
    `_GAP_CELLS` cells a block while one row of every chain fits, so a stack
    of more than one chain should be sized by `_stack_size`."""
    r, m = b.shape[0], b.shape[1] + 1
    p = m // 2
    z = m - 2 * p
    # at extreme couplings or times the sums overflow: the caller gets a
    # non-finite element rather than a warning
    with np.errstate(all="ignore"):
        # log |b| is finite where a bond is neither zero nor inf nor nan, and
        # then their sum is too: each term lies within about +-745
        log_b = np.log(np.abs(b))
        if not math.isfinite(np.add.reduce(log_b, None)):
            raise ValueError("register_elements needs every bond nonzero" if not b.all()
                             else "the bonds must be finite")
        sig = _spectra(b)
        two_sig = 2.0 * sig
        # past that range a subnormal product would lose digits, and an
        # overflowed one would drop a mode from the sums; float_power squares
        # by C pow, as a scalar's ** 2 does (x * x differs in rare last bits)
        fit = ((_TINY <= _EPS * np.float_power(sig[:, 0] + sig[:, 1], 2.0))
               & (two_sig[:, -1] <= _ROOT_MAX))
        mixed = not all(fit.tolist())
        if mixed:
            fit = fit[:, None, None]
        # log |chi'(lambda_k)| for ascending lambda, the positive half `pos`
        # last: sum_{j != k} log |sigma_k^2 - sigma_j^2|, one block of rows of
        # every chain at a time
        log_chi = np.empty((r, m))
        pos = log_chi[:, m - p:]
        rows = max(1, min(p, _GAP_CELLS // (r * p)))
        blocks = np.empty(3 * r * rows * p)
        right = sig[:, None, :]
        for k0 in range(0, p, rows):
            k1 = min(k0 + rows, p)
            g, s, f = blocks[:3 * r * (k1 - k0) * p].reshape(3, r, k1 - k0, p)
            # sigma_k along each row first: numpy runs a broadcast whose
            # inner axis has stride 0 about 3x slower than this copy and
            # two row-broadcast steps
            np.copyto(s, sig[:, k0:k1, None])
            np.subtract(s, right, out=g)
            s += right
            np.abs(g, out=g)
            # modes of the two mirror blocks can agree to every bit
            np.maximum(g, np.multiply(s, _EPS, out=f), out=g)
            if mixed:
                np.multiply(g, s, out=g, where=fit)
            else:
                g *= s
            # the diagonal, k = j: entries k0 + i (p + 1) of each chain's rows
            g.reshape(r, -1)[:, k0::p + 1] = 1.0
            np.log(g, out=g)
            if mixed:
                s.reshape(r, -1)[:, k0::p + 1] = 1.0
                np.add(g, np.log(s, out=s), out=g, where=~fit)
            np.add.reduce(g, axis=2, out=pos[:, k0:k1])
        # |chi'(+-sigma_k)| = 2 sigma_k^(1+z) prod_{j != k} |sigma_k^2 - sigma_j^2|
        # and |chi'(0)| = prod_j sigma_j^2, for the spectrum in ascending order
        pos += np.log(two_sig)
        if z:
            log_sig = np.log(sig)
            pos += log_sig
            log_chi[:, p] = 2.0 * np.add.reduce(log_sig, axis=1)
        log_chi[:, :p] = pos[:, ::-1]
        lam = np.zeros((r, m))
        lam[:, :p], lam[:, m - p:] = -sig[:, ::-1], sig
        # e^{-i lambda_k t} over the zero mode and the positive half; at
        # -sigma_k it is the conjugate of that at sigma_k, bit for bit
        phases = np.empty((r, m), dtype=complex)
        np.exp(-1j * lam[:, p:] * t[:, None], out=phases[:, p:])
        np.conjugate(phases[:, m - p:][:, ::-1], out=phases[:, :p])
        # times the sign (-1)^(M-1-k) of chi'(lambda_k)
        sign = np.empty(m)
        sign[m - 1::-2], sign[m - 2::-2] = 1.0, -1.0
        phases *= sign
        # Delta_{R1,L1} = Delta_{1,M}, Delta_{R2,L2} = Delta_{2,M-1},
        # Delta_{R1,L2} = Delta_{2,M}, Delta_{R2,L1} = Delta_{1,M-1}: bonds
        # b[first:stop] (0-based) times lambda^0, lambda^2, lambda, lambda
        log_bonds = np.empty((r, 4, 1))
        for k, (first, stop) in enumerate(((0, m - 1), (1, m - 2), (1, m - 1), (0, m - 2))):
            np.add.reduce(log_b[:, first:stop], axis=1, out=log_bonds[:, k, 0])
        weights = np.exp(log_bonds - log_chi[:, None])
        np.multiply(weights[:, 1], np.square(lam), out=weights[:, 1])
        np.multiply(weights[:, 2:], lam[:, None], out=weights[:, 2:])
        # the signs of those bond products, 1 unless a bond is negative, and
        # exact in any order: the prefix product up to the bond before
        # `stop`, times b[0]'s where first = 1
        signs = 1.0
        if np.count_nonzero(b < 0):
            prefix = np.cumprod(np.sign(b), axis=1)
            signs = prefix[:, [m - 2, m - 3, m - 2, m - 3]]
            signs[:, 1:3] *= prefix[:, :1]
        # one vector dot per element, as for a single chain
        return signs * np.matmul(weights[:, :, None], phases[:, None, :, None])[:, :, 0, 0]


def _square_norm(x):
    """|x|^2 as a complex scalar's abs(x) ** 2 gives it (hypot, then C pow),
    element by element: numpy's complex abs and x * x differ from that in
    rare last bits."""
    return np.float_power(np.hypot(x.real, x.imag), 2.0)


def f_dfs(e: RegisterElements):
    """Average fidelity for the DFS encoding {|dn,up>, |up,dn>}, element by
    element where the elements are arrays.  Re(conj(a) b) is spelled out in
    real products, as numpy's scalar complex multiply forms it; its array
    multiply differs in rare last bits."""
    a, b = e.d_r1l1, e.d_r2l2
    coherence = a.real * b.real + a.imag * b.imag
    return 0.5 + (2.0 * coherence + _square_norm(a) - _square_norm(e.d_r1l2)) / 6.0


def f_ndfs(e: RegisterElements):
    """Average fidelity for the non-DFS encoding {|dn,dn>, |up,up>}, element
    by element where the elements are arrays; Re(ab - cd) is spelled out as
    in `f_dfs`."""
    a, b, c, d = e.d_r1l1, e.d_r2l2, e.d_r1l2, e.d_r2l1
    coherence = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    return 0.5 + (2.0 * coherence + _square_norm(a) + _square_norm(c)) / 6.0


@dataclass(frozen=True)
class SweepRow:
    N: int
    n: int
    ratio: float
    t: float
    encoding: str  # "dfs" | "ndfs"
    fidelity: float


@dataclass(frozen=True)
class SweepResult:  # kept: bench/workloads.py reads `.rows`
    rows: tuple[SweepRow, ...]


def default_ratio_grid(lo: float = 1e-3, hi: float = 1.0, steps: int = 40,
                       log_spaced: bool = True) -> np.ndarray:
    """Ratio grid, pre-rounded to 15 significant digits so that the CSV
    scientific-notation contract round-trips exactly."""
    if not all(_is_real(x) and math.isfinite(x) for x in (lo, hi)):
        raise ValueError(f"ratio bounds must be finite real numbers, got [{lo!r}, {hi!r}]")
    if not (_is_int(steps) and _is_real(steps)):  # geomspace takes it as a float
        raise ValueError(f"steps must be an integer that a float can hold, got {steps!r}")
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


def _point_fidelities(specs: list[ChainSpec], t_choice,
                      encodings: tuple[str, ...]) -> list[SweepRow]:
    """The rows of a stack of grid points that share N, in grid order: one
    `_register_stack` call for their elements, one call of each fidelity
    formula over the stack, then one finiteness check."""
    ts = [spec.tau if t_choice == "tau" else float(t_choice) for spec in specs]
    stack = _register_stack(build_full_bonds(specs), np.array(ts))
    elems = RegisterElements(*stack.T)
    fids = [f_dfs(elems) if enc == "dfs" else f_ndfs(elems) for enc in encodings]
    # extreme ratios or times overflow the spectral sums
    finite = np.logical_and.reduce(np.isfinite(stack), 1)
    for f in fids:
        finite &= np.isfinite(f)
    if not all(finite.tolist()):
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite result at N = {specs[i].N}, ratio = {specs[i].g_I!r}, "
                         f"t = {ts[i]!r}")
    # a fidelity is at most 1, but rounding can put the formula a few ulps
    # above it (up to 1 + 2.7e-15 seen at N = 1); only the rows are clipped,
    # so f_dfs/f_ndfs still show a sign error on non-unitary elements
    fids = [f.tolist() for f in fids]
    return [SweepRow(N=spec.N, n=spec.n, ratio=spec.g_I, t=t, encoding=enc,
                     fidelity=min(max(f[i], 0.0), 1.0))
            for i, (spec, t) in enumerate(zip(specs, ts)) for enc, f in zip(encodings, fids)]


# chains of at least this many sites (N + 4) run their stacks on a thread
# pool: a point's dqds call and gap sums release the GIL, so points overlap,
# but its Python steps do not, and opening and closing the pool costs about
# 0.3 ms.  From 364 sites up a stack is one point.  Pooled over serial wall
# time on a 2-core x86-64 host, by task size:
# - one point a task (10 ratios, medians of 30 interleaved runs, taken
#   before chains were stacked, and the figures the gate was set from):
#   1.17 at 305 sites, 0.98 at 405, 0.87 at 501, 0.77 at 605;
# - stacks (40 ratios, series of 30 alternating pairs): at 305 sites (stacks
#   of two) pooled won 27-30 pairs in 4 of 7 series, at 0.75-0.84, and lost
#   27-29 in the other 3; at 405, 0.70-0.79 in 4 of 5 series; on the README
#   grid (105-205 sites, stacks of 24, 11 and 6) it won 18-25 pairs a
#   series, medians within 10 %: inside the host's noise
_POOL_MIN_ORDER = 500


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        return os.cpu_count() or 1


def sweep_fidelity(n: int, N_list, ratio_grid, t_choice="tau",
                   encodings: tuple[str, ...] = ("dfs", "ndfs")) -> SweepResult:
    """Fidelity over the (N, ratio) grid at g_C = 1.

    Row order is deterministic: N outer, ratio inner ascending, dfs before
    ndfs.  The grid is checked before any point runs; a ratio must be a
    real number and not a bool, as `derive_parameters` asks of g_I, and so
    must a time t_choice other than "tau" (`_is_real`; an inf or nan time
    runs and is reported as a non-finite point).  The
    ratios of each channel length run in grid order as stacks of up to
    `_stack_size(N + 2n)` points, one `_point_fidelities` task a stack,
    whose elements come from one `_register_stack` call.  The stacks of a
    chain with at least `_POOL_MIN_ORDER` sites (one point each) run on a
    thread pool of one worker per usable CPU (at most one per ratio),
    opened and closed within the call; shorter chains, a single ratio or a
    single CPU run serially in the calling thread.  Either way each point
    gets the same bits, and of the points whose result is not finite the
    first in grid order is the one reported.
    Only two-qubit registers (n = 2) are supported: the fidelity formulas
    and `register_elements` are the n = 2 ones.
    """
    # n stays a parameter, though only 2 is valid: bench/workloads.py calls sweep_fidelity(2, ...)
    if n != 2:
        raise ValueError(f"the sweep evaluates the n = 2 fidelity formulas, got n = {n}")
    N_list, ratios = list(N_list), list(ratio_grid)
    for r in ratios:
        # derive_parameters' rule: float() alone would pass True as 1.0
        if not _is_real(r):
            raise ValueError(f"ratios must be real numbers, got {r!r}")
    ratios = sorted(map(float, ratios))
    if not (t_choice == "tau" or _is_real(t_choice)):
        raise ValueError(f"t_choice must be 'tau' or a real number, got {t_choice!r}")
    if not N_list or not ratios:
        raise ValueError("empty sweep grid")
    for enc in encodings:
        if enc not in ("dfs", "ndfs"):
            raise ValueError(f"unknown encoding {enc!r}")
    # every point's parameters first, so that derive_parameters refuses a bad
    # channel length or ratio before any point runs
    chains = [[derive_parameters(n, N, 1.0, r) for r in ratios] for N in N_list]

    def task(stack: list[ChainSpec]) -> list[SweepRow]:
        return _point_fidelities(stack, t_choice, encodings)

    workers = min(_usable_cpus(), len(ratios))
    rows = []
    for specs in chains:
        m = specs[0].N + 2 * n
        size = _stack_size(m)
        stacks = [specs[k:k + size] for k in range(0, len(specs), size)]
        if workers > 1 and m >= _POOL_MIN_ORDER:
            # map yields in grid order; a failing point cancels the ones not started
            with ThreadPoolExecutor(workers) as pool:
                rows.extend(row for stack_rows in pool.map(task, stacks) for row in stack_rows)
        else:
            rows.extend(row for stack in stacks for row in task(stack))
    return SweepResult(rows=tuple(rows))
