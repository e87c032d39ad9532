"""Exact many-body oracle for desk-scale chains.

Everything in this module works on the full 2^L-dimensional state vector
(L = total sites, hard cap 12) and makes no free-fermion assumption.  The
XX Hamiltonian conserves total spin-z, and each hop flips the parity of
the up spins on odd sites, so within a popcount sector it is a chiral
block [[0, B], [B^T, 0]].  The evolve core has two parts.  A per-chain
decomposition (``_sector_svds``) builds each rectangular B straight from
the chain's bonds and takes its SVD; it depends on the bonds only, so it
is computed once per chain and cached, keyed on the bonds' float64 bytes,
for the last few chains (at most about 7 MB each, at L = 12).  The apply
step (``_evolve_basis``) evolves basis states at any t: each lies in one
sector and one half of it, so its column needs a row of U or W and two
real GEMMs in that sector alone (sector L - m reuses the SVD of sector m),
written straight into the caller's row order.  Only the decomposition is
independent of the input; neither part forms the 2^L x 2^L matrix.  The
dense reference the core is tested against, the full Hamiltonian and its
eigendecomposition, lives with the tests.  The oracle is used to
validate, by brute force, what the free-fermion engine claims:

* the single-excitation block of the many-body XX Hamiltonian equals the
  single-particle coupling matrix (Jordan-Wigner consistency),
* the effective evolution at tau sends each basis state to its mirror
  image (the bit reversal of its index) times (-1)^(n Ne + Ne(Ne-1)/2),
  Ne its number of up spins (`jw_phase_prediction`),
* the CNOT encode/transfer/decode pipeline, run on the two logical basis
  branches of each channel state, reproduces the closed fidelity formulas
  for the DFS and non-DFS logical encodings; its codec is a map on the four
  patterns of each end's register pair, so it forms no 2^L permutation,
* collective dephasing (a classical random scalar field coupled to the
  total spin-z projection) leaves the DFS pipeline exactly invariant
  while suppressing non-DFS coherences by the Gaussian factor
  exp(-8 sigma^2 t^2); the phase difference between the decoded R1 = 0
  and R1 = 1 rows depends only on the decoded R2.

Basis convention: basis index s encodes site k (model ordering, L1 first,
R1 last) in bit k, bit 1 = spin up.  A spin product state is identified
with the fermionic occupation state whose creation operators are applied
in ascending site order; with that identification the spin and fermion
Hamiltonian matrices coincide for nearest-neighbor hopping.

Codewords whose particle numbers differ by 2, such as the non-DFS pair
{|dn,dn>, |up,up>}, change that exponent by 2n + 2Ne + 1 (Ne the smaller
count), which is odd: at t = tau they acquire a relative -1 for every
background, so the pipeline measures them against the Z-corrected target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ChainSpec, CouplingMatrix, derive_parameters, \
    build_full_coupling_matrix, build_effective_coupling_matrix, _is_int, _is_real

__all__ = [
    "MAX_SITES",
    "DephasingModel",
    "jw_phase_prediction",
    "phase_table",
    "PhaseRow",
    "average_fidelity_bruteforce",
    "dephasing_protection_report",
    "DephasingProtectionReport",
    "REMAINING_SUBSPACES",
]

MAX_SITES = 12

# Largest amplitude error a basis state of the swap check passes with, and
# largest per-shot DFS fidelity deviation the dephasing report passes with.
SWAP_TOL = 1e-8
DFS_TOL = 1e-10

# The four two-dimensional register subspaces that are neither the DFS nor
# the NDFS pair; each entry is ((bit_1, bit_2) for logical 0 and 1), where
# bit_1/bit_2 are the first/second register qubit (up = 1).  Kept public:
# acceptance criterion 8 is stated over exactly these four.
REMAINING_SUBSPACES = (
    ((0, 0), (0, 1)),
    ((0, 0), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 1), (1, 0)),
)


@dataclass(frozen=True)
class DephasingModel:
    """Classical collective dephasing field: lambda ~ N(0, sigma_lambda)."""

    sigma_lambda: float
    samples: int = 200
    seed: int = 42

    def __post_init__(self):
        if not (_is_real(self.sigma_lambda) and 0 <= self.sigma_lambda < math.inf):
            raise ValueError(f"sigma_lambda must be finite and >= 0, a real number, "
                             f"got {self.sigma_lambda!r}")
        for name, least in (("samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    def draw(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, self.sigma_lambda, self.samples)


def _coupling_for(spec: ChainSpec, which: str) -> CouplingMatrix:
    if which == "full":
        omega = build_full_coupling_matrix(spec)
    elif which == "effective":
        omega = build_effective_coupling_matrix(spec)
    else:
        raise ValueError(f"which must be 'full' or 'effective', got {which!r}")
    if omega.order > MAX_SITES:
        raise ValueError(f"{omega.order} sites exceeds the oracle cap of {MAX_SITES}")
    return omega


@functools.lru_cache(maxsize=None)
def _sector_layout(L: int) -> tuple:
    """How the basis of L sites splits into the chiral blocks of H.

    Returns (blocks, pop, half, slot).  blocks[k] is the pair of basis-index
    lists that sector k's block acts on: for k <= L/2 the states with k up
    spins and an even (first list) or odd (second) number of them on odd
    sites, from which `_sector_svds` builds B; for k > L/2 the spin flip
    2^L - 1 - s of sector L - k's pair, so that sector reuses that SVD.  pop[s]
    is the sector of basis index s, and half[s] (0 for the first list, 1 for
    the second) and slot[s] place it: s = blocks[pop[s]][half[s]][slot[s]].
    Every array is read-only, as each cache hit hands out the same ones.
    """
    pop = _popcounts(L)
    odd_sites = sum(1 << k for k in range(1, L, 2))
    parity = pop[np.arange(1 << L) & odd_sites] & 1
    low = [(np.flatnonzero((pop == m) & (parity == 0)),
            np.flatnonzero((pop == m) & (parity == 1))) for m in range(L // 2 + 1)]
    top = (1 << L) - 1
    # the middle sector of even L is its own flip image and stays unflipped
    blocks = tuple(low + [(top - e, top - o) for e, o in reversed(low[:(L + 1) // 2])])
    half = np.empty(1 << L, dtype=np.intp)
    slot = np.empty(1 << L, dtype=np.intp)
    for pair in blocks:
        for h, rows in enumerate(pair):
            half[rows] = h
            slot[rows] = np.arange(len(rows))
    for a in (pop, half, slot, *(a for pair in blocks for a in pair)):
        a.setflags(write=False)
    return blocks, pop, half, slot


# Chains whose sector decompositions `_sector_svds` keeps.  An entry is
# nearly all U and W: about 1.4 MB for an L = 11 chain and 7 MB at the
# L = 12 cap, so the cache holds at most about 28 MB.
_SVD_CACHE_CHAINS = 4


@functools.lru_cache(maxsize=_SVD_CACHE_CHAINS)
def _sector_svds(bond_bytes: bytes) -> tuple:
    """Per-sector decomposition of the XX chain whose float64 bonds are
    `bond_bytes`: for each sector m <= L/2 the tuple (U, S, Wt), the thin
    SVD of the chiral block B between the even- and odd-parity states with
    m up spins (the basis-index lists of `_sector_layout`).

    It depends on the bonds only, not on t or the states, so it is cached,
    keyed on the exact bytes (which also carry the chain length); every
    array is read-only because each cache hit hands out the same ones.
    """
    bonds = np.frombuffer(bond_bytes)
    L = len(bonds) + 1
    sectors = []
    for even, odd in _sector_layout(L)[0][:L // 2 + 1]:
        U, S, Wt = np.linalg.svd(_chiral_block(bonds, even, odd), full_matrices=False)
        for a in (U, S, Wt):
            a.setflags(write=False)
        sectors.append((U, S, Wt))
    return tuple(sectors)


def _evolve_basis(bonds: np.ndarray, starts, t: float, rows=None) -> np.ndarray:
    """exp(-iHt) applied to the basis states `starts`, H the XX chain of
    `bonds`, without forming H: column j holds <s|exp(-iHt)|starts[j]> in
    row rows[s] (row s if rows is None).

    Every hop moves one up spin between an odd and an even site, so it flips
    the parity of the number of up spins on odd sites: in each sector H is
    the chiral block [[0, B], [B^T, 0]] between the even- and odd-parity
    states.  With the thin SVD B = U S W^T, exp(-iHt) sends the even-half
    basis state e_i to

        e_i + U (cos St - 1) U[i]^T  on the even half,
        -i W sin St U[i]^T           on the odd half,

    and an odd-half basis state the same way with U and W exchanged; cos St - 1
    is taken as -2 sin^2(St/2) so that small St loses no digits.  U and W are
    real, so the first block is real and the second imaginary, and the
    input-side product is a row pick.  Each basis state lies in one sector
    and one half, so each sector's two GEMMs run only on the columns that
    start there, and write straight into their rows of the output.  The
    global spin flip s -> 2^L - 1 - s leaves H unchanged and maps sector m
    onto sector L - m, which reuses U, S, W on the flipped rows
    (`_sector_layout`).  The SVDs come from `_sector_svds`, computed once per
    chain and cached by the bonds' bytes; only they are independent of the
    input, and a call on a chain seen before costs, per sector its starts
    occupy, one sin/cos of S t and the GEMMs of the halves they start in.
    """
    bonds = np.asarray(bonds, dtype=float)
    L = len(bonds) + 1
    blocks, pop, half, slot = _sector_layout(L)
    svds = _sector_svds(bonds.tobytes())
    starts = np.asarray(starts, dtype=np.intp)
    rows = np.arange(1 << L) if rows is None else np.asarray(rows)
    out = np.zeros((1 << L, len(starts)), dtype=complex)
    block = 2 * pop[starts] + half[starts]
    for b in np.unique(block):
        cols = np.flatnonzero(block == b)
        k, h = divmod(int(b), 2)
        U, S, Wt = svds[min(k, L - k)]
        same, other = (U, Wt.T) if h == 0 else (Wt.T, U)
        picked = same[slot[starts[cols]]].T  # U[i]^T (W[i]^T) for each column
        if h == 0 or b - 1 not in block:  # else set by the even half, block b - 1
            cos1, sin = (-2.0 * np.sin(S * t / 2) ** 2)[:, None], np.sin(S * t)[:, None]
        out.real[rows[blocks[k][h]][:, None], cols] = same @ (cos1 * picked)
        out.imag[rows[blocks[k][1 - h]][:, None], cols] = other @ (-sin * picked)
    out.real[rows[starts], np.arange(len(starts))] += 1.0
    return out


def _chiral_block(bonds: np.ndarray, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """B[i, j] = <even[i]| H |odd[j]> for H = sum_b bonds[b] (s+_b s-_{b+1} + h.c.)."""
    row = np.zeros(1 << (len(bonds) + 1), dtype=int)
    row[even] = np.arange(len(even))
    B = np.zeros((len(even), len(odd)))
    for b, g in enumerate(bonds):
        hop = np.flatnonzero(((odd >> b) ^ (odd >> (b + 1))) & 1)
        B[row[odd[hop] ^ (3 << b)], hop] = g
    return B


def jw_phase_prediction(s: int, n: int) -> int:
    """Sign picked up when the effective evolution at tau sends basis state s
    of the 2n+1 sites to its mirror image, the bit reversal of s:
    (-1)^(n Ne + Ne(Ne-1)/2), with Ne the number of up spins of s.

    The factor (-1)^(n Ne) is Gamma0, the (-1)^n mirror sign of each
    particle's mode; (-1)^(Ne(Ne-1)/2) is Gamma1*Gamma2, the sign of
    reversing the order of Ne fermionic creation operators (Albanese,
    Christandl, Datta & Ekert, PRL 93, 230502 (2004)).
    """
    if not (_is_int(s) and _is_int(n)):
        raise ValueError(f"s and n must be integers, got s = {s!r}, n = {n!r}")
    # s < 2^(2n + 1) by bit length, as a huge n would make that power a huge int
    if not (0 <= s and int(s).bit_length() <= 2 * n + 1):
        raise ValueError(f"basis index {s} out of range for n = {n}")
    ne = bin(s).count("1")
    return -1 if (n * ne + ne * (ne - 1) // 2) % 2 else 1


@dataclass(frozen=True)
class PhaseRow:
    state: int
    predicted: int
    measured: int
    deviation: float
    match: bool


def phase_table(n: int) -> list[PhaseRow]:
    """Brute-force check of jw_phase_prediction for every basis state.

    Evolves each basis state of the effective model (N = 3, g_I/g_C = 0.1)
    for tau and compares against predicted_sign * (its mirror image).
    """
    if _is_int(n) and n > 3:  # derive_parameters refuses any other n
        raise ValueError("phase table capped at n = 3 (128 basis states)")
    spec = derive_parameters(n=n, N=3, g_C=1.0, g_I=0.1)
    L = 2 * n + 1
    U = _evolve_basis(_coupling_for(spec, "effective").bonds, np.arange(1 << L), spec.tau)

    rows = []
    for s in range(1 << L):
        predicted = jw_phase_prediction(s, n)
        col = U[:, s]
        s_swap = int(f"{s:0{L}b}"[::-1], 2)
        measured = 1 if col[s_swap].real >= 0 else -1
        expected = np.zeros(1 << L, dtype=complex)
        expected[s_swap] = predicted
        dev = float(np.max(np.abs(col - expected)))
        rows.append(PhaseRow(state=s, predicted=predicted, measured=measured,
                             deviation=dev, match=dev <= SWAP_TOL))
    return rows


# ---------------------------------------------------------------------------
# state-vector plumbing

def _popcounts(L: int) -> np.ndarray:
    """Number of up spins of every basis index."""
    s = np.arange(1 << L)
    return sum((s >> k) & 1 for k in range(L))


_PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _encoding_pairs(encoding):
    """Normalize an encoding name to its ((b0), (b1)) register basis pair."""
    if encoding == "dfs":
        return ((0, 1), (1, 0))
    if encoding == "ndfs":
        return ((0, 0), (1, 1))
    pair = tuple(map(tuple, encoding))
    if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(_PATTERNS):
        raise ValueError(f"encoding must be 'dfs', 'ndfs' or two distinct bit pairs, "
                         f"got {encoding!r}")
    return pair


def _codec(encoding):
    """(codes, decode) for the register encoding (b0, b1).

    One rule for every encoding: L2 is prepared in p = b0[1]; encoding sends
    the (L1, L2) pattern (x, p) to b_x and the other two patterns, in
    ascending order, onto the two patterns outside {b0, b1}, in ascending
    order; decoding is the inverse map on (R1, R2).  For "dfs" (p = 1) and
    "ndfs" (p = 0) this is exactly CNOT(L1 -> L2) and CNOT(R1 -> R2).
    "Ascending" is the tuple order of _PATTERNS.  Both maps act on two bits
    only: codes[x] is b_x as bits (0, 1) = (L1, L2) of the basis index, and
    decode[h] is the decoded pattern of the evolved pattern h, both read
    from bits (L - 1, L - 2) = (R1, R2) as R1 << 1 | R2, their _PATTERNS index.
    A descending pair is (b1, b0)'s codec, codes swapped, R1 flipped (X at both ends).
    """
    b0, b1 = _encoding_pairs(encoding)
    if b0 > b1:
        codes, decode = _codec((b1, b0))
        return codes[::-1], decode ^ 2
    p = b0[1]
    sources = [(0, p), (1, p)] + [a for a in _PATTERNS if a[1] != p]
    images = [b0, b1] + [a for a in _PATTERNS if a not in (b0, b1)]
    decode = np.empty(4, dtype=np.intp)
    decode[[_PATTERNS.index(b) for b in images]] = [_PATTERNS.index(a) for a in sources]
    return [b[0] | b[1] << 1 for b in (b0, b1)], decode


def _default_target(encoding) -> str:
    # codewords 2 particles apart arrive with a deterministic logical Z (see module doc)
    b0, b1 = _encoding_pairs(encoding)
    return "z" if abs(sum(b0) - sum(b1)) == 2 else "identity"


def _dephasing_phases(lams, t: float, sz) -> np.ndarray:
    """Collective dephasing factors exp(-i lam s_z t), one row per shot lam
    and one column per s_z value; a non-finite factor is an error."""
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * t * np.outer(lams, sz))
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"dephasing phase lambda * t * dz overflows at t = {t!r}: "
                         "sigma_lambda * t is beyond the float range")
    return phases


def _run_pipeline(bonds: np.ndarray, encoding, t: float, channel_states, lams):
    """Prepare, encode on L, evolve and decode on R the two logical basis
    branches of every channel state: column x * C + c starts from logical x,
    channel state channel_states[c] and the right register in vacuum.  By
    linearity these fix the output of every input.  The codec is a map on
    the four patterns of each end pair (`_codec`), so no 2^L permutation is
    formed: encoded, branch x is the basis state |b_x, c, vac>, which
    `_evolve_basis` evolves in its own sector only and writes straight to
    its decoded row, its index with the (R1, R2) bits decoded.  Returns the
    decoded amplitudes q[R1, rest, x, c] and dephase(v): per shot, sum_r
    exp(-i lam t dz_r) v[r] for v (rest, C), dz = s_z(R1 down) - s_z(R1 up)
    before decoding.  The two differ only in the pair's spins, so dz depends
    only on the decoded R2, the top bit of rest: v is summed per R2 value
    first, and no product is large enough for a BLAS thread, which stalls on
    a busy core."""
    L = len(bonds) + 1
    codes, decode = _codec(encoding)
    base = np.asarray(channel_states) << 2
    s = np.arange(1 << L)
    top = s >> (L - 2)
    rows = s ^ ((top ^ decode[top]) << (L - 2))
    # up spins of the evolved pair that decodes to (R1, R2), as pop[R1, R2]
    pop = np.array([0, 1, 1, 2])[np.argsort(decode)].reshape(2, 2)
    phases = _dephasing_phases(lams, t, 2 * (pop[0] - pop[1]))
    q = _evolve_basis(bonds, np.concatenate([base | b for b in codes]), t, rows)
    return (q.reshape(2, -1, 2, len(base)),
            lambda v: phases @ v.reshape(2, -1, v.shape[1]).sum(axis=1))


def _pipeline_chain(spec: ChainSpec, which: str, t: float) -> tuple[np.ndarray, int]:
    """The `which` chain's bonds and channel-site count for the encode/decode
    pipeline at time t, whose codec needs n = 2; t must be finite and real."""
    if spec.n != 2:
        raise ValueError("the encode/decode pipeline is defined for n = 2")
    if not (_is_real(t) and math.isfinite(t)):
        raise ValueError(f"the evolution time t must be finite, got t = {t!r}")
    omega = _coupling_for(spec, which)
    return omega.bonds, omega.order - 4


def _mean_fidelities(pipeline, target: str) -> np.ndarray:
    """Per-shot fidelity to the target T (Z for "z"), averaged over all inputs
    and channel states: with one Kraus term K_r[R1, x] = phase * q[R1, r, x]
    of the R1 channel per rest-of-chain state r, it is (2 + sum_r
    |tr(T^dag K_r)|^2) / 6 (Horodecki et al., PRA 60, 1888 (1999); Nielsen,
    Phys. Lett. A 303, 249 (2002))."""
    q, dephase = pipeline
    k00, k11 = q[0, :, 0], q[1, :, 1]
    sign = -1.0 if target == "z" else 1.0
    f = (2.0 + np.sum(np.abs(k00) ** 2 + np.abs(k11) ** 2, axis=0)
         + 2.0 * sign * np.real(dephase(k00 * np.conj(k11)))) / 6.0
    return f.mean(axis=1)


def average_fidelity_bruteforce(spec: ChainSpec, encoding, t: float,
                                channel_init="maximally-mixed",
                                deph: DephasingModel | None = None,
                                which: str = "full",
                                logical_target: str | None = None) -> float:
    """End-to-end average transfer fidelity, computed with no free-fermion
    shortcuts: encode on L, evolve the full many-body state of both logical
    basis branches, decode on R, reduce to the R1 qubit's Kraus terms, and
    average over inputs in closed form and over dephasing shots.

    encoding: "dfs", "ndfs", or a pair of two-bit tuples spanning a custom
    register subspace.  The channel starts either maximally mixed
    (enumerating every channel basis state exactly) or in the one basis
    state an integer channel_init names; the right register starts in
    vacuum.  t must be finite.  logical_target overrides the unitary the
    output is compared against ("identity" or "z"); by default the NDFS
    encoding is compared against its deterministic Z-corrected target.
    """
    bonds, n_channel = _pipeline_chain(spec, which, t)
    if channel_init == "maximally-mixed":
        channel_states = np.arange(1 << n_channel)
    elif _is_int(channel_init) and 0 <= channel_init < 1 << n_channel:
        channel_states = [int(channel_init)]
    else:
        raise ValueError("channel_init must be 'maximally-mixed' or an integer basis state "
                         f"in [0, {1 << n_channel}), got {channel_init!r}")

    target = logical_target or _default_target(encoding)
    if target not in ("identity", "z"):
        raise ValueError(f"unknown logical target {target!r}")

    lams = deph.draw() if deph is not None and deph.sigma_lambda > 0 else np.zeros(1)
    return float(np.mean(_mean_fidelities(
        _run_pipeline(bonds, encoding, t, channel_states, lams), target)))


@dataclass(frozen=True)
class DephasingProtectionReport:
    sigma_lambda: float
    t: float
    dfs_max_deviation: float
    dfs_passed: bool
    ndfs_measured_suppression: float
    ndfs_predicted_suppression: float
    ndfs_stderr: float
    ndfs_passed: bool
    per_shot_suppression: np.ndarray = field(repr=False, default=None)


def dephasing_protection_report(spec: ChainSpec, deph: DephasingModel, t: float,
                                which: str = "effective") -> DephasingProtectionReport:
    """DFS invariance and NDFS coherence suppression under collective dephasing.

    (a) DFS: the fidelity is evaluated per dephasing shot; the max deviation
    from the lambda = 0 value must be ~machine precision, since every branch
    of the encoded state carries the same total spin-z.

    (b) NDFS: the decoded coherence rho_01, relative to the undephased run,
    equals the per-shot factor exp(+4 i lambda t) exactly for the effective
    model at t = tau (|dn,dn> and |up,up> differ by 4 in s_z); those
    factors are `per_shot_suppression`.  For `ndfs_passed` their
    Monte-Carlo mean must lie within 3 standard errors plus a few float
    epsilons of the Gaussian characteristic value exp(-8 sigma^2 t^2).

    That prediction holds only at the transfer time (away from it the
    decoded coherence is not the |dn,dn>/|up,up> phase alone), so t must
    equal spec.tau to a relative 1e-9; any other t, or a non-finite one,
    raises ValueError, as does a model with fewer than 2 samples (no
    standard error) or a spec whose registers are not n = 2.
    """
    bonds, n_channel = _pipeline_chain(spec, which, t)
    if not abs(t - spec.tau) <= 1e-9 * spec.tau:
        raise ValueError(f"the NDFS prediction holds only at t = tau = {spec.tau!r}, got t = {t!r}")
    if deph.samples < 2:
        raise ValueError("the NDFS check needs samples >= 2 for a standard error, "
                         f"got {deph.samples}")
    lams = np.concatenate(([0.0], deph.draw()))  # row 0 is the undephased run
    channel_states = np.arange(1 << n_channel)

    f = _mean_fidelities(_run_pipeline(bonds, "dfs", t, channel_states, lams), "identity")
    dev = float(np.max(np.abs(f[1:] - f[0])))

    # NDFS coherence of the |+> input, whose output is (x = 0 + x = 1)/sqrt 2 by
    # linearity; the ratio to the undephased run drops that normalisation
    q, dephase = _run_pipeline(bonds, "ndfs", t, channel_states, lams)
    plus = q.sum(axis=2)
    coh = dephase(plus[0] * np.conj(plus[1])).mean(axis=1)
    shots = coh[1:] / coh[0]
    measured = float(np.mean(shots.real))
    stderr = float(np.std(shots.real, ddof=1) / np.sqrt(len(shots)))
    with np.errstate(over="ignore"):  # sigma^2 t^2 beyond the float range: predicted 0
        predicted = float(np.exp(-8.0 * np.square(deph.sigma_lambda) * np.square(t)))
    # Shot values near 1 are spaced eps/2 apart.  A spread below that spacing
    # rounds away and stderr reads ~0, yet the shot mean and the predicted
    # value still differ by a few roundings (up to 2.8 eps seen near
    # sigma * t = 2e-8), so 4 eps is allowed on top of 3 standard errors.
    tolerance = float(3.0 * stderr + 4.0 * np.finfo(float).eps)

    return DephasingProtectionReport(
        sigma_lambda=deph.sigma_lambda, t=t,
        dfs_max_deviation=dev, dfs_passed=dev <= DFS_TOL,
        ndfs_measured_suppression=measured,
        ndfs_predicted_suppression=predicted,
        ndfs_stderr=stderr,
        ndfs_passed=abs(measured - predicted) <= tolerance,
        per_shot_suppression=shots,
    )
