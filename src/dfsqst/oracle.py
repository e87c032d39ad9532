"""Exact many-body oracle for desk-scale chains.

Everything in this module works on the full 2^L-dimensional state vector
(L = total sites, hard cap 12) and makes no free-fermion assumption.  The
XX Hamiltonian conserves total spin-z, and each hop flips the parity of
the up spins on odd sites, so within a popcount sector it is a chiral
block [[0, B], [B^T, 0]].  The one evolve core (``_evolve_sectors``)
builds each rectangular B straight from the chain's bonds, takes its SVD
and evolves a whole batch of states with real GEMMs (sector L - m reuses
the SVD of sector m); it never forms the 2^L x 2^L matrix.
``spin_hamiltonian_from_coupling`` and ``evolve_state``, a full-matrix
eigendecomposition, are kept as the dense reference that the core is
tested against.  The oracle is used to validate, by brute force, what
the free-fermion engine claims:

* the single-excitation block of the many-body XX Hamiltonian equals the
  single-particle coupling matrix (Jordan-Wigner consistency),
* the effective evolution at tau is a register swap times the fermionic
  phase factors Gamma0*Gamma1*Gamma2 predicted per occupation pattern,
* the CNOT encode/transfer/decode pipeline reproduces the closed
  fidelity formulas for the DFS and non-DFS logical encodings,
* collective dephasing (a classical random scalar field coupled to the
  total spin-z projection) leaves the DFS pipeline exactly invariant
  while suppressing non-DFS coherences by the Gaussian factor
  exp(-8 sigma^2 t^2).

Basis convention: basis index s encodes site k (model ordering, L1 first,
R1 last) in bit k, bit 1 = spin up.  A spin product state is identified
with the fermionic occupation state whose creation operators are applied
in ascending site order; with that identification the spin and fermion
Hamiltonian matrices coincide for nearest-neighbor hopping.

One byproduct matters downstream: at t = tau the two branches of the
non-DFS encoding {|dn,dn>, |up,up>} acquire a relative phase of -1 that is
independent of the background occupations (their particle numbers differ
by 2, and the reordering signs work out the same for every background).
The transferred logical qubit therefore arrives with a deterministic
logical Z applied, and the fidelity pipeline measures against the
Z-corrected target for that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ChainSpec, CouplingMatrix, derive_parameters, \
    build_full_coupling_matrix, build_effective_coupling_matrix

__all__ = [
    "MAX_SITES",
    "OccupationPattern",
    "DephasingModel",
    "build_spin_hamiltonian",
    "evolve_state",
    "jw_phase_prediction",
    "effective_swap_check",
    "SwapCheckReport",
    "phase_table",
    "PhaseRow",
    "encode_cnot",
    "apply_collective_dephasing",
    "average_fidelity_bruteforce",
    "dephasing_protection_report",
    "DephasingProtectionReport",
    "PAULI_AXIS_STATES",
    "REMAINING_SUBSPACES",
]

MAX_SITES = 12

# Six Pauli-axis states: exact 2-design average for qubit channels.
PAULI_AXIS_STATES = tuple(
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
)

# The four two-dimensional register subspaces that are neither the DFS nor
# the NDFS pair; each entry is ((bit_1, bit_2) for logical 0 and 1), where
# bit_1/bit_2 are the first/second register qubit (up = 1).
REMAINING_SUBSPACES = (
    ((0, 0), (0, 1)),
    ((0, 0), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 1), (1, 0)),
)


@dataclass(frozen=True)
class OccupationPattern:
    """Occupations of the effective-model sites, u-indexed registers."""

    n_L: tuple[int, ...]   # (n_L1, ..., n_Ln)
    n_kappa: int
    n_R: tuple[int, ...]   # (n_R1, ..., n_Rn)

    @classmethod
    def from_basis_index(cls, s: int, n: int) -> "OccupationPattern":
        """Decode a 2n+1-site basis index (ordering L1..Ln, kappa, Rn..R1)."""
        bits = [(s >> k) & 1 for k in range(2 * n + 1)]
        return cls(n_L=tuple(bits[:n]), n_kappa=bits[n],
                   n_R=tuple(bits[n + 1:][::-1]))

    def basis_index(self) -> int:
        bits = list(self.n_L) + [self.n_kappa] + list(self.n_R[::-1])
        return sum(b << k for k, b in enumerate(bits))

    def swapped(self) -> "OccupationPattern":
        return OccupationPattern(n_L=self.n_R, n_kappa=self.n_kappa, n_R=self.n_L)


@dataclass(frozen=True)
class DephasingModel:
    """Classical collective dephasing field: lambda ~ N(0, sigma_lambda)."""

    sigma_lambda: float
    samples: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.sigma_lambda < 0:
            raise ValueError("sigma_lambda must be >= 0")
        if self.samples < 1:
            raise ValueError("need at least one dephasing sample")

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


def build_spin_hamiltonian(spec: ChainSpec, which: str = "full") -> np.ndarray:
    """Dense many-body XX Hamiltonian, H = sum_bonds g (s+ s- + s- s+)."""
    omega = _coupling_for(spec, which)
    return spin_hamiltonian_from_coupling(omega)


def spin_hamiltonian_from_coupling(omega: CouplingMatrix) -> np.ndarray:
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


def evolve_state(H: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi via full Hermitian eigendecomposition (dense reference)."""
    w, V = np.linalg.eigh(H)
    return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi))


def _evolve_sectors(bonds: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) applied to every column of psi, H the XX chain of `bonds`,
    one total-S_z sector at a time, without forming H.

    Every hop moves one up spin between an odd and an even site, so it flips
    the parity of the number of up spins on odd sites: in each sector H is
    the chiral block [[0, B], [B^T, 0]] between the even- and odd-parity
    states.  With the thin SVD B = U S W^T, exp(-iHt) sends (x_e, x_o) to

        x_e + U [(cos St - 1) U^T x_e - i sin St W^T x_o],
        x_o + W [(cos St - 1) W^T x_o - i sin St U^T x_e],

    with cos St - 1 taken as -2 sin^2(St/2) so that small St loses no digits.
    The global spin flip s -> 2^L - 1 - s leaves H unchanged and maps
    sector m onto sector L - m, so sector L - m reuses U, S, W on the
    flipped rows.  Every sector is evolved, touched or not, so a call costs
    the same whatever the input.  U and W are real, so each product is one
    real GEMM on the interleaved real and imaginary parts.
    """
    L = len(bonds) + 1
    pop = _popcounts(L)
    top = (1 << L) - 1
    odd_sites = sum(1 << k for k in range(1, L, 2))
    parity = pop[np.arange(1 << L) & odd_sites] & 1
    out = np.array(psi, dtype=complex)
    for m in range(L // 2 + 1):
        even = np.flatnonzero((pop == m) & (parity == 0))
        odd = np.flatnonzero((pop == m) & (parity == 1))
        U, S, Wt = np.linalg.svd(_chiral_block(bonds, even, odd), full_matrices=False)
        cos1 = (-2.0 * np.sin(S * t / 2) ** 2)[:, None]
        sin = np.sin(S * t)[:, None]
        # keyed by sector, so the self-flipped middle sector of even L runs once
        for e, o in {m: (even, odd), L - m: (top - even, top - odd)}.values():
            ue, wo = _real_gemm(U.T, out[e]), _real_gemm(Wt, out[o])
            out[e] += _real_gemm(U, cos1 * ue - 1j * sin * wo)
            out[o] += _real_gemm(Wt.T, cos1 * wo - 1j * sin * ue)
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


def _real_gemm(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for real A and C-contiguous complex x, as one real GEMM."""
    return (A @ x.view(float)).view(complex)


def jw_phase_prediction(p: OccupationPattern, n: int) -> int:
    """Sign Gamma0*Gamma1*Gamma2 picked up when the effective evolution at
    tau swaps the register occupations of pattern p.

    Gamma0 collects the (-1)^n single-mode mirror signs; Gamma1 and Gamma2
    come from reordering the fermionic creation operators after the swap.
    """
    if len(p.n_L) != n or len(p.n_R) != n:
        raise ValueError("pattern dimensions do not match n")
    nL, nk, nR = p.n_L, p.n_kappa, p.n_R

    g0 = n * nk + sum(n * (nL[v] + nR[v]) for v in range(n))
    g1 = 0
    g2 = 0
    for x in range(2, n + 2):
        for v in range(x, n + 1):
            g1 += nL[x - 2] * nL[v - 1]
            g2 += nR[x - 2] * nR[v - 1]
        for v in range(1, n + 1):
            g1 += nL[x - 2] * nR[v - 1]
        g1 += nL[x - 2] * nk
        g2 += nR[x - 2] * nk
    return -1 if (g0 + g1 + g2) % 2 else 1


@dataclass(frozen=True)
class PhaseRow:
    pattern: OccupationPattern
    predicted: int
    measured: int
    deviation: float
    match: bool


def phase_table(n: int, spec: ChainSpec | None = None, tol: float = 1e-8) -> list[PhaseRow]:
    """Brute-force check of jw_phase_prediction for every basis state.

    Evolves each occupation basis state of the effective model for tau and
    compares against predicted_sign * (register-swapped state).
    """
    if n > 3:
        raise ValueError("phase table capped at n = 3 (128 basis states)")
    if spec is None:
        spec = derive_parameters(n=n, N=3, g_C=1.0, g_I=0.1)
    L = 2 * n + 1
    U = _evolve_sectors(_coupling_for(spec, "effective").bonds, np.eye(1 << L), spec.tau)

    rows = []
    for s in range(1 << L):
        p = OccupationPattern.from_basis_index(s, n)
        predicted = jw_phase_prediction(p, n)
        col = U[:, s]
        s_swap = p.swapped().basis_index()
        measured = 1 if col[s_swap].real >= 0 else -1
        expected = np.zeros(1 << L, dtype=complex)
        expected[s_swap] = predicted
        dev = float(np.max(np.abs(col - expected)))
        rows.append(PhaseRow(pattern=p, predicted=predicted, measured=measured,
                             deviation=dev, match=dev <= tol))
    return rows


@dataclass(frozen=True)
class SwapCheckReport:
    n: int
    max_amplitude_error: float
    mismatched_states: tuple[int, ...]
    passed: bool


def effective_swap_check(n: int, spec: ChainSpec | None = None,
                         tol: float = 1e-8) -> SwapCheckReport:
    """Per-basis-state check that U_eff(tau) = Gamma * (SWAP_{L,R} x I_kappa)."""
    rows = phase_table(n, spec=spec, tol=tol)
    max_err = max(r.deviation for r in rows)
    bad = tuple(r.pattern.basis_index() for r in rows if not r.match)
    return SwapCheckReport(n=n, max_amplitude_error=max_err,
                           mismatched_states=bad, passed=not bad)


# ---------------------------------------------------------------------------
# state-vector plumbing

def _cnot_perm(L: int, control: int, target: int) -> np.ndarray:
    s = np.arange(1 << L)
    return np.where((s >> control) & 1, s ^ (1 << target), s)


def encode_cnot(psi: np.ndarray, control_site: int, target_site: int) -> np.ndarray:
    """CNOT as a basis permutation: flip target bit where control bit = 1."""
    if control_site == target_site:
        raise ValueError("control and target must be distinct sites")
    L = int(np.log2(len(psi)))
    return psi[_cnot_perm(L, control_site, target_site)]


def _popcounts(L: int) -> np.ndarray:
    """Number of up spins of every basis index."""
    s = np.arange(1 << L)
    return sum((s >> k) & 1 for k in range(L))


def _sz_values(L: int) -> np.ndarray:
    return 2 * _popcounts(L) - L


def apply_collective_dephasing(psi: np.ndarray, lam: float, t: float) -> np.ndarray:
    """Phase exp(-i lam s_z t) per basis state, s_z = total spin-z value."""
    L = int(np.log2(len(psi)))
    return np.exp(-1j * lam * _sz_values(L) * t) * psi


def _pair_perm(L: int, mapping: dict, lo_bit: int, hi_bit: int) -> np.ndarray:
    """Permutation acting on the two-qubit subsystem at (lo_bit, hi_bit).

    mapping: {(b_lo, b_hi): (b_lo', b_hi')} over all four configurations.
    Returns perm such that (P psi)[s] = psi[perm[s]]; valid because the
    permutations used here are involutions or applied via their inverse.
    """
    s = np.arange(1 << L)
    b_lo = (s >> lo_bit) & 1
    b_hi = (s >> hi_bit) & 1
    out = s & ~((1 << lo_bit) | (1 << hi_bit))
    src_lo = np.empty_like(s)
    src_hi = np.empty_like(s)
    # invert the mapping: to fill target state s we need the source config
    inv = {v: k for k, v in mapping.items()}
    for (tl, th), (sl, sh) in inv.items():
        sel = (b_lo == tl) & (b_hi == th)
        src_lo[sel] = sl
        src_hi[sel] = sh
    return out | (src_lo << lo_bit) | (src_hi << hi_bit)


def _encoding_pairs(encoding):
    """Normalize an encoding name to its ((b0), (b1)) register basis pair."""
    if encoding == "dfs":
        return ((0, 1), (1, 0))
    if encoding == "ndfs":
        return ((0, 0), (1, 1))
    b0, b1 = encoding
    return tuple(b0), tuple(b1)


def _codec_perms(L: int, encoding):
    """(prep_bit, encode_perm, decode_perm) for a register encoding.

    For "dfs" and "ndfs" this is the literal CNOT pipeline: prepare L2 in
    |up> (DFS) or |dn> (NDFS), encode with CNOT(L1 -> L2), decode with
    CNOT(R1 -> R2).  Custom subspace pairs use a basis permutation that
    maps {|dn,prep>, |up,prep>} onto the pair (and its inverse on R); the
    two conventions differ only in where leakage amplitudes land.
    """
    if encoding in ("dfs", "ndfs"):
        prep = 1 if encoding == "dfs" else 0
        return prep, _cnot_perm(L, 0, 1), _cnot_perm(L, L - 1, L - 2)
    b0, b1 = _encoding_pairs(encoding)
    rest = [p for p in ((0, 0), (1, 0), (0, 1), (1, 1)) if p not in (b0, b1)]
    enc_map = {(0, 0): b0, (1, 0): b1, (0, 1): rest[0], (1, 1): rest[1]}
    enc_perm = _pair_perm(L, enc_map, lo_bit=0, hi_bit=1)
    dec_perm = _pair_perm(L, {v: k for k, v in enc_map.items()},
                          lo_bit=L - 1, hi_bit=L - 2)
    return 0, enc_perm, dec_perm


def _default_target(encoding) -> str:
    # NDFS transfer arrives with a deterministic logical Z (see module doc).
    return "z" if encoding == "ndfs" else "identity"


def _run_pipeline(bonds: np.ndarray, encoding, t: float, channel_states, lams):
    """Prepare, encode on L, evolve, dephase and decode on R every
    (Pauli-axis input, channel basis state) run as one batch.

    Runs are input-major: run i * len(channel_states) + k starts from
    PAULI_AXIS_STATES[i] with channel state channel_states[k] and the right
    register in vacuum.  Returns the inputs (runs, 2), the R1 populations
    (2, runs) and the R1 coherence rho_01 (shots, runs).  The dephasing
    phase exp(-i lam s_z t) uses s_z before decoding, so populations do not
    depend on lam and each rest-of-chain term of rho_01 picks up
    exp(-i lam t dz), dz = s_z(R1-down branch) - s_z(R1-up branch).
    """
    L = len(bonds) + 1
    prep, enc_perm, dec_perm = _codec_perms(L, encoding)
    base = np.tile((np.asarray(channel_states) << 2) | (prep << 1), len(PAULI_AXIS_STATES))
    inputs = np.repeat(np.array(PAULI_AXIS_STATES), len(channel_states), axis=0)
    runs = np.arange(len(inputs))
    psi = np.zeros((1 << L, len(runs)), dtype=complex)
    psi[base, runs] = inputs[:, 0]
    psi[base | 1, runs] = inputs[:, 1]
    # R1 is the most significant bit of the decoded basis index
    sz = _sz_values(L)[dec_perm].reshape(2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * t * np.outer(lams, sz[0] - sz[1]))
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"dephasing phase lambda * t * dz overflows at t = {t!r}: "
                         "sigma_lambda * t is beyond the float range")
    q = _evolve_sectors(bonds, psi[enc_perm], t)[dec_perm].reshape(2, -1, len(runs))
    return inputs, np.sum(np.abs(q) ** 2, axis=1), phases @ (q[0] * np.conj(q[1]))


def _mean_fidelities(pipeline, target: str) -> np.ndarray:
    """Per-shot fidelity to each run's input (Z-corrected for target "z"),
    averaged over runs."""
    inputs, pops, coh = pipeline
    a0, a1 = inputs.T
    sign = -1.0 if target == "z" else 1.0
    f = (np.abs(a0) ** 2 * pops[0] + np.abs(a1) ** 2 * pops[1]
         + 2.0 * sign * np.real(np.conj(a0) * a1 * coh))
    return f.mean(axis=1)


def average_fidelity_bruteforce(spec: ChainSpec, encoding, t: float,
                                channel_init="maximally-mixed",
                                deph: DephasingModel | None = None,
                                which: str = "full",
                                logical_target: str | None = None) -> float:
    """End-to-end average transfer fidelity, computed with no free-fermion
    shortcuts: encode on L, evolve the full many-body state, average over
    dephasing shots, decode on R, reduce to the R1 qubit.

    encoding: "dfs", "ndfs", or a pair of two-bit tuples spanning a custom
    register subspace.  The channel starts either maximally mixed
    (enumerating every channel basis state exactly) or in one explicit
    basis state; the right register starts in vacuum.  logical_target
    overrides the unitary the output is compared against ("identity" or
    "z"); by default the NDFS encoding is compared against its deterministic
    Z-corrected target.
    """
    if spec.n != 2:
        raise ValueError("the encode/decode pipeline is defined for n = 2")
    omega = _coupling_for(spec, which)
    n_channel = omega.order - 4  # sites that are neither L nor R register
    if channel_init == "maximally-mixed":
        channel_states = np.arange(1 << n_channel)
    else:
        c = int(channel_init)
        if not 0 <= c < (1 << n_channel):
            raise ValueError(f"channel basis state {c} out of range")
        channel_states = [c]

    target = logical_target or _default_target(encoding)
    if target not in ("identity", "z"):
        raise ValueError(f"unknown logical target {target!r}")

    lams = deph.draw() if deph is not None and deph.sigma_lambda > 0 else np.zeros(1)
    return float(np.mean(_mean_fidelities(
        _run_pipeline(omega.bonds, encoding, t, channel_states, lams), target)))


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
                                which: str = "effective",
                                dfs_tol: float = 1e-10) -> DephasingProtectionReport:
    """DFS invariance and NDFS coherence suppression under collective dephasing.

    (a) DFS: the fidelity is evaluated per dephasing shot; the max deviation
    from the lambda = 0 value must be ~machine precision, since every branch
    of the encoded state carries the same total spin-z.

    (b) NDFS: the decoded coherence rho_01, relative to the undephased run,
    equals the per-shot factor exp(+4 i lambda t) exactly for the effective
    model at t = tau (|dn,dn> and |up,up> differ by 4 in s_z); its
    Monte-Carlo mean is compared against the Gaussian characteristic value
    exp(-8 sigma^2 t^2).

    That prediction holds only at the transfer time (away from it the
    decoded coherence is not the |dn,dn>/|up,up> phase alone), so t must
    equal spec.tau to a relative 1e-9; any other t raises ValueError.
    """
    if abs(t - spec.tau) > 1e-9 * spec.tau:
        raise ValueError(f"the NDFS prediction holds only at t = tau = {spec.tau!r}, got t = {t!r}")
    lams = np.concatenate(([0.0], deph.draw()))  # row 0 is the undephased run
    omega = _coupling_for(spec, which)
    channel_states = np.arange(1 << (omega.order - 4))

    f = _mean_fidelities(_run_pipeline(omega.bonds, "dfs", t, channel_states, lams), "identity")
    dev = float(np.max(np.abs(f[1:] - f[0])))

    # NDFS coherence: |+> input (PAULI_AXIS_STATES[2]), coherence ratio per shot
    plus = slice(2 * len(channel_states), 3 * len(channel_states))
    coh = _run_pipeline(omega.bonds, "ndfs", t, channel_states, lams)[2][:, plus].mean(axis=1)
    shots = coh[1:] / coh[0]
    measured = float(np.mean(shots.real))
    stderr = float(np.std(shots.real, ddof=1) / np.sqrt(len(shots)))
    with np.errstate(over="ignore"):  # sigma^2 t^2 beyond the float range: predicted 0
        predicted = float(np.exp(-8.0 * np.square(deph.sigma_lambda) * np.square(t)))
    ndfs_ok = abs(measured - predicted) <= 3.0 * stderr

    return DephasingProtectionReport(
        sigma_lambda=deph.sigma_lambda, t=t,
        dfs_max_deviation=dev, dfs_passed=dev <= dfs_tol,
        ndfs_measured_suppression=measured,
        ndfs_predicted_suppression=predicted,
        ndfs_stderr=stderr, ndfs_passed=ndfs_ok,
        per_shot_suppression=shots,
    )
