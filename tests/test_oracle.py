import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dfsqst import oracle
from dfsqst.model import (CouplingMatrix, derive_parameters,
                          build_full_coupling_matrix, build_effective_coupling_matrix)
from dfsqst.propagator import dense_register_elements, eigendecompose, propagator_at
from dfsqst.fidelity import f_dfs, f_ndfs, register_elements
from dfsqst.oracle import (MAX_SITES, DephasingModel,
                           jw_phase_prediction, phase_table,
                           average_fidelity_bruteforce, dephasing_protection_report,
                           REMAINING_SUBSPACES,
                           _evolve_basis, _sector_svds, _codec)
from dense_reference import (build_spin_hamiltonian, dense, evolve_state,
                             spin_hamiltonian_from_coupling, total_sites)


def single_bond(g):
    return CouplingMatrix(bonds=np.array([g]), n=1)


def total_sz_operator(L):
    s = np.arange(1 << L)
    pop = sum(((s >> k) & 1) for k in range(L))
    return np.diag(2 * pop - L).astype(float)


class TestSpinHamiltonian:
    def test_single_bond_spectrum(self):
        H = spin_hamiltonian_from_coupling(single_bond(0.4))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)),
                                   [-0.4, 0.0, 0.0, 0.4], atol=1e-14)

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 3), (1, 5)])
    def test_conserves_total_sz(self, n, N):
        spec = derive_parameters(n, N, 1.0, 0.3)
        H = build_spin_hamiltonian(spec, "full")
        Sz = total_sz_operator(total_sites(spec))
        assert np.max(np.abs(H @ Sz - Sz @ H)) <= 1e-12

    @pytest.mark.parametrize("which", ["full", "effective"])
    def test_single_excitation_block_equals_omega(self, which):
        # the Jordan-Wigner consistency check
        spec = derive_parameters(2, 3, 1.0, 0.2)
        H = build_spin_hamiltonian(spec, which)
        omega = (build_full_coupling_matrix(spec) if which == "full"
                 else build_effective_coupling_matrix(spec))
        L = omega.order
        idx = [1 << k for k in range(L)]
        block = H[np.ix_(idx, idx)]
        np.testing.assert_allclose(block, dense(omega), atol=1e-14)

    def test_size_cap(self):
        spec = derive_parameters(2, 11, 1.0, 0.1)  # 15 sites
        with pytest.raises(ValueError):
            build_spin_hamiltonian(spec, "full")
        assert MAX_SITES == 12


class TestEvolveState:
    def test_identity_cases(self):
        H = spin_hamiltonian_from_coupling(single_bond(0.7))
        psi = np.array([0, 1, 0, 0], dtype=complex)
        np.testing.assert_allclose(evolve_state(H, psi, 0.0), psi, atol=1e-14)
        np.testing.assert_allclose(evolve_state(np.zeros((4, 4)), psi, 3.7), psi, atol=1e-14)

    def test_batch_equals_per_column_calls(self):
        rng = np.random.default_rng(17)
        for L in (2, 5, 8):
            H = spin_hamiltonian_from_coupling(chain(rng.uniform(-1.5, 1.5, L - 1)))
            psi = rng.normal(size=(1 << L, 5)) + 1j * rng.normal(size=(1 << L, 5))
            psi /= np.linalg.norm(psi, axis=0)
            out = evolve_state(H, psi, 2.1)
            for j in range(5):
                np.testing.assert_allclose(out[:, j], evolve_state(H, psi[:, j], 2.1),
                                           rtol=0, atol=1e-14)

    def test_rabi_half_period_full_transfer(self):
        g = 0.9
        H = spin_hamiltonian_from_coupling(single_bond(g))
        psi = np.array([0, 1, 0, 0], dtype=complex)  # excitation on site a
        out = evolve_state(H, psi, np.pi / (2 * g))
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_sector_weights_conserved(self):
        rng = np.random.default_rng(23)
        spec = derive_parameters(1, 3, 1.0, 0.4)
        H = build_spin_hamiltonian(spec, "full")
        L = total_sites(spec)
        pop = np.array([bin(s).count("1") for s in range(1 << L)])
        for _ in range(5):
            psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
            psi /= np.linalg.norm(psi)
            out = evolve_state(H, psi, float(rng.uniform(0, 50)))
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            for m in range(L + 1):
                w_in = np.sum(np.abs(psi[pop == m]) ** 2)
                w_out = np.sum(np.abs(out[pop == m]) ** 2)
                assert w_out == pytest.approx(w_in, abs=1e-10)

    def test_single_excitation_evolution_matches_propagator(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = derive_parameters(int(rng.integers(1, 3)), 3, 1.0,
                                     float(rng.uniform(0.05, 1.0)))
            omega = build_full_coupling_matrix(spec)
            H = spin_hamiltonian_from_coupling(omega)
            t = float(rng.uniform(0, 2 * spec.tau))
            delta = propagator_at(eigendecompose(omega), t)
            L = omega.order
            for j in range(L):
                psi = np.zeros(1 << L, dtype=complex)
                psi[1 << j] = 1.0
                out = evolve_state(H, psi, t)
                amps = np.array([out[1 << i] for i in range(L)])
                assert np.max(np.abs(amps - delta[:, j])) <= 1e-9


def chain(offdiag):
    return CouplingMatrix(bonds=np.asarray(offdiag), n=1)


class TestSectorEvolve:
    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 10), t=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
    # even L: the middle sector is its own spin-flip image, so its slot
    # table and its rows must come from the same lists (a mismatch gave
    # errors of 1.0 there); every draw includes starts in that sector
    @example(L=2, t=1.3, seed=0)
    @example(L=4, t=7.9, seed=1)
    @example(L=10, t=2.6, seed=2)
    def test_matches_dense_evolve_state(self, L, t, seed):
        # signed disordered bonds with one negative and (L > 2) one zero
        # bond; starts drawn from the whole basis and from the middle
        # sector, in random order, some repeated, written to permuted rows
        rng = np.random.default_rng(seed)
        bonds = rng.uniform(0.1, 2.0, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        k = rng.permutation(L - 1)
        bonds[k[0]] = -abs(bonds[k[0]])
        if L > 2:
            bonds[k[1]] = 0.0
        ref = evolve_state(spin_hamiltonian_from_coupling(chain(bonds)), np.eye(1 << L), t)
        middle = np.flatnonzero(oracle._popcounts(L) == L // 2)
        starts = np.concatenate((rng.permutation(1 << L)[:12], rng.permutation(middle)[:8]))
        starts = rng.permutation(np.concatenate((starts, starts[:5])))
        rows = rng.permutation(1 << L)
        halves = [(rows[e], rows[o]) for e, o in oracle._sector_layout(L)[0]]
        out = _evolve_basis(bonds, starts, t, halves=halves)
        np.testing.assert_allclose(out[rows], ref[:, starts], rtol=0, atol=1e-12)

    def test_no_starts_give_no_columns(self):
        for L in (2, 5):
            out = _evolve_basis(np.ones(L - 1), np.array([], dtype=int), 1.0)
            assert out.shape == (1 << L, 0) and out.dtype == complex

    def test_decomposition_does_not_depend_on_the_input(self, monkeypatch):
        # the first call on a chain decomposes the chiral blocks of sectors
        # m <= L/2 whichever sectors its starts occupy, later calls on it at
        # any t decompose none, and another chain all of them again; at L = 9
        # (sites 1, 3, 5, 7 odd) sector m splits into even- and odd-parity
        # states as 1+0, 5+4, 16+20, 40+44, 66+60
        blocks = [(1, 0), (5, 4), (16, 20), (40, 44), (66, 60)]
        bonds = np.linspace(0.5, 1.5, 8)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        _sector_svds.cache_clear()
        for s, t in ((0, 1.0), (0b111, 2.5), ((1 << 9) - 1, 0.3)):
            _evolve_basis(bonds, [s], t)
        assert shapes == blocks
        _evolve_basis(2.0 * bonds, [0], 1.0)
        assert shapes == blocks * 2

    def test_cache_hit_is_bitwise_a_cold_call(self):
        rng = np.random.default_rng(5)
        bonds = rng.uniform(-2.0, 2.0, 9)
        starts = rng.integers(0, 1 << 10, 6)
        _sector_svds.cache_clear()
        _evolve_basis(bonds, starts, 0.4)
        hit = _evolve_basis(bonds, starts, 1.7)
        assert _sector_svds.cache_info().hits == 1
        _sector_svds.cache_clear()
        np.testing.assert_array_equal(hit, _evolve_basis(bonds, starts, 1.7))

    def test_cached_arrays_are_read_only(self):
        for sector in _sector_svds(np.linspace(0.5, 1.5, 6).tobytes()):
            for a in sector:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(3, 11), t=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 32 - 1),
           permuted=st.booleans())
    def test_grouped_starts_are_their_runs_alone(self, L, t, seed, permuted):
        # repeated starts in random order, grouped into runs by one sort:
        # each column must be bit for bit its column in a call on its run
        # alone (the starts with its number of up spins and parity of up
        # spins on odd sites, in call order), so every run's GEMM has the
        # same columns in the same order.  A GEMM column's bits depend on
        # how many columns it has and where it sits (OpenBLAS), so against
        # the sorted unique starts the columns agree to rounding only.
        rng = np.random.default_rng(seed)
        bonds = rng.uniform(0.1, 2.0, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        starts = rng.integers(0, 1 << L, rng.integers(1, 25))
        starts = rng.permutation(np.concatenate((starts, starts[:rng.integers(0, 6)])))
        rows = rng.permutation(1 << L)
        halves = [(rows[e], rows[o]) for e, o in oracle._sector_layout(L)[0]] if permuted else None
        out = _evolve_basis(bonds, starts, t, halves=halves)
        pop = oracle._popcounts(L)
        key = 2 * pop[starts] + (pop[starts & sum(1 << k for k in range(1, L, 2))] & 1)
        for k in np.unique(key):
            cols = np.flatnonzero(key == k)
            alone = _evolve_basis(bonds, starts[cols], t, halves=halves)
            np.testing.assert_array_equal(out[:, cols], alone)
        unique, where = np.unique(starts, return_inverse=True)
        np.testing.assert_allclose(out, _evolve_basis(bonds, unique, t, halves=halves)[:, where],
                                   rtol=0, atol=1e-14)
        # the per-L and per-encoding tables: read-only, and each pipeline
        # table equal to the rows and dz built from `_codec` directly
        blocks, block, slot = oracle._sector_layout(L)
        pairs = [oracle._encoding_pairs(e) for e in ("dfs", "ndfs", *REMAINING_SUBSPACES)]
        tables = {pair: oracle._pipeline_table(L, pair)
                  for pair in pairs + [pair[::-1] for pair in pairs]}
        arrays = [block, slot, *(a for pair in blocks for a in pair)]
        for pair, (codes, halves, dz) in tables.items():
            codes_ref, decode = _codec(pair)
            s = np.arange(1 << L)
            top = s >> (L - 2)
            rows_ref = s ^ ((top ^ decode[top]) << (L - 2))
            pop = np.array([0, 1, 1, 2])[np.argsort(decode)].reshape(2, 2)
            assert codes == tuple(codes_ref) and all(type(c) is int for c in codes)
            np.testing.assert_array_equal(dz, 2 * (pop[0] - pop[1]))
            for (even, odd), got in zip(blocks, halves):
                np.testing.assert_array_equal(got[0], rows_ref[even])
                np.testing.assert_array_equal(got[1], rows_ref[odd])
            arrays += [dz, *(a for h in halves for a in h)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_cache_separates_bond_signs_and_lengths(self):
        # a bond's sign changes the amplitudes' signs, not the spectrum, and
        # a shorter chain shares a prefix of the bonds; each must get its
        # own decomposition, checked against the dense reference
        rng = np.random.default_rng(8)
        bonds = rng.uniform(0.3, 1.5, 6)
        flipped = bonds.copy()
        flipped[2] *= -1.0
        _sector_svds.cache_clear()
        for b in (bonds, flipped, bonds[:-1]):
            L = len(b) + 1
            starts = rng.integers(0, 1 << L, 4)
            out = _evolve_basis(b, starts, 2.3)
            ref = evolve_state(spin_hamiltonian_from_coupling(chain(b)), np.eye(1 << L), 2.3)
            np.testing.assert_allclose(out, ref[:, starts], rtol=0, atol=1e-12)
        assert _sector_svds.cache_info().misses == 3

    @pytest.mark.parametrize("encoding", ["dfs", "ndfs"])
    def test_one_channel_state_runs_only_the_sectors_it_occupies(self, monkeypatch, encoding):
        # L = 11: logical 0 and 1 of channel state c start as |b_0, c, vac>
        # and |b_1, c, vac>; with every other sector's U, S and W taken away
        # the evolve must give the same columns, so it ran no GEMM there
        spec = derive_parameters(2, 7, 1.0, 0.2)
        bonds = build_full_coupling_matrix(spec).bonds
        L, c = len(bonds) + 1, 0b1011001
        codewords = {"dfs": (0b10, 0b01), "ndfs": (0b00, 0b11)}[encoding]
        occupied = {min(k, L - k) for k in (bin(c).count("1") + bin(w).count("1")
                                            for w in codewords)}
        assert len(occupied) == {"dfs": 1, "ndfs": 2}[encoding]
        lams = np.zeros(1)
        full, _ = oracle._run_pipeline(bonds, encoding, 0.7 * spec.tau, [c], lams)
        svds = _sector_svds(bonds.tobytes())
        kept = tuple(sec if m in occupied else (None, None, None)
                     for m, sec in enumerate(svds))
        monkeypatch.setattr(oracle, "_sector_svds", lambda key: kept)
        only, _ = oracle._run_pipeline(bonds, encoding, 0.7 * spec.tau, [c], lams)
        np.testing.assert_array_equal(only, full)

    def test_pipeline_builds_no_dense_hamiltonian(self):
        # the oracle entry points evolve through the sector blocks only: at
        # L = 11 one dense 2^L x 2^L float64 matrix is 8 * 4^L bytes (32 MB),
        # and each entry point, its SVDs included, peaks well below that
        # (1.8, 11.5 and 15.4 MB measured), whatever a dense H would be named
        spec = derive_parameters(2, 7, 1.0, 0.2)
        L = 11
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=10, seed=1)
        runs = (lambda: average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=0b1011001),
                lambda: average_fidelity_bruteforce(spec, "dfs", spec.tau, deph=deph),
                lambda: dephasing_protection_report(spec, deph, spec.tau, which="full"))
        results = []
        for run in runs:
            _sector_svds.cache_clear()
            tracemalloc.start()
            try:
                results.append(run())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 4 ** L
        assert results[0] > 0.9 and results[1] > 0.9 and results[2].dfs_passed
        assert all(r.match for r in phase_table(2))

    def test_size_cap_on_pipeline_entry_points(self):
        spec = derive_parameters(2, 9, 1.0, 0.1)  # 13 sites
        deph = DephasingModel(sigma_lambda=0.1, samples=5)
        with pytest.raises(ValueError, match="cap"):
            average_fidelity_bruteforce(spec, "dfs", spec.tau)
        with pytest.raises(ValueError, match="cap"):
            dephasing_protection_report(spec, deph, spec.tau, which="full")


# Six Pauli-axis states: exact 2-design average for qubit channels.
PAULI_AXIS_STATES = tuple(
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
)


def literal_codec(L, encoding):
    """(prep_bit, encode_perm, decode_perm) of the codec rule as basis
    permutations, one state at a time: (P psi)[s] = psi[perm[s]].

    L2 is prepared in p = b0[1]; encoding sends the (L1, L2) pattern (x, p)
    to b_x and the other two patterns onto the two outside {b0, b1}, both
    in tuple order; decoding is the inverse on (R1, R2) = bits (L-1, L-2).
    A descending pair (b0 after b1) is the codec of (b1, b0) with a NOT on
    L1 before encoding and a NOT on R1 after decoding.
    """
    b0, b1 = {"dfs": ((0, 1), (1, 0)), "ndfs": ((0, 0), (1, 1))}.get(encoding, encoding)
    if b0 > b1:
        p, enc, dec = literal_codec(L, (b1, b0))
        return p, enc ^ 1, dec[np.arange(1 << L) ^ 1 << (L - 1)]
    p = b0[1]
    patterns = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sources = [(0, p), (1, p)] + [a for a in patterns if a[1] != p]
    images = [b0, b1] + [a for a in patterns if a not in (b0, b1)]

    def perm(src_of, lo, hi):
        # state s, its (lo, hi) pair replaced by the pattern it takes its amplitude from
        out = []
        for s in range(1 << L):
            a_lo, a_hi = src_of[(s >> lo) & 1, (s >> hi) & 1]
            out.append(s & ~(1 << lo | 1 << hi) | a_lo << lo | a_hi << hi)
        return np.array(out)

    return (p, perm(dict(zip(images, sources)), 0, 1),
            perm(dict(zip(sources, images)), L - 1, L - 2))


def dense_average_fidelity(spec, encoding, t, deph=None, target="identity"):
    """The oracle pipeline as a per-state loop over the dense eigh of H."""
    H = build_spin_hamiltonian(spec, "full")
    L = len(H).bit_length() - 1
    w, V = np.linalg.eigh(H)
    prep, enc_perm, dec_perm = literal_codec(L, encoding)
    lams = deph.draw() if deph is not None else [0.0]
    sz = np.diag(total_sz_operator(L))
    zsign = np.array([1.0, -1.0]) if target == "z" else np.array([1.0, 1.0])
    total = 0.0
    for chi in PAULI_AXIS_STATES:
        for c in range(1 << (L - 4)):
            psi = np.zeros(1 << L, dtype=complex)
            psi[(c << 2) | (prep << 1)] = chi[0]
            psi[(c << 2) | (prep << 1) | 1] = chi[1]
            psi = V @ (np.exp(-1j * w * t) * (V.T @ psi[enc_perm]))
            rho = np.zeros((2, 2), dtype=complex)
            for lam in lams:
                m = (np.exp(-1j * lam * sz * t) * psi)[dec_perm].reshape(2, -1)
                rho += m @ m.conj().T
            tgt = zsign * chi
            total += float(np.real(tgt.conj() @ rho @ tgt)) / len(lams)
    return total / (6 << (L - 4))


@pytest.mark.parametrize("encoding,target", [("dfs", "identity"), ("ndfs", "z"),
                                             (REMAINING_SUBSPACES[2], "identity"),
                                             (REMAINING_SUBSPACES[1], "z")])
@pytest.mark.parametrize("dephased", [False, True])
def test_bruteforce_matches_dense_loop(encoding, target, dephased):
    spec = derive_parameters(2, 3, 1.0, 0.3)  # L = 7
    deph = DephasingModel(sigma_lambda=0.4 / spec.tau, samples=25, seed=3) if dephased else None
    for t in (0.41 * spec.tau, spec.tau, 1.63 * spec.tau):
        got = average_fidelity_bruteforce(spec, encoding, t, deph=deph,
                                          logical_target=target)
        assert got == pytest.approx(dense_average_fidelity(spec, encoding, t, deph, target),
                                    abs=1e-12)


def test_maximally_mixed_batch_is_two_branches_per_channel_state(monkeypatch):
    # L = 9: 2^5 channel basis states, each evolved as its x = 0 and x = 1
    # logical branch only, in one batch
    columns, evolve = [], oracle._evolve_basis
    monkeypatch.setattr(oracle, "_evolve_basis",
                        lambda b, starts, t, **kw: columns.append(len(starts))
                        or evolve(b, starts, t, **kw))
    spec = derive_parameters(2, 5, 1.0, 0.3)
    average_fidelity_bruteforce(spec, "dfs", spec.tau)
    assert columns == [2 << 5]


@pytest.mark.parametrize("encoding", ["dfs", "ndfs", *REMAINING_SUBSPACES])
def test_pipeline_dephase_equals_per_rest_state_phases(encoding):
    # q must equal the literal-permutation pipeline (encode gather, evolve,
    # decode gather), and dephase(v), which sums v per decoded R2 before
    # applying the phases, the literal (shots, rest) phase matrix times v;
    # the decoded rows and dz come from bits L-1 and L-2, so L = 5, 7, 9
    lams = np.array([0.0, 0.7, -1.3, 2.9])
    rng = np.random.default_rng(5)
    for N in (1, 3, 5):
        bonds = build_full_coupling_matrix(derive_parameters(2, N, 1.0, 0.3)).bonds
        L = len(bonds) + 1
        prep, enc, dec = literal_codec(L, encoding)
        channel = np.arange(1 << (L - 4))
        q, dephase = oracle._run_pipeline(bonds, encoding, 0.8, channel, lams)
        logical = [(channel << 2) | (prep << 1) | x for x in (0, 1)]
        starts = [np.flatnonzero(enc == u)[0] for u in np.concatenate(logical)]
        literal = _evolve_basis(bonds, starts, 0.8)[dec].reshape(q.shape)
        np.testing.assert_allclose(q, literal, rtol=0, atol=1e-13)
        sz = (2 * oracle._popcounts(L) - L)[dec].reshape(2, -1)
        v = rng.normal(size=(1 << (L - 1), 6)) + 1j * rng.normal(size=(1 << (L - 1), 6))
        expected = np.exp(-1j * 0.8 * np.outer(lams, sz[0] - sz[1])) @ v
        np.testing.assert_allclose(dephase(v), expected, rtol=0, atol=1e-13)


def literal_jw_sign(s, n):
    """Gamma0*Gamma1*Gamma2 of basis state s, summed as the paper's loops over
    the occupations n_L = (L1..Ln), n_kappa and n_R = (R1..Rn)."""
    bits = [(s >> k) & 1 for k in range(2 * n + 1)]
    nL, nk, nR = bits[:n], bits[n], bits[n + 1:][::-1]
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


class TestJwPhases:
    def test_vacuum_is_plus_one(self):
        assert jw_phase_prediction(0, 2) == 1

    def test_single_left_excitation_even_n(self):
        assert jw_phase_prediction(0b00001, 2) == 1

    def test_single_left_excitation_odd_n(self):
        assert jw_phase_prediction(0b001, 1) == -1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_equals_the_loops(self, n):
        # brute-force evolution reaches only n <= 3; the loops reach any n
        for s in range(1 << (2 * n + 1)):
            assert jw_phase_prediction(s, n) == literal_jw_sign(s, n), s

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_out_of_range_index(self, n):
        for s in (-1, 1 << (2 * n + 1)):
            with pytest.raises(ValueError, match="out of range"):
                jw_phase_prediction(s, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_check(self, n):
        rows = phase_table(n)
        assert len(rows) == 1 << (2 * n + 1)
        assert all(r.match for r in rows)
        assert max(r.deviation for r in rows) <= 1e-8

    def test_phase_table_rows(self):
        rows = phase_table(2)
        assert len(rows) == 32
        assert [r.state for r in rows] == list(range(32))
        vac = rows[0]
        assert vac.predicted == 1 and vac.measured == 1 and vac.match
        assert all(r.match for r in rows)


def literal_cnot(L, control, target):
    """CNOT(control -> target) as a basis permutation, one state at a time."""
    return np.array([s ^ (1 << target) if (s >> control) & 1 else s for s in range(1 << L)])


class TestCodec:
    @pytest.mark.parametrize("L", [5, 7, 11])
    @pytest.mark.parametrize("encoding,prep", [("dfs", 1), ("ndfs", 0)])
    def test_dfs_and_ndfs_are_the_literal_cnots(self, L, encoding, prep):
        p, enc, dec = literal_codec(L, encoding)
        assert p == prep
        np.testing.assert_array_equal(enc, literal_cnot(L, 0, 1))
        np.testing.assert_array_equal(dec, literal_cnot(L, L - 1, L - 2))

    @pytest.mark.parametrize("encoding,codewords", [
        ("dfs", ((0, 1), (1, 0))), ("ndfs", ((0, 0), (1, 1))),
        *((pair, pair) for pair in REMAINING_SUBSPACES)])
    def test_logical_states_encode_to_codewords_and_decode_back(self, encoding, codewords):
        # codewords (bit_1, bit_2) sit on (L1, L2) = bits (0, 1) after encoding
        # and on (R1, R2) = bits (L-1, L-2) before decoding, in the literal
        # permutations and in `_codec`'s two-bit tables
        L = 7
        p, enc, dec = literal_codec(L, encoding)
        codes, decode = _codec(encoding)
        assert codes == [c1 | c2 << 1 for c1, c2 in codewords]
        for h in range(4):
            # the evolved (R1, R2) pattern h lands, rest kept, on decoded decode[h]
            row = np.flatnonzero(dec == h << (L - 2) | 0b10101)[0]
            assert row == decode[h] << (L - 2) | 0b10101
        for perm in (enc, dec):
            np.testing.assert_array_equal(np.sort(perm), np.arange(1 << L))
        for x, (c1, c2) in enumerate(codewords):
            for rest in (0, 0b101, 0b111):
                psi = np.zeros(1 << L)
                psi[x | p << 1 | rest << 2] = 1.0
                assert np.flatnonzero(psi[enc]).tolist() == [c1 | c2 << 1 | rest << 2]
                psi = np.zeros(1 << L)
                psi[c1 << (L - 1) | c2 << (L - 2) | rest] = 1.0
                assert np.flatnonzero(psi[dec]).tolist() == [x << (L - 1) | p << (L - 2) | rest]

    @pytest.mark.parametrize("encoding", [np.array([[0, 1], [1, 0]]),
                                          ((np.int64(0), np.uint8(1)), [1, 0]),
                                          iter([(0, 1), iter((1, 0))])],
                             ids=["array", "numpy-ints", "iterators"])
    def test_bit_pairs_are_normalised_to_python_ints(self, encoding):
        # an array raised numpy's "truth value of an array is ambiguous";
        # any form of the DFS pair is the hashable tuple the tables are keyed on
        pair = oracle._encoding_pairs(encoding)
        assert pair == ((0, 1), (1, 0)) and all(type(b) is int for p in pair for b in p)
        hash(pair)

    @pytest.mark.parametrize("encoding", ["cnot", ((0, 1), (0, 1)), ((0, 2), (1, 1)),
                                          [[True, False], [0, 0]], ((0, 1), (np.True_, 0)),
                                          ((0.0, 1), (1, 0)), b"dfs", np.array(["dfs"])])
    def test_invalid_encoding_rejected(self, encoding):
        spec = derive_parameters(2, 1, 1.0, 0.2)
        with pytest.raises(ValueError, match="encoding"):
            average_fidelity_bruteforce(spec, encoding, spec.tau)


def dephase(psi, lam, t):
    """The pipeline's collective dephasing exp(-i lam s_z t) on one state."""
    L = len(psi).bit_length() - 1
    return oracle._dephasing_phases([lam], t, 2 * oracle._popcounts(L) - L)[0] * psi


class TestCnotAndDephasing:
    def test_dephasing_trivial_cases(self):
        psi = np.array([0.6, 0, 0, 0.8j], dtype=complex)
        np.testing.assert_array_equal(dephase(psi, 0.0, 1.7), psi)

    def test_single_sector_global_phase(self):
        # state supported on one total-sz sector only picks up a global phase
        psi = np.array([0, 0.6, 0.8, 0], dtype=complex)  # both one-up states
        out = dephase(psi, 0.3, 2.0)
        ratio = out[1] / psi[1]
        np.testing.assert_allclose(out, ratio * psi, atol=1e-14)
        assert abs(ratio) == pytest.approx(1.0, abs=1e-14)

    def test_two_site_relative_phase(self):
        lam, t = 0.21, 1.3
        psi = np.array([0.6, 0, 0, 0.8], dtype=complex)  # a|dn,dn> + b|up,up>
        out = dephase(psi, lam, t)
        rel = (out[3] / psi[3]) / (out[0] / psi[0])
        assert rel == pytest.approx(np.exp(-4j * lam * t), abs=1e-14)


class TestBruteForceFidelity:
    def test_effective_dfs_perfect_at_tau(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        f = average_fidelity_bruteforce(spec, "dfs", spec.tau, which="effective")
        assert f == pytest.approx(1.0, abs=1e-8)

    def test_half_at_t0(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        for enc in ("dfs", "ndfs"):
            f = average_fidelity_bruteforce(spec, enc, 0.0)
            assert f == pytest.approx(0.5, abs=1e-10)

    def test_codewords_two_particles_apart_are_scored_against_z(self):
        # the Z target used to be chosen for the string "ndfs" only: spelled
        # as bits, the NDFS pair scored 0.334 against the identity at tau
        spec = derive_parameters(2, 3, 1.0, 0.1)
        ndfs = average_fidelity_bruteforce(spec, "ndfs", spec.tau)
        assert ndfs > 0.99
        for pair in (((0, 0), (1, 1)), [[0, 0], [1, 1]], ((1, 1), (0, 0))):
            assert average_fidelity_bruteforce(spec, pair, spec.tau) == ndfs
        for pair, target in ((((1, 1), (0, 0)), "z"), (((1, 0), (0, 1)), "identity"),
                             *((p, "identity") for p in REMAINING_SUBSPACES)):
            assert (average_fidelity_bruteforce(spec, pair, spec.tau)
                    == average_fidelity_bruteforce(spec, pair, spec.tau, logical_target=target))

    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("dephased", [False, True])
    def test_fidelity_does_not_depend_on_which_codeword_is_logical_0(self, N, dephased):
        # relabelling the codewords used to move the value: at N = 3,
        # ((0, 0), (1, 1)) gave 0.99930 and ((1, 1), (0, 0)) 0.99862
        spec = derive_parameters(2, N, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=20, seed=3) if dephased else None
        for b0, b1 in itertools.permutations(oracle._PATTERNS, 2):
            for target in ("identity", "z"):
                assert (average_fidelity_bruteforce(spec, (b0, b1), spec.tau, deph=deph,
                                                    logical_target=target)
                        == average_fidelity_bruteforce(spec, (b1, b0), spec.tau, deph=deph,
                                                       logical_target=target))

    def test_requires_two_qubit_registers(self):
        spec = derive_parameters(1, 3, 1.0, 0.1)
        with pytest.raises(ValueError):
            average_fidelity_bruteforce(spec, "dfs", spec.tau)

    def test_matches_formulas_at_random_times(self):
        spec = derive_parameters(2, 3, 1.0, 0.25)
        omega = build_full_coupling_matrix(spec)
        rng = np.random.default_rng(13)
        for t in rng.uniform(0, 2 * spec.tau, 3):
            e = dense_register_elements(omega, float(t))
            assert abs(f_dfs(e) - average_fidelity_bruteforce(spec, "dfs", float(t))) <= 1e-8
            assert abs(f_ndfs(e) - average_fidelity_bruteforce(spec, "ndfs", float(t))) <= 1e-8

    def test_matches_formulas_at_eleven_sites(self):
        # the full N = 7 chain, L = 11 sites and 128 channel basis states:
        # the sweep engine against the oracle, as `verify` does at N = 3
        spec = derive_parameters(2, 7, 1.0, 0.3)
        omega = build_full_coupling_matrix(spec)
        for frac in (0.37, 1.0, 1.58):
            t = frac * spec.tau
            e = register_elements(omega, t)
            assert abs(f_dfs(e) - average_fidelity_bruteforce(spec, "dfs", t)) <= 1e-8
            assert abs(f_ndfs(e) - average_fidelity_bruteforce(spec, "ndfs", t)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), L=st.sampled_from([5, 7, 9, 11]))
    def test_engine_matches_the_oracle_on_random_signed_bonds(self, data, L):
        # every link random and of either sign, the register bonds too: no
        # mirror symmetry and no derived profile, as the engine accepts
        bonds = np.array(data.draw(st.lists(
            st.builds(lambda s, x: s * x, st.sampled_from([1.0, -1.0]), st.floats(0.05, 2.0)),
            min_size=L - 1, max_size=L - 1)))
        times = data.draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))
        e = register_elements(CouplingMatrix(bonds, 2), times)
        channel_states, no_field = np.arange(1 << (L - 4)), np.zeros(1)
        for encoding, formula in (("dfs", f_dfs), ("ndfs", f_ndfs)):
            target = oracle._default_target(encoding)
            expected = [np.mean(oracle._mean_fidelities(oracle._run_pipeline(
                bonds, encoding, t, channel_states, no_field), target)) for t in times]
            np.testing.assert_allclose(formula(e), expected, rtol=0, atol=1e-12)

    def test_explicit_channel_state(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        f = average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=0,
                                        which="effective")
        assert f == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError):
            average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=99,
                                        which="effective")

    @pytest.mark.parametrize("channel_init", [2.7, np.float64(2.0), True, "2", None])
    def test_non_integer_channel_state_rejected(self, channel_init):
        # 2.7 used to run as channel state 2 and True as state 1
        spec = derive_parameters(2, 3, 1.0, 0.1)
        with pytest.raises(ValueError, match="channel_init"):
            average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=channel_init)
        assert (average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=np.int64(2))
                == average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=2))

    def test_remaining_subspaces_degrade_under_dephasing(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=100, seed=7)
        f_d = average_fidelity_bruteforce(spec, "dfs", spec.tau, deph=deph)
        f_n = average_fidelity_bruteforce(spec, "ndfs", spec.tau, deph=deph)
        ref = min(f_d, f_n)
        for pair in REMAINING_SUBSPACES:
            best = max(average_fidelity_bruteforce(spec, pair, spec.tau, deph=deph,
                                                   logical_target=w)
                       for w in ("identity", "z"))
            assert best < ref


_EFFECTIVE = derive_parameters(2, 3, 1.0, 0.1)  # the chain `verify` dephases


class TestDephasingProtection:
    def test_zero_sigma_rejected_samples(self):
        with pytest.raises(ValueError):
            DephasingModel(sigma_lambda=0.1, samples=0)
        with pytest.raises(ValueError):
            DephasingModel(sigma_lambda=-0.1)

    @pytest.mark.parametrize("name,value", [("samples", 2.5), ("samples", True),
                                            ("seed", -1), ("seed", 1.0), ("seed", False)])
    def test_samples_and_seed_must_be_integers_in_range(self, name, value):
        # samples 2.5 or True constructed and then raised a TypeError on the
        # first draw(); seed -1 was accepted until draw()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DephasingModel(sigma_lambda=0.1, **{name: value})
        # numpy integers, as a seed drawn from a Generator, are integers
        assert len(DephasingModel(0.1, samples=np.int64(3), seed=np.int64(7)).draw()) == 3

    def test_sigma_must_be_a_real_number(self):
        # a string, None or a complex raised a TypeError from the range check,
        # and True constructed with sigma = True
        for sigma in ("0.1", None, 1 + 0j, True, np.True_):
            with pytest.raises(ValueError, match="sigma_lambda must be"):
                DephasingModel(sigma_lambda=sigma)
        for sigma in (0, np.int64(1), np.float32(0.1)):
            assert DephasingModel(sigma_lambda=sigma).sigma_lambda == sigma

    def test_report_needs_two_samples(self):
        # one shot has no standard error: ndfs_stderr and the 3-standard-error
        # tolerance behind ndfs_passed were nan
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=1)
        with pytest.raises(ValueError, match="samples >= 2"):
            dephasing_protection_report(spec, deph, spec.tau)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan passed the sigma < 0 check, and the brute-force fidelity then
        # ran undephased while the report called it an overflowing phase
        with pytest.raises(ValueError, match="sigma_lambda must be finite"):
            DephasingModel(sigma_lambda=sigma)

    def test_dfs_invariance_and_ndfs_suppression(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=200, seed=42)
        rep = dephasing_protection_report(spec, deph, spec.tau)
        assert rep.dfs_passed
        assert rep.dfs_max_deviation <= 1e-10
        assert rep.ndfs_predicted_suppression == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert rep.ndfs_passed

    # the identity `verify` checks shot by shot, from sigma tau = 1e-10 up to
    # 1e7 and at sigma = 1e300, where lambda tau is near the float range
    @settings(max_examples=25, deadline=None)
    @given(sigma_tau=st.floats(-10, 7).map(lambda e: 10.0 ** e), seed=st.integers(0, 2 ** 32))
    @example(sigma_tau=1e300 * _EFFECTIVE.tau, seed=42)
    def test_ndfs_per_shot_factor_at_tau(self, sigma_tau, seed):
        spec = _EFFECTIVE
        deph = DephasingModel(sigma_lambda=sigma_tau / spec.tau, samples=20, seed=seed)
        rep = dephasing_protection_report(spec, deph, spec.tau)
        np.testing.assert_allclose(rep.per_shot_suppression,
                                   np.exp(4j * deph.draw() * spec.tau), rtol=0, atol=1e-12)

    def test_time_other_than_tau_rejected(self):
        # exp(-8 sigma^2 t^2) is the NDFS suppression at the transfer time
        # only: with 200 shots at 0.37 tau the measured value is 1.001
        # against a predicted 0.760, and at 0.5 tau 0.98 against 0.607
        spec = derive_parameters(2, 5, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=20, seed=42)
        for frac in (0.37, 0.5, 1.0 + 1e-8):
            with pytest.raises(ValueError, match="tau"):
                dephasing_protection_report(spec, deph, frac * spec.tau)
        # a tau computed along another route is accepted
        rep = dephasing_protection_report(spec, deph, spec.tau * (1.0 + 1e-12))
        assert rep.dfs_passed and rep.ndfs_passed

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, t):
        # NaN passed the t == tau guard, and without dephasing it was
        # reported as an overflowing dephasing phase
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=5, seed=1)
        with pytest.raises(ValueError, match="t must be finite"):
            average_fidelity_bruteforce(spec, "dfs", t)
        with pytest.raises(ValueError, match="t must be finite"):
            dephasing_protection_report(spec, deph, t)

    def test_sigma_zero_leaves_both_unaffected(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.0, samples=5, seed=1)
        rep = dephasing_protection_report(spec, deph, spec.tau)
        assert rep.dfs_max_deviation <= 1e-12
        assert rep.ndfs_measured_suppression == pytest.approx(1.0, abs=1e-12)


class TestDfsSwapIdentity:
    def test_single_up_register_states_swap_with_sign(self):
        # even n, one excitation per register: evolution for tau swaps the
        # register contents with the uniform sign (-1)^(M_up per register sum)
        n = 2
        spec = derive_parameters(n, 3, 1.0, 0.1)
        H = build_spin_hamiltonian(spec, "effective")
        L = 2 * n + 1
        for l_bit in range(n):
            for r_bit in range(n):
                for ck in (0, 1):
                    s = (1 << l_bit) | (ck << n) | (1 << (L - 1 - r_bit))
                    psi = np.zeros(1 << L, dtype=complex)
                    psi[s] = 1.0
                    out = evolve_state(H, psi, spec.tau)
                    s_swap = (1 << r_bit) | (ck << n) | (1 << (L - 1 - l_bit))
                    expect = np.zeros(1 << L, dtype=complex)
                    expect[s_swap] = 1.0  # M_up = 2 (+ channel), sign +1
                    sign = jw_phase_prediction(s, n)
                    assert np.max(np.abs(out - sign * expect)) <= 1e-8
