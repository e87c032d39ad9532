import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfsqst import oracle
from dfsqst.model import (CouplingMatrix, derive_parameters,
                          build_full_coupling_matrix, build_effective_coupling_matrix)
from dfsqst.propagator import eigendecompose, propagator_at
from dfsqst.fidelity import extract_register_elements, f_dfs, f_ndfs
from dfsqst.oracle import (MAX_SITES, OccupationPattern, DephasingModel,
                           build_spin_hamiltonian, spin_hamiltonian_from_coupling,
                           evolve_state, jw_phase_prediction, effective_swap_check,
                           phase_table, encode_cnot, apply_collective_dephasing,
                           average_fidelity_bruteforce, dephasing_protection_report,
                           REMAINING_SUBSPACES, PAULI_AXIS_STATES,
                           _evolve_sectors, _codec_perms)


def single_bond(g):
    return CouplingMatrix(bonds=np.array([g]), site_labels=("a", "b"))


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
        Sz = total_sz_operator(spec.total_sites)
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
        np.testing.assert_allclose(block, omega.dense(), atol=1e-14)

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
        L = spec.total_sites
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
            delta = propagator_at(eigendecompose(omega), t).entries
            L = omega.order
            for j in range(L):
                psi = np.zeros(1 << L, dtype=complex)
                psi[1 << j] = 1.0
                out = evolve_state(H, psi, t)
                amps = np.array([out[1 << i] for i in range(L)])
                assert np.max(np.abs(amps - delta[:, j])) <= 1e-9


def chain(offdiag):
    return CouplingMatrix(bonds=np.asarray(offdiag),
                          site_labels=tuple(map(str, range(len(offdiag) + 1))))


class TestSectorEvolve:
    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 10), t=st.floats(0.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_evolve_state(self, L, t, seed):
        # signed disordered bonds with one negative and (L > 2) one zero
        # bond; a batch whose columns span several sectors, with some
        # sectors left empty; odd and even L cover the flipped sectors and
        # the self-flipped middle sector
        rng = np.random.default_rng(seed)
        bonds = rng.uniform(0.1, 2.0, L - 1) * rng.choice([-1.0, 1.0], L - 1)
        k = rng.permutation(L - 1)
        bonds[k[0]] = -abs(bonds[k[0]])
        if L > 2:
            bonds[k[1]] = 0.0
        H = spin_hamiltonian_from_coupling(chain(bonds))
        pop = np.array([bin(s).count("1") for s in range(1 << L)])
        psi = rng.normal(size=(1 << L, 3)) + 1j * rng.normal(size=(1 << L, 3))
        psi[np.isin(pop, rng.choice(L + 1, size=L // 2, replace=False))] = 0.0
        psi /= np.linalg.norm(psi, axis=0)
        out = _evolve_sectors(bonds, psi, t)
        for j in range(psi.shape[1]):
            np.testing.assert_allclose(out[:, j], evolve_state(H, psi[:, j], t),
                                       rtol=0, atol=1e-12)

    def test_same_work_for_every_input(self, monkeypatch):
        # a call decomposes the chiral blocks of sectors m <= L/2 whichever
        # sectors the batch occupies, so its cost does not depend on the
        # input states; at L = 9 (sites 1, 3, 5, 7 odd) sector m splits into
        # even- and odd-parity states as 1+0, 5+4, 16+20, 40+44, 66+60
        bonds = np.linspace(0.5, 1.5, 8)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        for s in (0, 0b111, (1 << 9) - 1):
            psi = np.zeros((1 << 9, 1), dtype=complex)
            psi[s] = 1.0
            _evolve_sectors(bonds, psi, 1.0)
        assert shapes == [(1, 0), (5, 4), (16, 20), (40, 44), (66, 60)] * 3

    def test_pipeline_builds_no_dense_hamiltonian(self, monkeypatch):
        # the oracle entry points evolve through the sector blocks only
        def dense(omega):
            raise AssertionError("dense 2^L x 2^L Hamiltonian built")
        monkeypatch.setattr(oracle, "spin_hamiltonian_from_coupling", dense)
        spec = derive_parameters(2, 3, 1.0, 0.2)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=10, seed=1)
        assert average_fidelity_bruteforce(spec, "dfs", spec.tau, deph=deph) > 0.9
        assert dephasing_protection_report(spec, deph, spec.tau).dfs_passed
        assert all(r.match for r in phase_table(2))

    def test_size_cap_on_pipeline_entry_points(self):
        spec = derive_parameters(2, 9, 1.0, 0.1)  # 13 sites
        deph = DephasingModel(sigma_lambda=0.1, samples=5)
        with pytest.raises(ValueError, match="cap"):
            average_fidelity_bruteforce(spec, "dfs", spec.tau)
        with pytest.raises(ValueError, match="cap"):
            dephasing_protection_report(spec, deph, spec.tau, which="full")


def dense_average_fidelity(spec, encoding, t, deph=None, target="identity"):
    """The oracle pipeline as a per-state loop over the dense eigh of H."""
    H = build_spin_hamiltonian(spec, "full")
    L = len(H).bit_length() - 1
    w, V = np.linalg.eigh(H)
    prep, enc_perm, dec_perm = _codec_perms(L, encoding)
    lams = deph.draw() if deph is not None else [0.0]
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
                m = apply_collective_dephasing(psi, lam, t)[dec_perm].reshape(2, -1)
                rho += m @ m.conj().T
            tgt = zsign * chi
            total += float(np.real(tgt.conj() @ rho @ tgt)) / len(lams)
    return total / (6 << (L - 4))


@pytest.mark.parametrize("encoding,target", [("dfs", "identity"), ("ndfs", "z"),
                                             (REMAINING_SUBSPACES[2], "identity")])
@pytest.mark.parametrize("dephased", [False, True])
def test_bruteforce_matches_dense_loop(encoding, target, dephased):
    spec = derive_parameters(2, 3, 1.0, 0.3)  # L = 7
    deph = DephasingModel(sigma_lambda=0.4 / spec.tau, samples=25, seed=3) if dephased else None
    for t in (0.41 * spec.tau, spec.tau, 1.63 * spec.tau):
        got = average_fidelity_bruteforce(spec, encoding, t, deph=deph,
                                          logical_target=target)
        assert got == pytest.approx(dense_average_fidelity(spec, encoding, t, deph, target),
                                    abs=1e-12)


class TestJwPhases:
    def test_vacuum_is_plus_one(self):
        p = OccupationPattern(n_L=(0, 0), n_kappa=0, n_R=(0, 0))
        assert jw_phase_prediction(p, 2) == 1

    def test_single_left_excitation_even_n(self):
        p = OccupationPattern(n_L=(1, 0), n_kappa=0, n_R=(0, 0))
        assert jw_phase_prediction(p, 2) == 1

    def test_single_left_excitation_odd_n(self):
        p = OccupationPattern(n_L=(1,), n_kappa=0, n_R=(0,))
        assert jw_phase_prediction(p, 1) == -1

    def test_dimension_mismatch(self):
        p = OccupationPattern(n_L=(1, 0), n_kappa=0, n_R=(0, 0))
        with pytest.raises(ValueError):
            jw_phase_prediction(p, 3)

    def test_pattern_roundtrip(self):
        for n in (1, 2, 3):
            for s in range(1 << (2 * n + 1)):
                assert OccupationPattern.from_basis_index(s, n).basis_index() == s

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_swap_check(self, n):
        rep = effective_swap_check(n)
        assert rep.passed
        assert rep.max_amplitude_error <= 1e-8
        assert rep.mismatched_states == ()

    def test_phase_table_rows(self):
        rows = phase_table(2)
        assert len(rows) == 32
        vac = rows[0]
        assert vac.predicted == 1 and vac.measured == 1 and vac.match
        assert all(r.match for r in rows)


class TestCnotAndDephasing:
    def test_cnot_on_down_down(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        np.testing.assert_array_equal(encode_cnot(psi, 0, 1), psi)

    def test_cnot_encodes_product_state(self):
        b0, b1 = 0.6, 0.8
        psi = np.array([b0, b1, 0, 0], dtype=complex)  # (b0|dn>+b1|up>) x |dn>
        out = encode_cnot(psi, 0, 1)
        np.testing.assert_allclose(out, [b0, 0, 0, b1], atol=1e-15)

    def test_cnot_involution(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_array_equal(encode_cnot(encode_cnot(psi, 2, 0), 2, 0), psi)

    def test_cnot_rejects_equal_sites(self):
        with pytest.raises(ValueError):
            encode_cnot(np.ones(4, dtype=complex), 1, 1)

    def test_dephasing_trivial_cases(self):
        psi = np.array([0.6, 0, 0, 0.8j], dtype=complex)
        np.testing.assert_array_equal(apply_collective_dephasing(psi, 0.0, 1.7), psi)

    def test_single_sector_global_phase(self):
        # state supported on one total-sz sector only picks up a global phase
        psi = np.array([0, 0.6, 0.8, 0], dtype=complex)  # both one-up states
        out = apply_collective_dephasing(psi, 0.3, 2.0)
        ratio = out[1] / psi[1]
        np.testing.assert_allclose(out, ratio * psi, atol=1e-14)
        assert abs(ratio) == pytest.approx(1.0, abs=1e-14)

    def test_two_site_relative_phase(self):
        lam, t = 0.21, 1.3
        psi = np.array([0.6, 0, 0, 0.8], dtype=complex)  # a|dn,dn> + b|up,up>
        out = apply_collective_dephasing(psi, lam, t)
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

    def test_requires_two_qubit_registers(self):
        spec = derive_parameters(1, 3, 1.0, 0.1)
        with pytest.raises(ValueError):
            average_fidelity_bruteforce(spec, "dfs", spec.tau)

    def test_matches_formulas_at_random_times(self):
        spec = derive_parameters(2, 3, 1.0, 0.25)
        dec = eigendecompose(build_full_coupling_matrix(spec))
        rng = np.random.default_rng(13)
        for t in rng.uniform(0, 2 * spec.tau, 3):
            e = extract_register_elements(propagator_at(dec, float(t)))
            assert abs(f_dfs(e) - average_fidelity_bruteforce(spec, "dfs", float(t))) <= 1e-8
            assert abs(f_ndfs(e) - average_fidelity_bruteforce(spec, "ndfs", float(t))) <= 1e-8

    def test_explicit_channel_state(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        f = average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=0,
                                        which="effective")
        assert f == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError):
            average_fidelity_bruteforce(spec, "dfs", spec.tau, channel_init=99,
                                        which="effective")

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


class TestDephasingProtection:
    def test_zero_sigma_rejected_samples(self):
        with pytest.raises(ValueError):
            DephasingModel(sigma_lambda=0.1, samples=0)
        with pytest.raises(ValueError):
            DephasingModel(sigma_lambda=-0.1)

    def test_dfs_invariance_and_ndfs_suppression(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=200, seed=42)
        rep = dephasing_protection_report(spec, deph, spec.tau)
        assert rep.dfs_passed
        assert rep.dfs_max_deviation <= 1e-10
        assert rep.ndfs_predicted_suppression == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert rep.ndfs_passed

    def test_ndfs_per_shot_factor_at_tau(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=20, seed=42)
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
                    sign = jw_phase_prediction(
                        OccupationPattern.from_basis_index(s, n), n)
                    assert np.max(np.abs(out - sign * expect)) <= 1e-8
