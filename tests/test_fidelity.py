import cmath
import ctypes
import math
import os
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy
from scipy.linalg import LinAlgError, eigh_tridiagonal
from hypothesis import example, given, settings, strategies as st

from dfsqst import fidelity
from dfsqst.cli import _sweep_rows_text, main
from dfsqst.model import (CouplingMatrix, derive_parameters, build_full_bonds,
                          build_full_coupling_matrix, build_effective_coupling_matrix)
from dfsqst.propagator import closed_form_effective_elements, dense_register_elements
from dfsqst.fidelity import (RegisterElements, register_elements, f_dfs, f_ndfs,
                             sweep_fidelity, default_ratio_grid)

ELEMENT_NAMES = ("d_r1l1", "d_r2l2", "d_r1l2", "d_r2l1")


def elements(d11, d22, d12, d21):
    return RegisterElements(d_r1l1=d11, d_r2l2=d22, d_r1l2=d12, d_r2l1=d21)


def pauli_transfer_terms(e):
    """Pauli x/y/z transfer traces of the encode-evolve-decode channel: the
    second route to F_DFS = 1/2 + (t_x + t_y + t_z)/12."""
    t_x = 2.0 * np.real(e.d_r1l1 * np.conj(e.d_r2l2) + e.d_r1l2 * np.conj(e.d_r2l1))
    t_y = 2.0 * np.real(e.d_r1l1 * np.conj(e.d_r2l2) - e.d_r1l2 * np.conj(e.d_r2l1))
    t_z = 2.0 * (abs(e.d_r1l1) ** 2 - abs(e.d_r1l2) ** 2)
    return float(t_x), float(t_y), float(t_z)


class TestPauliTransferTerms:
    def test_perfect_transfer(self):
        assert pauli_transfer_terms(elements(1, 1, 0, 0)) == (2.0, 2.0, 2.0)

    def test_no_transfer(self):
        assert pauli_transfer_terms(elements(0, 0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_quarter_period_values(self):
        t_x, t_y, t_z = pauli_transfer_terms(elements(0.25, -0.5, 0.5j, 0.5j))
        assert t_x == pytest.approx(0.25, abs=1e-15)
        assert t_y == pytest.approx(-0.75, abs=1e-15)
        assert t_z == pytest.approx(-0.375, abs=1e-15)


def scalar_f_dfs(e):
    """F_DFS in numpy scalar arithmetic on one chain's complex elements: the
    reference the array formula must reproduce bit for bit."""
    return float(0.5 + (2.0 * np.real(np.conj(e.d_r1l1) * e.d_r2l2)
                        + abs(e.d_r1l1) ** 2 - abs(e.d_r1l2) ** 2) / 6.0)


def scalar_f_ndfs(e):
    """F_NDFS in numpy scalar arithmetic (see `scalar_f_dfs`)."""
    return float(0.5 + (2.0 * np.real(e.d_r1l1 * e.d_r2l2 - e.d_r1l2 * e.d_r2l1)
                        + abs(e.d_r1l1) ** 2 + abs(e.d_r1l2) ** 2) / 6.0)


# an element of magnitude 1e-300 to 1e3 at any phase, so that its real and
# imaginary parts are often alike and a product's last bit depends on how
# it is rounded; or parts from that range and the formulas' special values
element_parts = (st.builds(lambda sign, x: sign * 10.0 ** x, st.sampled_from([1.0, -1.0]),
                           st.floats(-300.0, 3.0))
                 | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
element_values = (st.builds(lambda x, phase: cmath.rect(10.0 ** x, phase),
                            st.floats(-300.0, 3.0), st.floats(0.0, 2 * math.pi))
                  | st.builds(complex, element_parts, element_parts))
element_rows = st.lists(element_values, min_size=4, max_size=4)


class TestFidelityFormulas:
    def test_dfs_perfect(self):
        assert f_dfs(elements(1, 1, 0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_dfs_identity_evolution(self):
        assert f_dfs(elements(0, 0, 0, 0)) == pytest.approx(0.5, abs=1e-15)

    def test_dfs_quarter_period(self):
        assert f_dfs(elements(0.25, -0.5, 0.5j, 0.5j)) == pytest.approx(41 / 96, abs=1e-15)

    def test_ndfs_perfect(self):
        assert f_ndfs(elements(1, 1, 0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_ndfs_identity_evolution(self):
        assert f_ndfs(elements(0, 0, 0, 0)) == pytest.approx(0.5, abs=1e-15)

    def test_ndfs_quarter_period(self):
        assert f_ndfs(elements(0.25, -0.5, 0.5j, 0.5j)) == pytest.approx(19 / 32, abs=1e-15)

    def test_dfs_two_route_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            e = elements(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            via_terms = 0.5 + sum(pauli_transfer_terms(e)) / 12.0
            assert abs(f_dfs(e) - via_terms) <= 1e-12

    @settings(deadline=None)
    @given(vals=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False),
                         min_size=4, max_size=4))
    def test_kappa_parity_sign_invariance(self, vals):
        # flipping the sign of every R-side element is the (-1)^(kappa-1)
        # convention ambiguity; both formulas must be exactly invariant
        e, flipped = elements(*vals), elements(*(-v for v in vals))
        assert f_dfs(e) == f_dfs(flipped)
        assert f_ndfs(e) == f_ndfs(flipped)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(element_rows, min_size=1, max_size=8))
    @example(rows=[[1e3 + 1e3j, 1e-300j, -1e3, 1e-300 - 1e-300j]])
    @example(rows=[[complex(math.inf, 0.0), 1.0, 0.0, 0.0], [complex(0.0, -0.0), 1.0, 1j, -1j]])
    def test_array_formulas_are_the_scalar_bits(self, rows):
        # over a stack the formulas run as array operations; each entry must
        # be the bits the scalar formula gives that chain's elements, and be
        # non-finite exactly where that is
        stack = np.array(rows, dtype=complex)
        with np.errstate(all="ignore"):
            fast = (f_dfs(RegisterElements(*stack.T)), f_ndfs(RegisterElements(*stack.T)))
            for i, row in enumerate(stack):
                e = RegisterElements(*row)  # numpy complex scalars
                for f, reference in zip(fast, (scalar_f_dfs(e), scalar_f_ndfs(e))):
                    assert math.isfinite(f[i]) == math.isfinite(reference)
                    if math.isfinite(reference):
                        assert float(f[i]).hex() == reference.hex()

    def test_array_formulas_are_the_scalar_bits_on_a_large_batch(self):
        # a last-bit difference in one square or product reaches the
        # fidelity only where the terms are alike in size, as a propagator's
        # are, and even then rarely: x * x in place of the scalar square
        # changed 8 of these 100000 rows, the array complex multiply 328
        rng = np.random.default_rng(3)
        stack = (10.0 ** rng.uniform(-2, 0, (100000, 4))
                 * np.exp(2j * np.pi * rng.random((100000, 4))))
        fast = (f_dfs(RegisterElements(*stack.T)), f_ndfs(RegisterElements(*stack.T)))
        for formula, scalar in zip(fast, (scalar_f_dfs, scalar_f_ndfs)):
            reference = [scalar(RegisterElements(*row)) for row in stack]
            assert formula.tolist() == reference

    def test_bounded_for_unitary_propagators(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            spec = derive_parameters(2, int(rng.choice([3, 5, 21])),
                                     1.0, float(rng.uniform(0.01, 1.0)))
            e = dense_register_elements(build_full_coupling_matrix(spec),
                                        float(rng.uniform(0, 3 * spec.tau)))
            for f in (f_dfs(e), f_ndfs(e)):
                assert -1e-9 <= f <= 1 + 1e-9


def scale_register_bonds(omega, left, right):
    """omega with its L1-L2 and R2-R1 bonds scaled."""
    bonds = omega.bonds.copy()
    bonds[0] *= left
    bonds[-1] *= right
    return CouplingMatrix(bonds=bonds, n=omega.n)


def spectrum(b):
    """`fidelity._spectra` of the one chain with bonds b."""
    return fidelity._spectra(b[None])[0]


def one_shot_register_elements(omega, t):
    """`register_elements` with the whole p x p gap matrix of the positive
    half-spectrum formed at once: the reference the row-blocked form must
    reproduce bit for bit.  It takes the same eigenvalues (`spectrum`),
    which `TestSpectrum` and the mpmath tests check on their own."""
    b = omega.bonds
    m = omega.order
    sig = spectrum(b)
    z = m - 2 * len(sig)
    with np.errstate(all="ignore"):
        total = np.add.outer(sig, sig)
        gaps = np.maximum(np.abs(np.subtract.outer(sig, sig)), np.finfo(float).eps * total)
        np.fill_diagonal(gaps, 1.0)
        np.fill_diagonal(total, 1.0)
        if (fidelity._TINY <= np.finfo(float).eps * (sig[0] + sig[1]) ** 2
                and 2.0 * sig[-1] <= fidelity._ROOT_MAX):
            log_gaps = np.log(gaps * total)
        else:
            log_gaps = np.log(gaps) + np.log(total)
        log_sig = np.log(sig)
        half = log_gaps.sum(axis=1) + np.log(2.0 * sig) + z * log_sig
        lam = np.concatenate([-sig[::-1], np.zeros(z), sig])
        log_chi = np.concatenate([half[::-1], np.full(z, 2.0 * log_sig.sum()), half])
        phases = np.exp(-1j * lam * t) * np.where((m - 1 - np.arange(m)) % 2, -1.0, 1.0)
        log_b, sign_b = np.log(np.abs(b)), np.sign(b)

        def element(first, stop, power):
            weights = np.exp(log_b[first:stop].sum() - log_chi) * lam ** power
            return np.prod(sign_b[first:stop]) * (weights @ phases)

        return RegisterElements(d_r1l1=element(0, m - 1, 0), d_r2l2=element(1, m - 2, 2),
                                d_r1l2=element(1, m - 1, 1), d_r2l1=element(0, m - 2, 1))


def mpmath_fidelities(omega, t, dps=30):
    """(F_DFS, F_NDFS) of the chain at time t, evaluated at `dps` digits:
    each float eigenvalue Newton-refined on the characteristic polynomial,
    then the residue sum `register_elements` uses, with chi'(lambda_k) taken
    from the three-term recurrence rather than from the eigenvalue gaps."""
    with mpmath.workdps(dps):
        b = [mpmath.mpf(float(x)) for x in omega.bonds]
        b2 = [x * x for x in b]
        m = omega.order

        def chi(x):
            # (chi, chi') of the leading blocks, grown site by site to all M
            p0, p1, d0, d1 = 1, x, 0, 1
            for bb in b2:
                p0, p1, d0, d1 = p1, x * p1 - bb * p0, d1, p1 + x * d1 - bb * d0
            return p1, d1

        lams, dchi = [], []
        for x in eigh_tridiagonal(np.zeros(m), omega.bonds, eigvals_only=True):
            lam = mpmath.mpf(float(x))
            for _ in range(3):
                p, d = chi(lam)
                lam -= p / d
            p, d = chi(lam)
            assert abs(p / d) <= mpmath.mpf(10) ** (3 - dps)
            lams.append(lam)
            dchi.append(d)
        # each float eigenvalue refined to its own root
        assert all(a < c for a, c in zip(lams, lams[1:]))
        w = [mpmath.expj(-lam * mpmath.mpf(float(t))) / d for lam, d in zip(lams, dchi)]

        def element(first, stop, power):
            return mpmath.fprod(b[first:stop]) * mpmath.fsum(
                wk * lam ** power for wk, lam in zip(w, lams))

        d11, d22 = element(0, m - 1, 0), element(1, m - 2, 2)
        d12, d21 = element(1, m - 1, 1), element(0, m - 2, 1)
        half = mpmath.mpf(1) / 2
        return (half + (2 * mpmath.re(mpmath.conj(d11) * d22) + abs(d11) ** 2
                        - abs(d12) ** 2) / 6,
                half + (2 * mpmath.re(d11 * d22 - d12 * d21) + abs(d11) ** 2
                        + abs(d12) ** 2) / 6)


def high_precision_fidelities(omega, t, dps=200):
    """(F_DFS, F_NDFS) of the chain at time t from mpmath's dense symmetric
    eigensolver at `dps` digits.  Unlike `mpmath_fidelities` it needs no
    float eigenvalue to start from, so it also holds where two modes agree
    to every bit: a pair closer than the working precision then only shares
    a phase that no t here can tell apart."""
    with mpmath.workdps(dps):
        m = omega.order
        h = mpmath.zeros(m)
        for i, x in enumerate(omega.bonds):
            h[i, i + 1] = h[i + 1, i] = mpmath.mpf(float(x))
        lams, vecs = mpmath.eigsy(h)
        phases = [mpmath.expj(-lam * mpmath.mpf(float(t))) for lam in lams]

        def element(i, j):
            return complex(mpmath.fsum(vecs[i, k] * vecs[j, k] * phases[k] for k in range(m)))

        e = RegisterElements(d_r1l1=element(m - 1, 0), d_r2l2=element(m - 2, 1),
                             d_r1l2=element(m - 1, 1), d_r2l1=element(m - 2, 0))
    return f_dfs(e), f_ndfs(e)


def assert_bit_identical(fast, reference):
    for name in ELEMENT_NAMES:
        assert getattr(fast, name) == getattr(reference, name), name
    assert f_dfs(fast) == f_dfs(reference)
    assert f_ndfs(fast) == f_ndfs(reference)


# relative factor on one intraregister bond, of either sign
bond_factors = st.floats(-2.0, 2.0).filter(lambda f: abs(f) >= 0.05)


class TestRegisterElements:
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([2, 3]),
           N=st.integers(0, 100).map(lambda k: 2 * k + 1),
           log_ratio=st.floats(-3.0, 0.0),
           t_frac=st.floats(0.0, 2.0),
           scale=st.none() | st.tuples(bond_factors, bond_factors))
    @example(n=2, N=1001, log_ratio=-3.0, t_frac=1.0, scale=None)
    @example(n=2, N=1001, log_ratio=-1.7, t_frac=0.37, scale=(-0.8, 1.3))
    @example(n=2, N=1001, log_ratio=0.0, t_frac=1.9, scale=(0.4, -1.7))
    def test_matches_dense_propagator(self, n, N, log_ratio, t_frac, scale):
        # the registers are found by position, so n = 3 chains give the
        # corner elements too
        spec = derive_parameters(n, N, 1.0, 10.0 ** log_ratio)
        omega = build_full_coupling_matrix(spec)
        if scale is not None:
            omega = scale_register_bonds(omega, *scale)
        t = t_frac * spec.tau
        fast, dense = register_elements(omega, t), dense_register_elements(omega, t)
        for name in ELEMENT_NAMES:
            assert abs(getattr(fast, name) - getattr(dense, name)) <= 1e-10, name
        assert abs(f_dfs(fast) - f_dfs(dense)) <= 1e-10
        assert abs(f_ndfs(fast) - f_ndfs(dense)) <= 1e-10

    def test_effective_chain_matches_closed_form(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        omega = build_effective_coupling_matrix(spec)
        for t in np.linspace(0.0, 2 * spec.tau, 50):
            e = register_elements(omega, t)
            c11, c22, c12 = closed_form_effective_elements(spec.g0, t)
            # the effective chain is mirror symmetric, so Delta_R2L1 = Delta_R1L2
            assert max(abs(e.d_r1l1 - c11), abs(e.d_r2l2 - c22),
                       abs(e.d_r1l2 - c12), abs(e.d_r2l1 - c12)) <= 1e-12

    @pytest.mark.parametrize("N", [None, 1, 3, 101, 1001], ids=lambda N: f"N={N or 'effective'}")
    @pytest.mark.parametrize("ratio", [1e-3, 0.37])
    @pytest.mark.parametrize("t_frac", [1.0, 0.29])
    def test_bit_identical_to_one_shot_gap_matrix(self, N, ratio, t_frac):
        # N = 1001 has M = 1005 rows, so 65 rows a block and a ragged last one
        spec = derive_parameters(2, N or 3, 1.0, ratio)
        omega = (build_effective_coupling_matrix(spec) if N is None
                 else build_full_coupling_matrix(spec))
        t = t_frac * spec.tau
        assert_bit_identical(register_elements(omega, t), one_shot_register_elements(omega, t))

    @pytest.mark.parametrize("cells", [1, 7, 16, 40])
    @pytest.mark.parametrize("N", [1, 3, 11])
    def test_any_block_height_is_bit_identical(self, monkeypatch, cells, N):
        # one-row blocks, ragged last blocks and one block of all M = N + 4 rows
        monkeypatch.setattr(fidelity, "_GAP_CELLS", cells)
        spec = derive_parameters(2, N, 1.0, 0.1)
        omega = build_full_coupling_matrix(spec)
        for t in (spec.tau, 0.29 * spec.tau):
            assert_bit_identical(register_elements(omega, t), one_shot_register_elements(omega, t))

    def test_scratch_memory_is_not_quadratic(self):
        # M = 2005: a whole gap matrix is 32 MB, and the one-shot form peaked at 61 MB
        spec = derive_parameters(2, 2001, 1.0, 0.1)
        omega = build_full_coupling_matrix(spec)
        tracemalloc.start()
        try:
            register_elements(omega, spec.tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("N", [11, 51, 101])
    @pytest.mark.parametrize("ratio", [1e-3, 0.03, 1.0])
    def test_fidelities_match_mpmath(self, N, ratio):
        # largest |dF| measured: 1.0e-14 (N = 101, ratio 0.03)
        spec = derive_parameters(2, N, 1.0, ratio)
        omega = build_full_coupling_matrix(spec)
        e = register_elements(omega, spec.tau)
        f_dfs_mp, f_ndfs_mp = mpmath_fidelities(omega, spec.tau)
        assert abs(f_dfs(e) - f_dfs_mp) <= 1e-13
        assert abs(f_ndfs(e) - f_ndfs_mp) <= 1e-13

    @pytest.mark.parametrize("N", [11, 21, 51, 101, 1001])
    def test_strong_coupling_matches_dense_propagator(self, N):
        # register modes of the two mirror blocks can agree to every bit here;
        # without the floor on their gap, some rows came out nan
        for ratio in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
            spec = derive_parameters(2, N, 1.0, ratio)
            omega = build_full_coupling_matrix(spec)
            fast = register_elements(omega, spec.tau)
            dense = dense_register_elements(omega, spec.tau)
            assert abs(f_dfs(fast) - f_dfs(dense)) <= 1e-10, ratio
            assert abs(f_ndfs(fast) - f_ndfs(dense)) <= 1e-10, ratio

    @pytest.mark.parametrize("N,ratio", [(3, 1e40), (5, 1e40), (11, 1e40), (3, 1e150),
                                         (5, 1e150), (11, 1e150), (5, 1e6), (11, 1e6),
                                         (5, 1e10), (11, 1e10)])
    def test_far_strong_coupling_matches_high_precision(self, N, ratio):
        # the register modes of the two mirror blocks agree to every bit
        # here, and the dsterf route gave nan at most of these points;
        # largest |dF| measured: 1.3e-14 (N = 5, ratio 1e150)
        spec = derive_parameters(2, N, 1.0, ratio)
        omega = build_full_coupling_matrix(spec)
        for t in (3.7, 37.0):
            e = register_elements(omega, t)
            reference = high_precision_fidelities(omega, t)
            assert abs(f_dfs(e) - reference[0]) <= 1e-12, t
            assert abs(f_ndfs(e) - reference[1]) <= 1e-12, t

    @pytest.mark.parametrize("N", [3, 101])
    @pytest.mark.parametrize("ratio", [1e-12, 1e-40, 1e-150, 1e-153])
    def test_very_weak_coupling_transfers_perfectly(self, N, ratio):
        # a floor of eps times the largest mode, not times the pair's sum,
        # swamps the register gaps here: it gave F = 0.5234 from ratio 1e-40.
        # From 1e-150 on the pair products would be subnormal, so each gap
        # is summed as two logs
        spec = derive_parameters(2, N, 1.0, ratio)
        e = register_elements(build_full_coupling_matrix(spec), spec.tau)
        assert abs(f_dfs(e) - 1.0) <= 1e-12
        assert abs(f_ndfs(e) - 1.0) <= 1e-12

    @pytest.mark.parametrize("N", [1, 3, 101, 1001])
    @pytest.mark.parametrize("ratio", [1e-3, 0.37, 3.0])
    def test_two_log_gap_sums_match_the_product_form(self, monkeypatch, N, ratio):
        # the form taken when a pair's product would leave the normal floats,
        # forced here at points where both forms hold
        spec = derive_parameters(2, N, 1.0, ratio)
        omega = build_full_coupling_matrix(spec)
        t = 0.71 * spec.tau
        product = register_elements(omega, t)
        monkeypatch.setattr(fidelity, "_TINY", np.inf)
        two_logs = register_elements(omega, t)
        for name in ELEMENT_NAMES:
            assert abs(getattr(two_logs, name) - getattr(product, name)) <= 1e-13, name
        assert_bit_identical(two_logs, one_shot_register_elements(omega, t))

    @settings(max_examples=60, deadline=None)
    @given(N=st.sampled_from([1, 3, 11, 101]),
           log_ratio=st.floats(-3.0, 0.0),
           log_scale=st.floats(-150.0, 150.0))
    @example(N=101, log_ratio=-3.0, log_scale=-150.0)
    @example(N=101, log_ratio=0.0, log_scale=150.0)
    def test_scale_covariance(self, N, log_ratio, log_scale):
        # exp(-i (s Omega)(t / s)) = exp(-i Omega t): the spectrum and the log
        # sums must neither overflow nor underflow over 300 decades of scale
        spec = derive_parameters(2, N, 1.0, 10.0 ** log_ratio)
        omega = build_full_coupling_matrix(spec)
        s = 10.0 ** log_scale
        scaled = CouplingMatrix(bonds=s * omega.bonds, n=omega.n)
        e, e_scaled = register_elements(omega, spec.tau), register_elements(scaled, spec.tau / s)
        assert abs(f_dfs(e_scaled) - f_dfs(e)) <= 1e-10
        assert abs(f_ndfs(e_scaled) - f_ndfs(e)) <= 1e-10

    def test_rejects_inputs_outside_the_formula(self):
        single = build_full_coupling_matrix(derive_parameters(1, 3, 1.0, 0.1))
        with pytest.raises(ValueError, match="L1, L2"):
            register_elements(single, 1.0)
        with pytest.raises(ValueError, match="L1, L2"):
            dense_register_elements(single, 1.0)
        omega = build_full_coupling_matrix(derive_parameters(2, 3, 1.0, 0.1))
        with pytest.raises(ValueError, match="nonzero"):
            register_elements(scale_register_bonds(omega, 0.0, 1.0), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                register_elements(scale_register_bonds(omega, bad, 1.0), 1.0)
            with pytest.raises(ValueError, match="finite"):
                register_elements(scale_register_bonds(omega, bad, bad), 1.0)


def record_dlasq1_orders(monkeypatch) -> list:
    """Patch the dqds binding to log the order of each bidiagonal it solves;
    returns the log."""
    orders = []
    dlasq1 = fidelity._dlasq1

    def recorded(n, d, e, work, info):
        orders.append(ctypes.c_int.from_address(n).value)
        dlasq1(n, d, e, work, info)

    monkeypatch.setattr(fidelity, "_dlasq1", recorded)
    return orders


signed_bonds = st.floats(-1e3, 1e3).filter(lambda b: abs(b) >= 1e-3)


@st.composite
def chain_bonds(draw):
    """Bonds of a chain of any order up to 121: a palindrome (odd order
    when it has an even number of bonds) or any bonds at all."""
    if draw(st.booleans()):
        half = draw(st.lists(signed_bonds, max_size=60))
        return np.array(half + draw(st.lists(signed_bonds, max_size=1)) + half[::-1])
    return np.array(draw(st.lists(signed_bonds, max_size=120)))


@st.composite
def stack_bonds(draw):
    """A stack of 1-8 chains of one order up to 41, each drawn as
    `chain_bonds` draws them (a palindrome or any bonds), or as a palindrome
    whose odd block is one too."""
    k = draw(st.integers(0, 40))
    c = k // 2
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["any", "mirror", "nested"] if k % 2 == 0 and c > 2
                                    else ["any", "mirror"]))
        if kind == "any":
            rows.append(draw(st.lists(signed_bonds, min_size=k, max_size=k)))
            continue
        if kind == "nested":
            # the odd block b[:c-1] is itself a palindrome
            inner = draw(st.lists(signed_bonds, min_size=(c - 1) // 2, max_size=(c - 1) // 2))
            half = inner + draw(st.lists(signed_bonds, min_size=(c - 1) % 2,
                                         max_size=(c - 1) % 2)) + inner[::-1]
            half.append(draw(signed_bonds))
        else:
            half = draw(st.lists(signed_bonds, min_size=c, max_size=c))
        rows.append(half + draw(st.lists(signed_bonds, min_size=k % 2, max_size=k % 2))
                    + half[::-1])
    return np.array(rows, dtype=float).reshape(len(rows), k)


class TestSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(bonds=chain_bonds())
    @example(bonds=build_effective_coupling_matrix(derive_parameters(2, 3, 1.0, 0.1)).bonds)
    @example(bonds=build_full_coupling_matrix(derive_parameters(2, 1001, 1.0, 1e-3)).bonds)
    @example(bonds=np.array([]))
    # mirror-symmetric chains of even order, and of odd order whose odd block
    # is one, with a mirror pair of modes 100 eps apart: dqds on the
    # persymmetric bidiagonal returned both as their mean, 2.2x and 1.5x the
    # bound off
    @example(bonds=np.array([102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0]))
    @example(bonds=np.array([102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0, 0.5,
                             0.5, 102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0]))
    def test_matches_full_order_eigh_tridiagonal(self, bonds):
        m = len(bonds) + 1
        reference = eigh_tridiagonal(np.zeros(m), bonds, eigvals_only=True) if m > 1 else [0.0]
        scale = np.abs(bonds).max(initial=0.0)
        np.testing.assert_allclose(spectrum(bonds), reference[m - m // 2:], rtol=0,
                                   atol=8 * np.sqrt(m) * np.finfo(float).eps * scale)

    @settings(max_examples=200, deadline=None)
    @given(b=stack_bonds())
    @example(b=np.array([[102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0, 0.5,
                          0.5, 102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0],
                         [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
                          8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
                         [1.0] * 16]))
    @example(b=np.array([[102.0, 1 / 64, 1.0, 1.0, 1.0, 1 / 64, 102.0], [1.0, 2, 3, 4, 5, 6, 7]]))
    @example(b=np.zeros((3, 0)))
    def test_stack_rows_are_the_one_row_bits(self, b):
        # mirror and other rows, nested mirrors and even orders mixed in one
        # stack: every row gets the bits it gets alone
        stacked = fidelity._spectra(b)
        assert stacked.shape == (len(b), (b.shape[1] + 1) // 2)
        for row, alone in zip(stacked, b):
            assert row.tobytes() == spectrum(alone.copy()).tobytes()

    def test_mirror_symmetric_chain_is_solved_in_two_halves(self, monkeypatch):
        orders = record_dlasq1_orders(monkeypatch)
        spec = derive_parameters(2, 1001, 1.0, 0.03)
        omega = build_full_coupling_matrix(spec)
        register_elements(omega, spec.tau)
        # bidiagonals of the order-503 even and order-502 odd blocks
        assert orders == [252, 251]
        orders.clear()
        register_elements(scale_register_bonds(omega, 1.0, 0.5), spec.tau)
        assert orders == [503]

    def test_lapack_failure_raises(self, monkeypatch):
        def failed(n, d, e, work, info):
            ctypes.c_int.from_address(info).value = 3

        monkeypatch.setattr(fidelity, "_dlasq1", failed)
        with pytest.raises(LinAlgError, match="info = 3"):
            spectrum(np.ones(4))

    def test_binding_checks_the_c_signature(self):
        # dsterf takes one array fewer than dlasq1; an ABI that spells the
        # routine differently must not be called
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} exports dsterf"):
            fidelity._lapack_routine("dsterf", fidelity._DLASQ1_SIGNATURE)
        with pytest.raises(ImportError, match="exports dlasq1"):
            fidelity._lapack_routine("dlasq1", "void (long *, d *, d *, d *, long *)")
        assert fidelity._lapack_routine("dlasq1", fidelity._DLASQ1_SIGNATURE)


@st.composite
def time_grid_chains(draw):
    """An n = 2 chain of each kind the engine solves its own way: the
    effective chain, a full chain, any signed bonds, or a mirror chain of
    even order (the dsterf route)."""
    kind = draw(st.sampled_from(["effective", "full", "signed", "even mirror"]))
    if kind in ("effective", "full"):
        spec = derive_parameters(2, draw(st.sampled_from([1, 3, 11, 101])), 1.0,
                                 10.0 ** draw(st.floats(-3.0, 1.0)))
        return (build_effective_coupling_matrix(spec) if kind == "effective"
                else build_full_coupling_matrix(spec))
    if kind == "signed":
        return CouplingMatrix(np.array(draw(st.lists(signed_bonds, min_size=3, max_size=30))), 2)
    half = draw(st.lists(signed_bonds, min_size=1, max_size=15))
    return CouplingMatrix(np.array(half + [draw(signed_bonds)] + half[::-1]), 2)


class TestTimeArrays:
    """`register_elements` on a sequence of times runs them as stacks of the
    one chain; each entry is the bits the scalar call gives."""

    @settings(max_examples=80, deadline=None)
    @given(omega=time_grid_chains(),
           times=st.lists(st.floats(-50.0, 50.0) | st.sampled_from([0.0, math.inf, math.nan]),
                          max_size=12),
           cells=st.sampled_from(["1", "7", "p^2", "3p^2 + 5", "default"]),
           container=st.sampled_from([list, tuple, np.array]))
    # 12 times in stacks of 3: four whole stacks; and the empty array
    @example(omega=build_full_coupling_matrix(derive_parameters(2, 3, 1.0, 0.1)),
             times=[0.1 * k for k in range(12)], cells="3p^2 + 5", container=np.array)
    @example(omega=build_full_coupling_matrix(derive_parameters(2, 3, 1.0, 0.1)),
             times=[], cells="default", container=np.array)
    def test_each_time_is_the_scalar_call(self, omega, times, cells, container):
        alone = [element_bits(register_elements(omega, t)) for t in times]
        with pytest.MonkeyPatch.context() as patch:
            if cells != "default":
                patch.setattr(fidelity, "_GAP_CELLS", gap_cells(cells, omega.order // 2))
            e = register_elements(omega, container(times))
        for name in ELEMENT_NAMES:
            assert getattr(e, name).shape == (len(times),)
        assert [element_bits(RegisterElements(*row)) for row in zip(*vars(e).values())] == alone

    def test_a_long_chain_runs_one_time_a_stack(self):
        # from N = 497 (501 sites, p = 250) a stack holds one chain
        spec = derive_parameters(2, 497, 1.0, 0.05)
        omega = build_full_coupling_matrix(spec)
        assert fidelity._stack_size(omega.order) == 1
        times = [0.3 * spec.tau, spec.tau, 1.7 * spec.tau]
        e = register_elements(omega, times)
        assert ([element_bits(RegisterElements(*row)) for row in zip(*vars(e).values())]
                == [element_bits(register_elements(omega, t)) for t in times])

    def test_a_scalar_time_gives_the_one_row_stack(self):
        omega = build_full_coupling_matrix(derive_parameters(2, 11, 1.0, 0.2))
        e = register_elements(omega, 1.3)
        row = fidelity._register_stack(omega.bonds[None], np.array([1.3]))[0]
        assert all(type(v) is np.complex128 for v in vars(e).values())
        assert element_bits(e) == element_bits(RegisterElements(*row))

    @pytest.mark.parametrize("t", [np.ones((2, 2)), [[1.0]], np.empty((0, 3)), [1.0, True],
                                   [1.0, "2.5"], [1.0, 10 ** 400], [1.0, None], np.array(1.0),
                                   "2.5", None],
                             ids=["2-D", "nested", "2-D empty", "bool entry", "string entry",
                                  "big int entry", "None entry", "0-d array", "string", "None"])
    def test_a_time_that_is_no_real_or_1d_sequence_is_refused(self, t):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        with pytest.raises(ValueError, match="the time t must be"):
            register_elements(build_full_coupling_matrix(spec), t)
        with pytest.raises(ValueError, match="g0 and t must be"):
            closed_form_effective_elements(spec.g0, t)

    def test_closed_form_on_an_array_is_the_scalar_calls(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        times = np.linspace(0.0, 2 * spec.tau, 50)
        arrays = closed_form_effective_elements(spec.g0, times)
        for k, t in enumerate(times):
            assert [a[k] for a in arrays] == list(closed_form_effective_elements(spec.g0, t))


# the shortest odd channel whose chain (N + 4 sites) reaches the pool gate
GATE_N = (fidelity._POOL_MIN_ORDER - 4) | 1


def record_stack_calls(monkeypatch) -> list:
    """Patch `_point_fidelities`, the sweep's task for one stack of points of
    a channel length, to log (thread, points in the stack) for each call;
    returns the log."""
    task = fidelity._point_fidelities
    calls = []

    def recorded(specs, *args):
        calls.append((threading.current_thread(), len(specs)))
        return task(specs, *args)

    monkeypatch.setattr(fidelity, "_point_fidelities", recorded)
    return calls


def point_threads(calls) -> list:
    """The thread of each point, in call order, from a `record_stack_calls` log."""
    return [thread for thread, points in calls for _ in range(points)]


def element_bits(e: RegisterElements) -> tuple:
    return tuple((complex(v).real.hex(), complex(v).imag.hex()) for v in vars(e).values())


class TestSweepPool:
    """A chain of `_POOL_MIN_ORDER` sites or more runs its ratios on pool
    threads when there are two or more ratios and usable CPUs; every other
    sweep runs in the calling thread, and both give the same rows."""

    def test_points_below_the_gate_run_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        calls = record_stack_calls(monkeypatch)
        rows = sweep_fidelity(2, [3, GATE_N - 2], [0.01, 0.1, 0.5]).rows
        assert len(rows) == 12
        assert point_threads(calls) == [threading.current_thread()] * 6

    def test_a_single_ratio_at_the_gate_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        calls = record_stack_calls(monkeypatch)
        sweep_fidelity(2, [GATE_N, 1001], [0.1])
        assert point_threads(calls) == [threading.current_thread()] * 2

    def test_one_cpu_runs_points_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 1)
        calls = record_stack_calls(monkeypatch)
        sweep_fidelity(2, [GATE_N], [0.01, 0.1, 0.5])
        assert point_threads(calls) == [threading.current_thread()] * 3

    def test_points_at_the_gate_run_on_pool_threads_in_grid_order(self, monkeypatch):
        ratios = [0.5, 0.01, 0.1]
        serial = sweep_fidelity(2, [GATE_N - 2, GATE_N], ratios).rows
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        calls = record_stack_calls(monkeypatch)
        rows = sweep_fidelity(2, [GATE_N - 2, GATE_N], ratios).rows
        threads = point_threads(calls)
        here = threading.current_thread()
        assert threads[:3] == [here] * 3
        # at most min(CPUs, ratios) = 2 workers, none of them the caller
        assert here not in threads[3:] and len(set(threads[3:])) <= 2
        assert [(r.N, r.ratio, r.encoding) for r in rows] == [
            (N, r, enc) for N in (GATE_N - 2, GATE_N) for r in (0.01, 0.1, 0.5)
            for enc in ("dfs", "ndfs")]
        assert rows == serial

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_the_affinity_mask_decides(self, monkeypatch):
        # under `taskset -c 0` this runs the one-CPU fallback on a real mask
        cpus = len(os.sched_getaffinity(0))
        assert fidelity._usable_cpus() == cpus
        calls = record_stack_calls(monkeypatch)
        sweep_fidelity(2, [GATE_N], [0.01, 0.1, 0.5])
        threads = point_threads(calls)
        here = threading.current_thread()
        if cpus == 1:
            assert threads == [here] * 3
        else:
            assert here not in threads and len(set(threads)) <= min(cpus, 3)

    @pytest.mark.parametrize("N", [1001, 10001])
    def test_pooled_output_is_byte_identical_to_serial(self, monkeypatch, N):
        ratios = default_ratio_grid(1e-3, 1.0, 3)
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        calls = record_stack_calls(monkeypatch)
        pooled = sweep_fidelity(2, [N], ratios).rows
        assert threading.current_thread() not in point_threads(calls)
        monkeypatch.setattr(fidelity, "_POOL_MIN_ORDER", N + 5)
        serial = sweep_fidelity(2, [N], ratios).rows
        for fmt in ("csv", "json"):
            assert _sweep_rows_text(pooled, fmt).encode() == _sweep_rows_text(serial, fmt).encode()

    def test_register_elements_is_reentrant_across_threads(self):
        # the pool runs the dqds binding and the gap sums of different chains
        # at once; more threads than cores and a short switch interval make
        # the calls interleave
        specs = [derive_parameters(2, N, 1.0, r)
                 for N, r in ((999, 1.0), (1001, 0.01), (1003, 0.3), (1501, 0.1))]
        chains = [build_full_coupling_matrix(s) for s in specs]
        expected = [element_bits(register_elements(c, s.tau)) for c, s in zip(chains, specs)]
        workers = len(chains)
        barrier = threading.Barrier(workers)
        found = [[] for _ in range(workers)]
        errors = []

        def work(k):
            try:
                barrier.wait(timeout=30)
                # each thread starts on its own chain, so calls run on
                # different chains at once
                for step in range(3 * workers):
                    i = (k + step) % workers
                    found[k].append((i, element_bits(register_elements(chains[i], specs[i].tau))))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(len(f) == 3 * workers for f in found)
        assert all(bits == expected[i] for f in found for i, bits in f)

    def test_a_failing_point_raises_the_serial_error(self, monkeypatch):
        # both 1e300 and 1e305 overflow; the first in grid order is reported
        ratios = [1e305, 0.1, 1e300]
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError) as pooled:
            sweep_fidelity(2, [1001], ratios)
        monkeypatch.setattr(fidelity, "_POOL_MIN_ORDER", 10 ** 6)
        with pytest.raises(ValueError) as serial:
            sweep_fidelity(2, [1001], ratios)
        assert str(pooled.value) == str(serial.value)
        assert "at N = 1001, ratio = 1e+300," in str(pooled.value)

    def test_a_failing_pooled_point_exits_1_without_output(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fidelity, "_usable_cpus", lambda: 2)
        calls = record_stack_calls(monkeypatch)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--channel-lengths", "1001", "--ratio-steps", "3",
                   "--ratio-max", "1e300", "--output", str(out)])
        assert rc == 1
        assert threading.current_thread() not in point_threads(calls)
        assert os.listdir(tmp_path) == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite result at N = 1001, ratio = 1e+300,")
        assert err.count("\n") == 1

    def test_the_readme_grid_runs_in_stacks(self, monkeypatch):
        # one task call per stack of up to _stack_size(M) ratios of a chain
        calls = record_stack_calls(monkeypatch)
        sweep_fidelity(2, README_LENGTHS, default_ratio_grid())
        sizes = [fidelity._stack_size(N + 4) for N in README_LENGTHS]
        assert [points for _, points in calls] == [
            min(size, 40 - k) for size in sizes for k in range(0, 40, size)]
        assert len(calls) == sum(math.ceil(40 / size) for size in sizes)
        assert sizes == [24, 11, 6] and len(calls) == 13

    def test_dqds_runs_twice_per_point(self, monkeypatch):
        # each chain's even and odd mirror blocks are still solved alone: a
        # stack's even blocks, one dqds call each, then its odd blocks
        orders = record_dlasq1_orders(monkeypatch)
        sweep_fidelity(2, README_LENGTHS, default_ratio_grid())
        expected = []
        for N in README_LENGTHS:
            c, size = (N + 3) // 2, fidelity._stack_size(N + 4)
            for k in range(0, 40, size):
                points = min(size, 40 - k)
                expected += [c // 2 + 1] * points + [(c - 1) // 2 + 1] * points
        assert orders == expected
        assert len(orders) == 2 * 40 * len(README_LENGTHS)


# the README's default channel lengths
README_LENGTHS = (101, 151, 201)

# log10 ratios where each gap form is taken: the product form, the two-log
# form of weak coupling (a mode below about 1e-146) and strong coupling,
# where the mirror blocks' register modes agree to every bit
stack_log_ratios = st.floats(-3.0, 1.0) | st.floats(-152.0, -143.0) | st.floats(5.5, 6.5)


def gap_cells(which: str, p: int) -> int:
    return {"1": 1, "7": 7, "p^2": p * p, "3p^2 + 5": 3 * p * p + 5}[which]


class TestSweepStacks:
    """The ratios of a channel length run as stacks of chains whose gap sums
    share one set of array operations; each chain's elements are the bits it
    gets alone."""

    @settings(max_examples=60, deadline=None)
    @given(N=st.sampled_from([1, 3, 11, 101]),
           log_ratios=st.lists(stack_log_ratios, min_size=1, max_size=12),
           cells=st.sampled_from(["1", "7", "p^2", "3p^2 + 5"]),
           t_frac=st.floats(0.0, 2.0))
    @example(N=3, log_ratios=[-150.0, -2.0, 6.0, -146.5, -1.0], cells="7", t_frac=1.0)
    @example(N=101, log_ratios=[-2.0, 0.0, -151.0], cells="3p^2 + 5", t_frac=1.0)
    def test_stacked_elements_are_bit_identical_to_single_chains(self, N, log_ratios,
                                                                  cells, t_frac):
        # _GAP_CELLS of 1 and 7 give one-row blocks, p^2 splits the stack's
        # rows into ragged blocks, and 3p^2 + 5 holds up to three whole chains
        specs = [derive_parameters(2, N, 1.0, 10.0 ** x) for x in log_ratios]
        ts = np.array([t_frac * spec.tau for spec in specs])
        alone = [element_bits(register_elements(build_full_coupling_matrix(spec), t))
                 for spec, t in zip(specs, ts)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fidelity, "_GAP_CELLS", gap_cells(cells, (N + 4) // 2))
            stack = fidelity._register_stack(build_full_bonds(specs), ts)
        assert [element_bits(RegisterElements(*row)) for row in stack] == alone

    @pytest.mark.parametrize("cells", ["1", "7", "p^2", "3p^2 + 5"])
    def test_ragged_stacks_give_the_same_rows(self, monkeypatch, cells):
        # 10 ratios in stacks of 1, 1, 1 and 3 (the last of one chain)
        ratios = [1e-150, 1e-148, 1e-146, 1e-3, 0.01, 0.1, 1.0, 3.0, 1e5, 1e6]
        reference = sweep_fidelity(2, [11], ratios).rows
        monkeypatch.setattr(fidelity, "_GAP_CELLS", gap_cells(cells, 15 // 2))
        calls = record_stack_calls(monkeypatch)
        assert sweep_fidelity(2, [11], ratios).rows == reference
        size = {"3p^2 + 5": 3}.get(cells, 1)
        assert [points for _, points in calls] == [min(size, 10 - k) for k in range(0, 10, size)]

    def test_scratch_memory_stays_within_the_block_budget(self):
        # the three gap blocks hold _GAP_CELLS doubles each, whatever the
        # stack; the rest is a few dozen arrays of R x M cells per stack.
        # Whole gap matrices for all 40 chains at N = 201 would take 10 MB
        grid = default_ratio_grid()
        largest = max(fidelity._stack_size(N + 4) * (N + 4) for N in README_LENGTHS)
        sweep_fidelity(2, README_LENGTHS, grid)
        tracemalloc.start()
        try:
            sweep_fidelity(2, README_LENGTHS, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * fidelity._GAP_CELLS + 64 * largest)


class TestSweep:
    def test_weak_coupling_near_perfect(self):
        res = sweep_fidelity(2, [3], [1e-4], encodings=("dfs",))
        assert res.rows[0].fidelity >= 0.9999

    def test_ratio_to_zero_limit(self):
        res = sweep_fidelity(2, [101], [1e-3])
        for row in res.rows:
            assert row.fidelity >= 0.999

    def test_row_ordering(self):
        res = sweep_fidelity(2, [5, 3], [0.1, 0.01])
        key = [(r.N, r.ratio, r.encoding) for r in res.rows]
        # N order preserved as given, ratios ascending, dfs before ndfs
        assert key == [(5, 0.01, "dfs"), (5, 0.01, "ndfs"),
                       (5, 0.1, "dfs"), (5, 0.1, "ndfs"),
                       (3, 0.01, "dfs"), (3, 0.01, "ndfs"),
                       (3, 0.1, "dfs"), (3, 0.1, "ndfs")]

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(0, 10).map(lambda k: 2 * k + 1),
           log_ratio=st.floats(-3.0, 0.0),
           t=st.just("tau") | st.floats(0.0, 1e4))
    # N = 1 at ratio 1e-3: the formulas give 1 + 2.7e-15 there
    @example(N=1, log_ratio=-3.0, t="tau")
    def test_rows_within_unit_interval(self, N, log_ratio, t):
        rows = sweep_fidelity(2, [N], [10.0 ** log_ratio], t_choice=t).rows
        assert all(0.0 <= r.fidelity <= 1.0 for r in rows)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            sweep_fidelity(2, [], [0.1])
        with pytest.raises(ValueError):
            sweep_fidelity(2, [3], [])
        with pytest.raises(ValueError):
            sweep_fidelity(2, [4], [0.1])
        with pytest.raises(ValueError):
            sweep_fidelity(2, [3], [0.1], encodings=("bogus",))

    @pytest.mark.parametrize("N_list,ratios,message", [
        ([3, 5.0], [0.1], "channel length"), ([3, -1], [0.1], "channel length"),
        ([3, True], [0.1], "channel length"), ([3], [0.1, np.nan], "couplings"),
        ([3], [0.1, np.inf], "couplings"),
        # float() would take these as 1.0 and 0.1; derive_parameters refuses a bool
        ([3], [0.1, True], "real numbers"), ([3], [0.1, np.True_], "real numbers"),
        ([3], [0.1, "0.1"], "real numbers")])
    def test_checks_the_grid_before_any_point_runs(self, monkeypatch, N_list, ratios, message):
        # the N = 3, ratio 0.1 point is valid, and must not run either
        calls = record_stack_calls(monkeypatch)
        with pytest.raises(ValueError, match=message):
            sweep_fidelity(2, N_list, ratios)
        assert calls == []

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_register_size_other_than_2(self, n):
        # the fidelity formulas and the corner elements are the n = 2 ones;
        # n = 3 used to return F ~ 0.99998 from the n = 2 formulas
        with pytest.raises(ValueError, match="n = 2"):
            sweep_fidelity(n, [3], [0.1])

    @pytest.mark.parametrize("ratio,t", [(1e300, "tau"), (0.1, np.inf)])
    def test_rejects_non_finite_point(self, ratio, t):
        # lambda^2 overflows at a huge ratio, e^{-i lambda t} at an infinite t
        with pytest.raises(ValueError, match="non-finite result at N = 3"):
            sweep_fidelity(2, [3], [ratio], t_choice=t)

    def test_names_the_first_non_finite_point_of_a_stack(self):
        # one stack holds all five points, and the check runs once for the
        # stack: the error still names the first failing point in grid order
        ratios = [1e-300, 1e-200, 1e-160, 0.01, 1e300]
        assert fidelity._stack_size(7) >= len(ratios)
        with pytest.raises(ValueError, match=r"non-finite result at N = 3, ratio = 1e-300, t = "):
            sweep_fidelity(2, [3], ratios[::-1])

    @pytest.mark.parametrize("N", [3, 101])
    @pytest.mark.parametrize("ratio", [1e-160, 1e-200, 1e-300])
    def test_rejects_point_whose_modes_square_below_the_floats(self, N, ratio):
        # the register modes' lambda^2 underflows while their weights
        # overflow, as lambda^2 overflows at 1e300: from about 1e-154 on,
        # where the dsterf route stopped giving rows too
        with pytest.raises(ValueError, match=f"non-finite result at N = {N}"):
            sweep_fidelity(2, [N], [ratio])

    def test_full_model_approaches_closed_form_value(self):
        # gap between the full-model fidelity at tau and the effective
        # prediction (exactly 1) shrinks with the coupling ratio
        for N in (101, 151, 201):
            gaps = []
            for ratio in (0.3, 0.1, 0.03, 0.01):
                row = sweep_fidelity(2, [N], [ratio], encodings=("dfs",)).rows[0]
                gaps.append(abs(row.fidelity - 1.0))
            assert gaps[-1] < gaps[0]
            for a, b in zip(gaps, gaps[1:]):
                assert b <= 2.0 * a


class TestRatioGrid:
    def test_default_grid(self):
        g = default_ratio_grid()
        assert len(g) == 40
        assert g[0] == pytest.approx(1e-3, rel=1e-14)
        assert g[-1] == pytest.approx(1.0, rel=1e-14)

    def test_grid_round_trips_at_15_digits(self):
        for r in default_ratio_grid():
            assert float(f"{r:.14e}") == r

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            default_ratio_grid(1.0, 0.1, 10)
        with pytest.raises(ValueError):
            default_ratio_grid(-1.0, 0.1, 10)
        with pytest.raises(ValueError):
            default_ratio_grid(0.1, 1.0, 0)
