import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfsqst.model import (CouplingMatrix, derive_parameters,
                          build_full_coupling_matrix, build_effective_coupling_matrix)
from dfsqst.propagator import (MIRROR_TOL, eigendecompose, propagator_at,
                               closed_form_effective_elements, mirror_inversion_error)
from dense_reference import dense, kappa_parity


def two_site(g):
    return CouplingMatrix(bonds=np.array([g]), n=1)


def random_specs(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield derive_parameters(int(rng.integers(1, 4)),
                                int(rng.choice([3, 5, 7, 21, 51])),
                                float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(0.01, 1.0)))


class TestEigendecompose:
    def test_two_site_analytic(self):
        w, _ = eigendecompose(two_site(0.7))
        np.testing.assert_allclose(w, [-0.7, 0.7], atol=1e-14)

    def test_invariants_random_specs(self):
        for spec in random_specs(10):
            omega = build_full_coupling_matrix(spec)
            w, v = eigendecompose(omega)
            recon = (v * w) @ v.T
            scale = max(1.0, np.max(np.abs(omega.bonds)))
            assert np.max(np.abs(recon - dense(omega))) <= 1e-10 * scale
            assert np.max(np.abs(v.T @ v - np.eye(omega.order))) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_effective_n2_spectrum(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        w, _ = eigendecompose(build_effective_coupling_matrix(spec))
        np.testing.assert_allclose(w, spec.g0 * np.arange(-2, 3), atol=1e-14)

    def test_decoupled_registers_block_spectrum(self):
        # with the register-channel bonds removed the spectrum is the union
        # of the register and channel spectra
        spec = derive_parameters(2, 5, 1.0, 0.3)
        full = build_full_coupling_matrix(spec)
        n = spec.n
        bonds = full.bonds.copy()
        bonds[n - 1] = bonds[-n] = 0.0
        cut = CouplingMatrix(bonds=bonds, n=n)
        w, _ = eigendecompose(cut)
        reg = np.linalg.eigvalsh(dense(cut)[:n, :n])
        channel = np.linalg.eigvalsh(dense(cut)[n:-n, n:-n])
        expected = np.sort(np.concatenate([reg, reg, channel]))
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_rejects_nonfinite(self):
        m = two_site(np.nan)
        with pytest.raises(ValueError):
            eigendecompose(m)


class TestPropagatorAt:
    def test_identity_at_t0(self):
        spec = derive_parameters(2, 5, 1.0, 0.2)
        omega = build_full_coupling_matrix(spec)
        p = propagator_at(eigendecompose(omega), 0.0)
        assert np.max(np.abs(p - np.eye(omega.order))) <= 1e-14

    def test_two_site_rabi(self):
        g, t = 0.35, 2.1
        p = propagator_at(eigendecompose(two_site(g)), t)
        assert p[0, 1] == pytest.approx(-1j * np.sin(g * t), abs=1e-14)
        assert p[0, 0] == pytest.approx(np.cos(g * t), abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3),
           N=st.integers(0, 100).map(lambda k: 2 * k + 1),
           log_ratio=st.floats(-3.0, 0.0),
           t_fracs=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
    def test_unitarity_symmetry_composition(self, n, N, log_ratio, t_fracs):
        spec = derive_parameters(n, N, 1.0, 10.0 ** log_ratio)
        d = eigendecompose(build_full_coupling_matrix(spec))
        t1, t2 = (f * spec.tau for f in t_fracs)
        p1 = propagator_at(d, t1)
        p2 = propagator_at(d, t2)
        p12 = propagator_at(d, t1 + t2)
        eye = np.eye(len(p1))
        assert np.max(np.abs(p1.conj().T @ p1 - eye)) <= 1e-10
        assert np.max(np.abs(p1 - p1.T)) <= 1e-12
        assert np.max(np.abs(p1 @ p2 - p12)) <= 1e-10

    def test_double_mirror_is_identity(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        d = eigendecompose(build_effective_coupling_matrix(spec))
        p = propagator_at(d, spec.tau)
        assert np.max(np.abs(p @ p - np.eye(5))) <= 1e-10


class TestClosedFormElements:
    def test_at_tau(self):
        g0 = 0.31
        d11, d22, d12 = closed_form_effective_elements(g0, np.pi / g0)
        assert d11 == pytest.approx(1.0, abs=1e-14)
        assert d22 == pytest.approx(1.0, abs=1e-14)
        assert abs(d12) <= 1e-14

    def test_at_zero(self):
        assert closed_form_effective_elements(0.5, 0.0) == (0.0, 0.0, 0.0)

    def test_at_quarter_period(self):
        g0 = 0.5
        d11, d22, d12 = closed_form_effective_elements(g0, np.pi / (2 * g0))
        assert d11 == pytest.approx(0.25, abs=1e-14)
        assert d22 == pytest.approx(-0.5, abs=1e-14)
        assert d12 == pytest.approx(0.5j, abs=1e-14)

    def test_matches_effective_propagator_on_grid(self):
        spec = derive_parameters(2, 3, 1.0, 0.1)
        d = eigendecompose(build_effective_coupling_matrix(spec))
        err = 0.0
        for t in np.linspace(0, 2 * spec.tau, 1000):
            p = propagator_at(d, t)
            c11, c22, c12 = closed_form_effective_elements(spec.g0, t)
            err = max(err, abs(p[4, 0] - c11), abs(p[3, 1] - c22), abs(p[4, 1] - c12))
        assert err <= 1e-10


class TestMirrorInversion:
    @pytest.mark.parametrize("n,sign", [(1, -1), (2, 1), (3, -1), (4, 1)])
    def test_sign_and_error(self, n, sign):
        spec = derive_parameters(n, 5, 1.0, 0.2)
        assert mirror_inversion_error(spec) <= MIRROR_TOL
        d = propagator_at(eigendecompose(build_effective_coupling_matrix(spec)), spec.tau)
        # zero mode maps to itself with sign (-1)^n
        assert d[n, n] == pytest.approx(sign, abs=1e-10)

    def test_full_model_converges_to_mirror(self):
        # restriction of the full propagator at tau to register sites
        # approaches the effective prediction, up to the (-1)^(kappa-1)
        # right-end sign convention, as g_I/g_C decreases; allow a factor-2
        # slack for oscillation at any single step
        N, n = 51, 2
        devs = []
        for ratio in (0.3, 0.1, 0.03, 0.01):
            spec = derive_parameters(n, N, 1.0, ratio)
            full = build_full_coupling_matrix(spec)
            p = propagator_at(eigendecompose(full), spec.tau)
            s = kappa_parity(spec)
            dev = max(abs(p[-1, 0] - s), abs(p[-2, 1] - s), abs(p[-1, 1]))
            devs.append(dev)
        assert devs[-1] < devs[0]
        for a, b in zip(devs, devs[1:]):
            assert b <= 2.0 * a
