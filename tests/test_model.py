import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dfsqst.model import (ChainSpec, derive_parameters, build_full_coupling_matrix,
                          build_effective_coupling_matrix)
from dense_reference import dense, jx_matrix


def numpy_scalar_parameters(n, N, g_I):
    """(t_kappa, g0, g_u, tau) in numpy scalar arithmetic: the reference
    `derive_parameters`' Python floats must match bit for bit."""
    kappa = (N + 1) // 2
    t_kappa = float(g_I * np.sqrt(2.0 / (N + 1)) * np.sin(kappa * np.pi / (N + 1)))
    g0 = float(2.0 * t_kappa / np.sqrt(n * (n + 1)))
    g_u = tuple(float(0.5 * g0 * np.sqrt(u * (2 * n - u + 1))) for u in range(1, n + 1))
    return t_kappa, g0, g_u, float(np.pi / g0)


class TestDeriveParameters:
    def test_reference_values_n2(self):
        spec = derive_parameters(n=2, N=3, g_C=1.0, g_I=0.1)
        assert spec.kappa == 2
        assert spec.t_kappa == pytest.approx(0.1 * np.sqrt(0.5), abs=1e-15)
        assert spec.g0 == pytest.approx(2 * spec.t_kappa / np.sqrt(6), abs=1e-15)
        assert spec.tau == pytest.approx(54.41398092702651, abs=1e-10)

    def test_reference_values_n1(self):
        spec = derive_parameters(n=1, N=5, g_C=1.0, g_I=0.05)
        assert spec.kappa == 3
        assert spec.t_kappa == pytest.approx(0.05 * np.sqrt(2 / 6), abs=1e-15)
        assert spec.g0 == pytest.approx(2 * spec.t_kappa / np.sqrt(2), abs=1e-15)

    def test_register_coupling_profile(self):
        spec = derive_parameters(n=2, N=7, g_C=1.0, g_I=0.2)
        assert spec.g_u[0] == pytest.approx(spec.g0, abs=1e-15)
        assert spec.g_u[1] == pytest.approx(spec.g0 * np.sqrt(6) / 2, abs=1e-15)

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 5), (3, 9), (4, 101)])
    def test_tuning_and_clock(self, n, N):
        spec = derive_parameters(n=n, N=N, g_C=1.3, g_I=0.07)
        # tuning condition g_n = t_kappa, transfer clock tau * g0 = pi
        assert spec.g_u[-1] == pytest.approx(spec.t_kappa, abs=1e-15)
        assert spec.tau * spec.g0 == pytest.approx(np.pi, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, N=4, g_C=1.0, g_I=0.1),   # even N: no zero mode
        dict(n=2, N=0, g_C=1.0, g_I=0.1),
        dict(n=0, N=3, g_C=1.0, g_I=0.1),
        dict(n=2, N=3, g_C=0.0, g_I=0.1),
        dict(n=2, N=3, g_C=1.0, g_I=-0.5),
        dict(n=2, N=3, g_C=1.0, g_I=5e-324),   # g0 underflows to 0
        dict(n=2, N=3, g_C=1.0, g_I=1e-320),   # tau = pi/g0 overflows
        dict(n=1, N=1, g_C=1.0, g_I=1.7e308),  # g0 overflows
        # non-finite couplings built a spec whose brute-force fidelity raised
        # LinAlgError and whose mirror-inversion report passed
        dict(n=2, N=3, g_C=float("nan"), g_I=0.1),
        dict(n=2, N=3, g_C=1.0, g_I=float("nan")),
        dict(n=2, N=3, g_C=float("inf"), g_I=0.1),
        dict(n=2, N=3, g_C=1.0, g_I=float("inf")),
        dict(n=2, N=3, g_C="1.0", g_I=0.1),
        dict(n=2, N=3, g_C=1.0, g_I=0.1 + 0j),
        dict(n=2, N=3, g_C=True, g_I=0.1),
        # non-integer sizes failed later with a TypeError; N = True ran as N = 1
        dict(n=2, N=3.0, g_C=1.0, g_I=0.1),
        dict(n=2.0, N=3, g_C=1.0, g_I=0.1),
        dict(n=2, N=True, g_C=1.0, g_I=0.1),
        dict(n=True, N=3, g_C=1.0, g_I=0.1),
        dict(n=2, N=np.float64(3), g_C=1.0, g_I=0.1),
        dict(n=2, N=None, g_C=1.0, g_I=0.1),
    ])
    def test_rejects_invalid_input(self, kwargs):
        with pytest.raises(ValueError):
            derive_parameters(**kwargs)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), N=st.integers(0, 5000).map(lambda k: 2 * k + 1),
           log_g=st.floats(-150.0, 150.0), kind=st.sampled_from([float, np.float64]))
    @example(n=2, N=10001, log_g=-2.0, kind=float)
    @example(n=1, N=1, log_g=150.0, kind=np.float64)
    @example(n=4, N=9999, log_g=-150.0, kind=float)
    def test_fields_are_the_numpy_scalar_bits(self, n, N, log_g, kind):
        g_I = kind(10.0 ** log_g)
        spec = derive_parameters(n, N, 1.0, g_I)
        t_kappa, g0, g_u, tau = numpy_scalar_parameters(n, N, g_I)
        assert (spec.n, spec.N, spec.g_C, spec.g_I, spec.kappa) == (n, N, 1.0, g_I, (N + 1) // 2)
        assert [v.hex() for v in (spec.t_kappa, spec.g0, *spec.g_u, spec.tau)] == \
            [v.hex() for v in (t_kappa, g0, *g_u, tau)]
        assert all(type(v) is float for v in (spec.t_kappa, spec.g0, *spec.g_u, spec.tau))

    def test_accepts_numpy_scalars(self):
        spec = derive_parameters(n=np.int64(2), N=np.int32(3),
                                 g_C=np.float32(1.0), g_I=np.float64(0.1))
        assert spec == derive_parameters(n=2, N=3, g_C=1.0, g_I=0.1)

    def test_deterministic(self):
        a = derive_parameters(3, 11, 0.9, 0.03)
        b = derive_parameters(3, 11, 0.9, 0.03)
        assert a == b


class TestFullCouplingMatrix:
    def test_smallest_chain(self):
        spec = derive_parameters(n=1, N=1, g_C=1.0, g_I=0.25)
        m = build_full_coupling_matrix(spec)
        assert m.order == 3
        np.testing.assert_allclose(m.bonds, [spec.g_I, spec.g_I])

    def test_n2_N3_superdiagonal(self):
        spec = derive_parameters(n=2, N=3, g_C=1.0, g_I=0.1)
        m = build_full_coupling_matrix(spec)
        assert m.order == 7
        g1 = spec.g_u[0]
        np.testing.assert_allclose(
            m.bonds, [g1, spec.g_I, spec.g_C, spec.g_C, spec.g_I, g1])

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 5), (3, 7)])
    def test_structure(self, n, N):
        m = dense(build_full_coupling_matrix(derive_parameters(n, N, 1.0, 0.1)))
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0.0)
        # tridiagonal: zero beyond the first off-diagonal
        assert not np.any(np.triu(m, 2))


class TestEffectiveCouplingMatrix:
    def test_n1(self):
        spec = derive_parameters(n=1, N=5, g_C=1.0, g_I=0.05)
        m = build_effective_coupling_matrix(spec)
        assert m.order == 3
        np.testing.assert_allclose(m.bonds, [spec.t_kappa, spec.t_kappa])

    def test_n2_superdiagonal_is_spin2_ladder(self):
        spec = derive_parameters(n=2, N=3, g_C=1.0, g_I=0.1)
        m = build_effective_coupling_matrix(spec)
        expect = spec.g0 * np.array([1.0, np.sqrt(6) / 2, np.sqrt(6) / 2, 1.0])
        np.testing.assert_allclose(m.bonds, expect, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_g0_jx(self, n):
        spec = derive_parameters(n=n, N=9, g_C=2.0, g_I=0.4)
        m = build_effective_coupling_matrix(spec)
        np.testing.assert_allclose(dense(m), spec.g0 * jx_matrix(n), atol=1e-12)

    def test_n2_eigenvalues(self):
        spec = derive_parameters(n=2, N=3, g_C=1.0, g_I=0.1)
        w = np.linalg.eigvalsh(dense(build_effective_coupling_matrix(spec)))
        np.testing.assert_allclose(w, spec.g0 * np.arange(-2, 3), atol=1e-14)
