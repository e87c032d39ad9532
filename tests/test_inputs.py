"""The Python API's boundary: every numeric parameter of every public entry
of `model`, `fidelity`, `propagator` and `oracle` takes a hostile scalar
with a result or a ValueError, never another exception.

Records (`ChainSpec`, `CouplingMatrix`, `RegisterElements`) and the entries
that only take them are not probed: they carry numbers another entry made.
A value outside an argument's own set (a size past a cap, an unknown
choice) is a ValueError too.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfsqst.fidelity import default_ratio_grid, register_elements, sweep_fidelity
from dfsqst.model import build_full_coupling_matrix, derive_parameters
from dfsqst.oracle import (DephasingModel, average_fidelity_bruteforce,
                           dephasing_protection_report, jw_phase_prediction, phase_table)
from dfsqst.propagator import (closed_form_effective_elements, dense_register_elements,
                               eigendecompose, propagator_at)

SPEC = derive_parameters(2, 3, 1.0, 0.1)
OMEGA = build_full_coupling_matrix(SPEC)
DECOMP = eigendecompose(OMEGA)
DEPH = DephasingModel(0.5 / SPEC.tau, samples=5)


def _sweep(n, N, ratio, t_choice):
    return sweep_fidelity(n, [3, N], [0.1, ratio], t_choice)


def _bruteforce(t, channel_init):
    return average_fidelity_bruteforce(SPEC, "dfs", t, channel_init=channel_init)


def _draw(sigma_lambda, samples, seed):
    return DephasingModel(sigma_lambda, samples, seed).draw()


# entry, its valid keyword arguments, and which of them are integers; a
# hostile value replaces one argument at a time (`_sweep` puts N and ratio
# into its lists, after a valid point)
ENTRIES = {
    "derive_parameters": (derive_parameters, dict(n=2, N=3, g_C=1.0, g_I=0.1), {"n", "N"}),
    "default_ratio_grid": (default_ratio_grid, dict(lo=1e-3, hi=1.0, steps=4), {"steps"}),
    "sweep_fidelity": (_sweep, dict(n=2, N=5, ratio=0.2, t_choice=1.5), {"n", "N"}),
    "register_elements": (lambda t: register_elements(OMEGA, t), dict(t=1.0), set()),
    "propagator_at": (lambda t: propagator_at(DECOMP, t), dict(t=1.0), set()),
    "dense_register_elements": (lambda t: dense_register_elements(OMEGA, t), dict(t=1.0), set()),
    "closed_form_effective_elements": (closed_form_effective_elements,
                                       dict(g0=SPEC.g0, t=1.0), set()),
    "DephasingModel": (_draw, dict(sigma_lambda=0.1, samples=5, seed=1), {"samples", "seed"}),
    "jw_phase_prediction": (jw_phase_prediction, dict(s=3, n=2), {"s", "n"}),
    "phase_table": (phase_table, dict(n=1), {"n"}),
    "average_fidelity_bruteforce": (_bruteforce, dict(t=SPEC.tau, channel_init=1),
                                    {"channel_init"}),
    "dephasing_protection_report": (lambda t: dephasing_protection_report(SPEC, DEPH, t),
                                    dict(t=SPEC.tau), set()),
}
PARAMETERS = [(name, p) for name, (_, kwargs, _) in ENTRIES.items() for p in kwargs]

BIG = 10 ** 400
HOSTILE = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, BIG, -BIG, BIG + 1, Fraction(BIG),
                     math.nan, math.inf, -math.inf, None]),
    # numeric strings: a float()-able text is still not a number
    st.sampled_from(["2.5", "3", "1e400", "nan", "tau"]),
    st.integers().map(str), st.floats().map(repr))


@pytest.mark.parametrize("name,param", PARAMETERS)
@settings(max_examples=30, deadline=None)
@given(value=HOSTILE)
def test_hostile_scalar_gives_a_result_or_a_value_error(name, param, value):
    call, kwargs, _ = ENTRIES[name]
    try:
        call(**{**kwargs, param: value})
    except ValueError:
        pass


@pytest.mark.parametrize("name,param", PARAMETERS)
def test_numpy_scalars_are_numbers(name, param):
    # numpy registers its integer and float scalars as numbers.Integral and
    # numbers.Real, and np.bool_ as neither; a numpy scalar gives the Python
    # value's result
    call, kwargs, integers = ENTRIES[name]
    value = kwargs[param]
    as_numpy = np.int64(value) if param in integers else np.float64(value)
    expected, got = call(**kwargs), call(**{**kwargs, param: as_numpy})
    if dataclasses.is_dataclass(expected):
        expected, got = dataclasses.asdict(expected), dataclasses.asdict(got)
    np.testing.assert_equal(got, expected)


def test_coupling_beyond_the_float_range_is_refused():
    # an int that no float can hold passed `0 < g < inf` and then raised
    # OverflowError from float(g_I)
    with pytest.raises(ValueError, match="couplings must be finite reals"):
        derive_parameters(2, 3, 1.0, 10 ** 400)


@pytest.mark.parametrize("n", [10 ** 200, 10 ** 400], ids=["10**200", "10**400"])
def test_register_size_beyond_the_float_range_is_refused(n):
    # n (n + 1) overflowed math.sqrt
    with pytest.raises(ValueError, match="out of range"):
        derive_parameters(n, 3, 1.0, 0.1)


@pytest.mark.parametrize("n", [1, 3])
def test_dephasing_report_needs_two_qubit_registers(n):
    # n = 1 raised "negative shift count"; n = 3 returned a report from the
    # n = 2 pipeline, with ndfs_passed True for a suppression off its prediction
    spec = derive_parameters(n, 3, 1.0, 0.1)
    with pytest.raises(ValueError, match="pipeline is defined for n = 2"):
        dephasing_protection_report(spec, DEPH, spec.tau)


@pytest.mark.parametrize("t", [True, "2.5", 10 ** 400], ids=["True", "'2.5'", "10**400"])
def test_sweep_time_must_be_a_real_number(t):
    # True ran as t = 1.0 and "2.5" as 2.5; 10**400 raised OverflowError
    with pytest.raises(ValueError, match="t_choice must be 'tau' or a real number"):
        sweep_fidelity(2, [3], [0.1], t_choice=t)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_sweep_time_is_a_non_finite_point(t):
    with pytest.raises(ValueError, match="non-finite result at N = 3"):
        sweep_fidelity(2, [3], [0.1], t_choice=t)


@pytest.mark.parametrize("call,message", [
    (lambda: phase_table(4), "capped at n = 3"),
    (lambda: average_fidelity_bruteforce(SPEC, "dfs", SPEC.tau, which="middle"),
     "which must be 'full' or 'effective'"),
    (lambda: average_fidelity_bruteforce(SPEC, "dfs", SPEC.tau, logical_target="x"),
     "unknown logical target"),
], ids=["phase_table-n4", "bruteforce-which", "bruteforce-logical_target"])
def test_value_outside_its_set_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
