"""End-to-end acceptance checks.

Each test covers one numbered criterion, emits a single pass/fail line
(echoed in the terminal summary, see conftest.py) and enforces a runtime
budget.
"""

import time

import numpy as np

from dfsqst.model import (derive_parameters, build_full_coupling_matrix,
                          build_effective_coupling_matrix)
from dfsqst.propagator import (eigendecompose, propagator_at,
                               closed_form_effective_elements,
                               dense_register_elements, mirror_inversion_error)
from dfsqst.fidelity import (RegisterElements, f_dfs, f_ndfs, sweep_fidelity,
                             default_ratio_grid)
from dfsqst.oracle import (REMAINING_SUBSPACES, DephasingModel, phase_table,
                           average_fidelity_bruteforce,
                           dephasing_protection_report)
from dense_reference import build_spin_hamiltonian, dense


RESULT_LINES = []


def _report(num, name, passed, detail, elapsed, budget):
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    line = (f"acceptance {num} {name}: {verdict} "
            f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    RESULT_LINES.append(line)
    print(line)
    assert passed, line
    assert elapsed < budget, line


def test_criterion_1_closed_form_match():
    t0 = time.perf_counter()
    spec = derive_parameters(2, 3, 1.0, 0.1)
    dec = eigendecompose(build_effective_coupling_matrix(spec))
    err = 0.0
    for t in np.linspace(0.0, 2 * spec.tau, 1000):
        d = propagator_at(dec, t)
        c11, c22, c12 = closed_form_effective_elements(spec.g0, t)
        # Delta_R1L1, Delta_R2L2 and Delta_R1L2: R1, R2 are the last two sites
        err = max(err, abs(d[-1, 0] - c11), abs(d[-2, 1] - c22),
                  abs(d[-1, 1] - c12))
    _report(1, "closed-form propagator match", err <= 1e-10,
            f"max err {err:.2e} <= 1e-10 over 1000 times",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_mirror_inversion():
    t0 = time.perf_counter()
    err = max(mirror_inversion_error(derive_parameters(n, 5, 1.0, 0.2)) for n in (1, 2, 3, 4))
    _report(2, "mirror inversion at tau", err <= 1e-10,
            f"max |elementwise dev| {err:.2e} <= 1e-10 for n in 1..4",
            time.perf_counter() - t0, 1.0)


def test_criterion_3_perfect_transfer_fidelity():
    t0 = time.perf_counter()
    spec = derive_parameters(2, 3, 1.0, 0.1)
    omega = build_effective_coupling_matrix(spec)
    e_tau = dense_register_elements(omega, spec.tau)
    e_zero = dense_register_elements(omega, 0.0)
    err_tau = max(abs(f_dfs(e_tau) - 1.0), abs(f_ndfs(e_tau) - 1.0))
    err_zero = max(abs(f_dfs(e_zero) - 0.5), abs(f_ndfs(e_zero) - 0.5))
    _report(3, "perfect-transfer fidelity", err_tau <= 1e-10 and err_zero <= 1e-12,
            f"|F(tau)-1| {err_tau:.2e} <= 1e-10, |F(0)-1/2| {err_zero:.2e} <= 1e-12",
            time.perf_counter() - t0, 1.0)


def test_criterion_4_weak_coupling_sweep():
    t0 = time.perf_counter()
    grid = default_ratio_grid(1e-3, 1.0, 40)
    res = sweep_fidelity(2, [101, 151, 201], grid)
    near = min(grid, key=lambda r: abs(r - 0.3))
    fid = {(r.N, r.ratio, r.encoding): r.fidelity for r in res.rows}
    floor, gap = 1.0, 1.0
    for N in (101, 151, 201):
        for enc in ("dfs", "ndfs"):
            floor = min(floor, fid[(N, grid[0], enc)])
            gap = min(gap, fid[(N, grid[0], enc)] - fid[(N, near, enc)])
    _report(4, "weak-coupling fidelity sweep", floor >= 0.999 and gap >= 0.05,
            f"min F at ratio 1e-3 is {floor:.6f} >= 0.999, "
            f"min gap to ratio {near:.3g} is {gap:.3f} >= 0.05",
            time.perf_counter() - t0, 30.0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    spec = derive_parameters(2, 3, 1.0, 0.2)
    omega = build_full_coupling_matrix(spec)
    rng = np.random.default_rng(7)
    err = 0.0
    for t in rng.uniform(0.0, 2 * spec.tau, 10):
        e = dense_register_elements(omega, float(t))
        err = max(err,
                  abs(f_dfs(e) - average_fidelity_bruteforce(spec, "dfs", float(t))),
                  abs(f_ndfs(e) - average_fidelity_bruteforce(spec, "ndfs", float(t))))
    _report(5, "formula vs many-body oracle", err <= 1e-8,
            f"max |formula - bruteforce| {err:.2e} <= 1e-8 at 10 random times",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_phase_factor_table():
    t0 = time.perf_counter()
    rows2 = phase_table(2)
    rows3 = phase_table(3)
    ok = (len(rows2) == 32 and len(rows3) == 128
          and all(r.match for r in rows2) and all(r.match for r in rows3))
    _report(6, "swap phase-factor table", ok,
            f"{sum(r.match for r in rows2)}/32 and "
            f"{sum(r.match for r in rows3)}/128 basis states match",
            time.perf_counter() - t0, 60.0)


def test_criterion_7_dephasing_protection():
    t0 = time.perf_counter()
    spec = derive_parameters(2, 3, 1.0, 0.1)
    dfs_dev, ndfs_gap = 0.0, 0.0
    ok = True
    for sig_tau in (0.1, 0.5, 1.0):
        deph = DephasingModel(sigma_lambda=sig_tau / spec.tau, samples=200, seed=42)
        rep = dephasing_protection_report(spec, deph, spec.tau)
        dfs_dev = max(dfs_dev, rep.dfs_max_deviation)
        ndfs_gap = max(ndfs_gap, abs(rep.ndfs_measured_suppression
                                     - rep.ndfs_predicted_suppression)
                       / (3.0 * rep.ndfs_stderr))
        ok = ok and rep.dfs_passed and rep.ndfs_passed
    _report(7, "collective dephasing protection", ok,
            f"DFS per-shot dev {dfs_dev:.2e} <= 1e-10, "
            f"NDFS suppression within {ndfs_gap:.2f}x of 3 standard errors",
            time.perf_counter() - t0, 60.0)


def test_criterion_8_remaining_subspace_sensitivity():
    t0 = time.perf_counter()
    spec = derive_parameters(2, 3, 1.0, 0.1)
    deph = DephasingModel(sigma_lambda=0.5 / spec.tau, samples=200, seed=42)
    f_ref = min(average_fidelity_bruteforce(spec, "dfs", spec.tau, deph=deph),
                average_fidelity_bruteforce(spec, "ndfs", spec.tau, deph=deph))
    margin = 1.0
    for pair in REMAINING_SUBSPACES:
        # grant each leaky subspace its best-case decoding target
        f = max(average_fidelity_bruteforce(spec, pair, spec.tau, deph=deph,
                                            logical_target=tgt)
                for tgt in ("identity", "z"))
        margin = min(margin, f_ref - f)
    _report(8, "remaining-subspace sensitivity", margin >= 0.01,
            f"all four leaky subspaces below min(F_dfs, F_ndfs) "
            f"by >= {margin:.3f} (need 0.01)",
            time.perf_counter() - t0, 120.0)


def test_criterion_9_structural_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    uni = comp = sector = block = parity = 0.0
    for _ in range(50):
        spec = derive_parameters(int(rng.integers(1, 4)),
                                 int(rng.choice([1, 3, 5, 21])),
                                 float(rng.uniform(0.5, 2.0)),
                                 float(rng.uniform(0.01, 1.0)))
        omega = build_full_coupling_matrix(spec)
        dec = eigendecompose(omega)
        t1, t2 = rng.uniform(0.0, 2 * spec.tau, 2)
        p1 = propagator_at(dec, float(t1))
        p2 = propagator_at(dec, float(t2))
        p12 = propagator_at(dec, float(t1 + t2))
        eye = np.eye(omega.order)
        uni = max(uni, float(np.max(np.abs(p1.conj().T @ p1 - eye))))
        comp = max(comp, float(np.max(np.abs(p1 @ p2 - p12))))

        if omega.order <= 9:
            H = build_spin_hamiltonian(spec)
            pop = np.array([bin(s).count("1") for s in range(len(H))])
            sector = max(sector, float(np.max(np.abs(
                H * (pop[:, None] != pop[None, :])))))
            ones = 1 << np.arange(omega.order)
            block = max(block, float(np.max(np.abs(
                H[np.ix_(ones, ones)] - dense(omega)))))

        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        e, flipped = RegisterElements(*vals), RegisterElements(*(-vals))
        parity = max(parity, abs(f_dfs(e) - f_dfs(flipped)),
                     abs(f_ndfs(e) - f_ndfs(flipped)))
    ok = (uni <= 1e-10 and comp <= 1e-10 and sector <= 1e-12
          and block <= 1e-12 and parity <= 1e-12)
    _report(9, "structural invariants", ok,
            f"unitarity {uni:.1e}, composition {comp:.1e}, "
            f"sector leakage {sector:.1e}, excitation block {block:.1e}, "
            f"parity invariance {parity:.1e}",
            time.perf_counter() - t0, 60.0)
