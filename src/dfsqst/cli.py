"""Command-line front end: parameter sweeps, verification suite, oracle runs.

Commands:
    sweep   fidelity vs g_I/g_C over channel lengths, CSV or JSON output
    verify  run the named numerical checks, emit a JSON report, exit 0/1
    oracle  brute-force many-body checks (swap phases, formula equivalence)
    phases  per-basis-state Jordan-Wigner phase table

Exit codes: 0 success, 1 failed check, I/O error or non-finite sweep point,
2 usage error (including a verify option value whose checks overflow).
g_C is fixed to 1 in all runs; the ratio axis directly sets g_I.
Configuration may come from a JSON file (--config); explicit flags win
over file values, file values win over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .model import _is_int, _is_real, derive_parameters
from .propagator import (MIRROR_TOL, closed_form_effective_elements, dense_register_elements,
                         eigendecompose, mirror_inversion_error, propagator_at)
from .model import build_effective_coupling_matrix, build_full_coupling_matrix
from .fidelity import (RegisterElements, default_ratio_grid, f_dfs, f_ndfs,
                       register_elements, sweep_fidelity)
from . import oracle as orc

__all__ = ["RunConfig", "parse_config", "run_sweep", "run_verify",
           "run_oracle", "run_phases", "main"]


@dataclasses.dataclass
class RunConfig:
    """Resolved options; each default also fixes the type an option's value must have."""

    command: str
    n: int = 2
    channel_lengths: list[int] = dataclasses.field(default_factory=lambda: [101, 151, 201])
    ratio_min: float = 1e-3
    ratio_max: float = 1.0
    ratio_steps: int = 40
    linear: bool = False
    encoding: str = "both"
    time: str | float = "tau"
    sigma_lambda: float = 0.0
    seed: int = 42
    output_path: str | None = None
    format: str = "csv"
    tolerance_scale: float = 1.0


_DEFAULTS = {k: v for k, v in vars(RunConfig(command="")).items() if k != "command"}


# The options each command reads; a flag or --config key outside its list
# is a usage error.  `sweep` keeps `n` (only 2 is valid) for callers that pass `--n 2`.
_OPTIONS = {
    "sweep": ("n", "channel_lengths", "ratio_min", "ratio_max", "ratio_steps", "linear",
              "encoding", "time", "format", "output_path"),
    "verify": ("sigma_lambda", "seed", "tolerance_scale", "output_path"),
    "oracle": ("n", "seed", "output_path"),
    "phases": ("n", "output_path"),
}
_CHOICES = {"encoding": ("dfs", "ndfs", "both"), "format": ("csv", "json")}

# Work budget of `sweep`: a point at channel length N takes O(N^2) time
# (about 0.4 s at N = 10001 on a 2-core x86-64 host, in O(N) memory), and the
# ratio grid is 8 bytes per step.  A grid of several ratios at the cap runs
# two points at a time on that host: 2 ratios, one point a task, took 0.48 s
# instead of 0.88 s serially, at a peak RSS of 64 MB instead of 61 MB.
# Larger inputs are a usage error, before any work starts.
MAX_CHANNEL_LENGTH = 10001
MAX_GRID_POINTS = 10 ** 5  # len(channel_lengths) * ratio_steps


def _flag_kwargs(key: str) -> dict:
    """argparse settings for an option, from its default's type."""
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        return {"action": "store_const", "const": True}
    if isinstance(default, list):
        return {"type": int, "nargs": "+"}
    if isinstance(default, (int, float)):
        return {"type": type(default)}
    if key == "time":  # "tau" or a number; argparse names the function in its error
        def tau_or_float(text: str) -> str | float:
            return text if text == "tau" else float(text)
        return {"type": tau_or_float}
    return {"choices": _CHOICES[key]} if key in _CHOICES else {}


@functools.cache  # built once a process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dfsqst", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, keys in _OPTIONS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(command_parser=sp)
        sp.add_argument("--config", help="JSON config file")
        for key in keys:
            flag = "--output" if key == "output_path" else "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, **_flag_kwargs(key))
    return p


def _valid(key: str, value) -> bool:
    """Whether a flag or config value has its default's type and, if a number, is finite."""
    default = _DEFAULTS[key]
    if key == "time":  # "tau" or a number; argparse names the function in its error
        return value == "tau" or _is_real(value) and math.isfinite(value)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list) and all(map(_is_int, value))
    if key in _CHOICES:
        return value in _CHOICES[key]
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    if isinstance(default, int):
        return _is_int(value)
    return _is_real(value) and math.isfinite(value)


def parse_config(argv) -> RunConfig:
    ns, extra = _build_parser().parse_known_args(argv)
    parser = ns.command_parser  # so each usage line lists the command's own options
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")

    merged = dict(_DEFAULTS)
    if ns.config:
        # reading raises ValueError for bad JSON, for a file that is not
        # UTF-8 and for an int literal past the interpreter's digit limit
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_OPTIONS[ns.command])
        if unknown:
            parser.error(f"config keys that {ns.command} does not take: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _DEFAULTS:
        val = getattr(ns, key, None)
        if val is not None:
            merged[key] = val

    # validation; any violation is a usage error (exit 2)
    for key, value in merged.items():
        if not _valid(key, value):
            parser.error(f"invalid {key} value {value!r}")
    cfg = RunConfig(command=ns.command, **merged)

    if cfg.n < 1:
        parser.error("n must be >= 1")
    if cfg.command == "sweep" and cfg.n != 2:
        parser.error("sweep evaluates the n = 2 fidelity formulas; n must be 2")
    if not cfg.channel_lengths:
        parser.error("channel length list must not be empty")
    for N in cfg.channel_lengths:
        if N < 1 or N % 2 == 0:
            parser.error(f"channel length must be a positive odd integer, got {N}")
    if cfg.ratio_steps < 1:
        parser.error("ratio-steps must be >= 1")
    if max(cfg.channel_lengths) > MAX_CHANNEL_LENGTH:
        parser.error(f"channel length must be <= {MAX_CHANNEL_LENGTH} (the sweep's work budget)")
    if len(cfg.channel_lengths) * cfg.ratio_steps > MAX_GRID_POINTS:
        parser.error(f"channel lengths x ratio-steps must be <= {MAX_GRID_POINTS} grid points")
    if (min(cfg.ratio_min, cfg.ratio_max) <= 0
            or (cfg.ratio_min >= cfg.ratio_max and cfg.ratio_steps > 1)):
        parser.error("need 0 < ratio-min < ratio-max")
    if cfg.seed < 0:
        parser.error("seed must be >= 0")
    if cfg.sigma_lambda < 0:
        parser.error("sigma-lambda must be >= 0")
    if cfg.tolerance_scale < 0:
        parser.error("tolerance-scale must be >= 0")
    if cfg.command in ("oracle", "phases") and cfg.n > 3:
        parser.error(f"{cfg.command} is capped at n = 3")
    return cfg


def _write_output(text: str, path: str | None) -> None:
    """Write atomically; on failure remove the partial file and exit 1."""
    if path is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        sys.exit(1)


def _sweep_rows_text(rows, fmt: str) -> str:
    if fmt == "csv":
        lines = ["N,n,ratio,time,encoding,fidelity"]
        for r in rows:
            lines.append(f"{r.N},{r.n},{r.ratio:.14e},{r.t!r},{r.encoding},{r.fidelity!r}")
        return "\n".join(lines) + "\n"
    objs = [{"N": r.N, "n": r.n, "ratio": r.ratio, "time": r.t,
             "encoding": r.encoding, "fidelity": r.fidelity} for r in rows]
    return json.dumps(objs, indent=2, allow_nan=False) + "\n"


def run_sweep(cfg: RunConfig) -> int:
    grid = default_ratio_grid(cfg.ratio_min, cfg.ratio_max, cfg.ratio_steps,
                              log_spaced=not cfg.linear)
    encodings = ("dfs", "ndfs") if cfg.encoding == "both" else (cfg.encoding,)
    try:
        result = sweep_fidelity(n=cfg.n, N_list=cfg.channel_lengths, ratio_grid=grid,
                                t_choice=cfg.time, encodings=encodings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_output(_sweep_rows_text(result.rows, cfg.format), cfg.output_path)
    return 0


# N = 3, n = 2: the chain on which the formulas are checked against the oracle
_ORACLE_SPEC = derive_parameters(2, 3, 1.0, 0.2)
ORACLE_TOL = 1e-8  # the largest fidelity gap that check passes with


def _formula_vs_oracle_error(times) -> float:
    """Largest |sweep engine - many-body oracle| fidelity gap over both encodings."""
    omega = build_full_coupling_matrix(_ORACLE_SPEC)
    err = 0.0
    for t in map(float, times):
        e = register_elements(omega, t)
        err = max(err,
                  abs(f_dfs(e) - orc.average_fidelity_bruteforce(_ORACLE_SPEC, "dfs", t)),
                  abs(f_ndfs(e) - orc.average_fidelity_bruteforce(_ORACLE_SPEC, "ndfs", t)))
    return float(err)  # f_dfs and f_ndfs give numpy floats


def _verify_checks(cfg: RunConfig):
    scale = cfg.tolerance_scale
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def add(name, max_error, tolerance):  # every tolerance is <= 1e-8 * scale: finite
        checks.append({"name": name, "max_error": float(max_error),
                       "tolerance": float(tolerance),
                       "pass": bool(max_error <= tolerance)})

    # mirror inversion, n = 1..4
    err = max(mirror_inversion_error(derive_parameters(nn, 3, 1.0, 0.1)) for nn in (1, 2, 3, 4))
    add("mirror_inversion", err, MIRROR_TOL * scale)

    # the sweep engine's elements against the closed form, n = 2 effective
    # (mirror symmetric, so Delta_R2L1 = Delta_R1L2), 1000 times in [0, 2 tau]
    spec = derive_parameters(2, 3, 1.0, 0.1)
    omega = build_effective_coupling_matrix(spec)
    err = 0.0
    for t in np.linspace(0.0, 2 * spec.tau, 1000):
        e = register_elements(omega, float(t))
        c11, c22, c12 = closed_form_effective_elements(spec.g0, t)
        err = max(err, abs(e.d_r1l1 - c11), abs(e.d_r2l2 - c22),
                  abs(e.d_r1l2 - c12), abs(e.d_r2l1 - c12))
    add("closed_form_match", err, 1e-10 * scale)

    # unitarity of full-model propagators over random specs, and at n = 2
    # the sweep engine's elements against the same dense propagator
    err = 0.0
    for _ in range(20):
        sp = derive_parameters(int(rng.integers(1, 4)),
                               int(rng.choice([3, 5, 7, 51, 101])),
                               1.0, float(rng.uniform(0.01, 1.0)))
        omega = build_full_coupling_matrix(sp)
        t = float(rng.uniform(0, 2 * sp.tau))
        d = propagator_at(eigendecompose(omega), t)
        err = max(err, float(np.max(np.abs(d.conj().T @ d - np.eye(len(d))))))
        if sp.n == 2:
            fast, dense = register_elements(omega, t), dense_register_elements(omega, t)
            err = max(err, *(abs(a - b) for a, b in zip(vars(fast).values(),
                                                         vars(dense).values())))
    add("unitarity", err, 1e-10 * scale)

    # kappa-parity sign invariance of both fidelity formulas
    err = 0.0
    for _ in range(50):
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        e = RegisterElements(*vals)
        flipped = RegisterElements(*(-vals))
        err = max(err, abs(f_dfs(e) - f_dfs(flipped)), abs(f_ndfs(e) - f_ndfs(flipped)))
    add("kappa_parity_invariance", err, 1e-12 * scale)

    add("formula_vs_oracle",
        _formula_vs_oracle_error(rng.uniform(0, 2 * _ORACLE_SPEC.tau, 4)), ORACLE_TOL * scale)

    # dephasing protection, effective model at tau: every shot leaves the DFS
    # fidelity as it is and multiplies the NDFS coherence by exp(4 i lam tau)
    sp = derive_parameters(2, 3, 1.0, 0.1)
    deph = orc.DephasingModel(sigma_lambda=cfg.sigma_lambda or 0.5 / sp.tau, seed=cfg.seed)
    rep = orc.dephasing_protection_report(sp, deph, sp.tau)
    add("dephasing_dfs_invariance", rep.dfs_max_deviation, orc.DFS_TOL * scale)
    add("dephasing_ndfs_suppression",
        np.max(np.abs(rep.per_shot_suppression - np.exp(4j * deph.draw() * sp.tau))),
        orc.DFS_TOL * scale)
    return checks


def run_verify(cfg: RunConfig) -> int:
    try:
        checks = _verify_checks(cfg)
    except ValueError as exc:  # a sigma-lambda whose dephasing phases leave the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overall = all(c["pass"] for c in checks)
    report = {"checks": checks, "overall_pass": overall}
    _write_output(json.dumps(report, indent=2, allow_nan=False) + "\n", cfg.output_path)
    return 0 if overall else 1


def run_oracle(cfg: RunConfig) -> int:
    rows = orc.phase_table(cfg.n)
    swap_passed = all(r.match for r in rows)
    rng = np.random.default_rng(cfg.seed)
    err = _formula_vs_oracle_error(rng.uniform(0, 2 * _ORACLE_SPEC.tau, 4))
    report = {
        "swap_check": {"n": cfg.n, "max_amplitude_error": max(r.deviation for r in rows),
                       "pass": swap_passed},
        "formula_vs_oracle": {"max_error": err, "tolerance": ORACLE_TOL,
                              "pass": err <= ORACLE_TOL},
    }
    overall = swap_passed and err <= ORACLE_TOL
    report["overall_pass"] = overall
    _write_output(json.dumps(report, indent=2, allow_nan=False) + "\n", cfg.output_path)
    return 0 if overall else 1


def run_phases(cfg: RunConfig) -> int:
    rows = orc.phase_table(cfg.n)
    lines = ["pattern,predicted,measured,match"]
    L = 2 * cfg.n + 1
    for r in rows:
        bits = f"{r.state:0{L}b}"[::-1]
        lines.append(f"{bits},{r.predicted:+d},{r.measured:+d},{str(r.match).lower()}")
    _write_output("\n".join(lines) + "\n", cfg.output_path)
    return 0 if all(r.match for r in rows) else 1


def main(argv=None) -> int:
    cfg = parse_config(sys.argv[1:] if argv is None else argv)
    runner = {"sweep": run_sweep, "verify": run_verify,
              "oracle": run_oracle, "phases": run_phases}[cfg.command]
    return runner(cfg)


if __name__ == "__main__":
    sys.exit(main())
