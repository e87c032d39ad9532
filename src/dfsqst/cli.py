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
import json
import math
import os
import sys
import tempfile

import numpy as np

from .model import derive_parameters
from .propagator import (closed_form_effective_elements, eigendecompose,
                         mirror_inversion_report, propagator_at)
from .model import build_effective_coupling_matrix, build_full_coupling_matrix
from .fidelity import (RegisterElements, _worker_count, default_ratio_grid,
                       extract_register_elements, f_dfs, f_ndfs, register_elements,
                       sweep_fidelity)
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
    shots: int = 200
    seed: int = 42
    output_path: str | None = None
    format: str = "csv"
    tolerance_scale: float = 1.0


_DEFAULTS = {k: v for k, v in vars(RunConfig(command="")).items() if k != "command"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dfsqst", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("sweep", "verify", "oracle", "phases"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--n", type=int)
        sp.add_argument("--channel-lengths", type=int, nargs="+", dest="channel_lengths")
        sp.add_argument("--ratio-min", type=float, dest="ratio_min")
        sp.add_argument("--ratio-max", type=float, dest="ratio_max")
        sp.add_argument("--ratio-steps", type=int, dest="ratio_steps")
        sp.add_argument("--linear", action="store_const", const=True)
        sp.add_argument("--encoding", choices=["dfs", "ndfs", "both"])
        sp.add_argument("--time")
        sp.add_argument("--sigma-lambda", type=float, dest="sigma_lambda")
        sp.add_argument("--shots", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--output", dest="output_path")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--tolerance-scale", type=float, dest="tolerance_scale")
    return p


def _is_number(value, integer: bool = False) -> bool:
    kinds = int if integer else (int, float)
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range is fine only where ints go
        return integer


def _valid(key: str, value) -> bool:
    """Whether a flag or config value has its default's type and, if a number, is finite."""
    default = _DEFAULTS[key]
    if key == "time":
        return value == "tau" or _is_number(value)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list) and all(_is_number(v, integer=True) for v in value)
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    return _is_number(value, integer=isinstance(default, int))


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)

    merged = dict(_DEFAULTS)
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _DEFAULTS:
        val = getattr(ns, key, None)
        if val is not None:
            merged[key] = val

    if isinstance(merged["time"], str) and merged["time"] != "tau":
        try:
            merged["time"] = float(merged["time"])
        except ValueError:
            pass  # still a string, so rejected below
    # validation; any violation is a usage error (exit 2)
    for key, value in merged.items():
        if not _valid(key, value):
            parser.error(f"invalid {key} value {value!r}")
    cfg = RunConfig(command=ns.command, **merged)

    if cfg.n < 1:
        parser.error("n must be >= 1")
    if cfg.command == "sweep":
        if cfg.n != 2:
            parser.error("sweep evaluates the n = 2 fidelity formulas; n must be 2")
        try:
            _worker_count(None)  # reads QST_THREADS
        except ValueError as exc:
            parser.error(str(exc))
    if not cfg.channel_lengths:
        parser.error("channel length list must not be empty")
    for N in cfg.channel_lengths:
        if N < 1 or N % 2 == 0:
            parser.error(f"channel length must be a positive odd integer, got {N}")
    if cfg.ratio_steps < 1:
        parser.error("ratio-steps must be >= 1")
    if (min(cfg.ratio_min, cfg.ratio_max) <= 0
            or (cfg.ratio_min >= cfg.ratio_max and cfg.ratio_steps > 1)):
        parser.error("need 0 < ratio-min < ratio-max")
    if cfg.shots < 2:
        parser.error("shots must be >= 2 (the NDFS check needs a standard error)")
    if cfg.seed < 0:
        parser.error("seed must be >= 0")
    if cfg.sigma_lambda < 0:
        parser.error("sigma-lambda must be >= 0")
    if cfg.encoding not in ("dfs", "ndfs", "both") or cfg.format not in ("csv", "json"):
        parser.error(f"unknown encoding {cfg.encoding!r} or format {cfg.format!r}")
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


def _formula_vs_oracle_error(times) -> float:
    """Largest |sweep engine - many-body oracle| fidelity gap over both encodings."""
    omega = build_full_coupling_matrix(_ORACLE_SPEC)
    err = 0.0
    for t in map(float, times):
        e = register_elements(omega, t)
        err = max(err,
                  abs(f_dfs(e) - orc.average_fidelity_bruteforce(_ORACLE_SPEC, "dfs", t)),
                  abs(f_ndfs(e) - orc.average_fidelity_bruteforce(_ORACLE_SPEC, "ndfs", t)))
    return err


def _verify_checks(cfg: RunConfig):
    scale = cfg.tolerance_scale
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def add(name, max_error, tolerance):
        if not math.isfinite(tolerance):
            raise ValueError(f"tolerance-scale {scale!r} makes the {name} tolerance overflow")
        checks.append({"name": name, "max_error": float(max_error),
                       "tolerance": float(tolerance),
                       "pass": bool(max_error <= tolerance)})

    # mirror inversion, n = 1..4
    err = max(mirror_inversion_report(derive_parameters(nn, 3, 1.0, 0.1)).max_error
              for nn in (1, 2, 3, 4))
    add("mirror_inversion", err, 1e-10 * scale)

    # closed-form elements, n = 2 effective, 1000 times in [0, 2 tau]
    spec = derive_parameters(2, 3, 1.0, 0.1)
    dec = eigendecompose(build_effective_coupling_matrix(spec))
    err = 0.0
    for t in np.linspace(0.0, 2 * spec.tau, 1000):
        e = extract_register_elements(propagator_at(dec, t))
        c11, c22, c12 = closed_form_effective_elements(spec.g0, t)
        err = max(err, abs(e.d_r1l1 - c11), abs(e.d_r2l2 - c22), abs(e.d_r1l2 - c12))
    add("closed_form_match", err, 1e-10 * scale)

    # unitarity of full-model propagators over random specs
    err = 0.0
    for _ in range(20):
        sp = derive_parameters(int(rng.integers(1, 4)),
                               int(rng.choice([3, 5, 7, 51, 101])),
                               1.0, float(rng.uniform(0.01, 1.0)))
        d = propagator_at(eigendecompose(build_full_coupling_matrix(sp)),
                          float(rng.uniform(0, 2 * sp.tau))).entries
        err = max(err, float(np.max(np.abs(d.conj().T @ d - np.eye(len(d))))))
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
        _formula_vs_oracle_error(rng.uniform(0, 2 * _ORACLE_SPEC.tau, 4)), 1e-8 * scale)

    # dephasing protection, effective model
    sp = derive_parameters(2, 3, 1.0, 0.1)
    sigma = (cfg.sigma_lambda if cfg.sigma_lambda > 0 else 0.5 / sp.tau)
    rep = orc.dephasing_protection_report(
        sp, orc.DephasingModel(sigma_lambda=sigma, samples=cfg.shots, seed=cfg.seed),
        sp.tau)
    add("dephasing_dfs_invariance", rep.dfs_max_deviation, 1e-10 * scale)
    add("dephasing_ndfs_suppression",
        abs(rep.ndfs_measured_suppression - rep.ndfs_predicted_suppression),
        3.0 * rep.ndfs_stderr * scale)
    return checks


def run_verify(cfg: RunConfig) -> int:
    try:
        checks = _verify_checks(cfg)
    except ValueError as exc:  # an option value whose checks leave the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overall = all(c["pass"] for c in checks)
    report = {"checks": checks, "overall_pass": overall}
    _write_output(json.dumps(report, indent=2, allow_nan=False) + "\n", cfg.output_path)
    return 0 if overall else 1


def run_oracle(cfg: RunConfig) -> int:
    swap = orc.effective_swap_check(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    err = _formula_vs_oracle_error(rng.uniform(0, 2 * _ORACLE_SPEC.tau, 4))
    report = {
        "swap_check": {"n": swap.n, "max_amplitude_error": swap.max_amplitude_error,
                       "pass": swap.passed},
        "formula_vs_oracle": {"max_error": err, "tolerance": 1e-8, "pass": err <= 1e-8},
    }
    overall = swap.passed and err <= 1e-8
    report["overall_pass"] = overall
    _write_output(json.dumps(report, indent=2, allow_nan=False) + "\n", cfg.output_path)
    return 0 if overall else 1


def run_phases(cfg: RunConfig) -> int:
    rows = orc.phase_table(cfg.n)
    lines = ["pattern,predicted,measured,match"]
    for r in rows:
        bits = "".join(str(b) for b in
                       list(r.pattern.n_L) + [r.pattern.n_kappa] + list(r.pattern.n_R[::-1]))
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
