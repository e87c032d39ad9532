"""dfsqst benchmark: runs one workload in this process and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep-long --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics (plus the tracing overhead); for the sweep workloads it also reruns
the sweep with ``QST_THREADS=1`` as a single-worker baseline.  Metric names
and units come from BENCHMARK.json.  The second-to-last stdout line holds
provenance; the last line is the result object.  Provenance, metrics and
spans are also written to ``.bench_out/`` in the repository root.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 1 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def import_package():
    """Import dfsqst from this checkout's ``src/``; exit 1 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dfsqst
        import dfsqst.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import dfsqst from {src}: {exc}")
    if not Path(dfsqst.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: dfsqst was imported from {dfsqst.__file__}, not from {src}")
    return dfsqst


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--probe-setup", action="store_true",
                   help="set up (import, inputs, warm-up) and exit; used to time set-up")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _cpu_s() -> float:
    """User + system seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def one_pass(wl):
    """(wall s, cpu s, record); the record is None if the pass raised."""
    c0, t0 = _cpu_s(), time.perf_counter()
    try:
        raw, ok = wl.timed(), True
    except Exception:  # counted as a pass whose items all failed
        traceback.print_exc()
        raw, ok = None, False
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    return wall, cpu, wl.collect(raw) if ok else None


def _time_left(start, seconds, passes) -> bool:
    """True if another pass, as long as the last one, still ends within `seconds`."""
    return time.perf_counter() - start + passes[-1][0] <= seconds


def run_passes(wl, seconds, min_passes, tracer=None):
    passes, start = [], time.perf_counter()
    while len(passes) < min_passes or _time_left(start, seconds, passes):
        if tracer is not None:
            tracer.install()
        try:
            passes.append(one_pass(wl))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return passes


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it has imported, built its
    inputs and warmed up (the child reports the monotonic clock when ready)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--probe-setup"] + (["--tiny"] if args.tiny else [])
    start = time.monotonic()
    child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True, timeout=120)
    return float(child.stdout.split()[-1]) - start


def plain_run(args, wl):
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = run_passes(wl, args.seconds, min_passes=3)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(w for w, _, _ in passes)
    attempted, failed = check(wl, passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": wl.items_per_pass / wall,  # at the median pass: slow outliers skew a mean
        "cpu_s": statistics.median(c for _, c, _ in passes),
        "peak_rss_mb": peak_mb,
        "pass_fraction": (attempted - failed) / attempted,
    }
    info = {"passes": len(passes), "pass_walls_s": [w for w, _, _ in passes],
            "setup_samples_s": setup}
    return attempted, failed, metrics, info, []


def traced_run(args, wl, pkg):
    tracer = tracing.Tracer(pkg)
    plain, traced, start = [], [], time.perf_counter()
    while len(traced) < 2 or _time_left(start, args.seconds, plain):
        if len(traced) < len(plain):
            traced += run_passes(wl, 0, 1, tracer)
        else:
            plain += run_passes(wl, 0, 1)

    solo_tracer, solo = tracing.Tracer(pkg), []
    if isinstance(wl, workloads.Sweep):
        saved = os.environ.get("QST_THREADS")
        os.environ["QST_THREADS"] = "1"
        try:
            solo = run_passes(wl, args.seconds / 3, 2, solo_tracer)
        finally:
            if saved is None:
                del os.environ["QST_THREADS"]
            else:
                os.environ["QST_THREADS"] = saved

    overhead = (statistics.median(w for w, _, _ in traced)
                / statistics.median(w for w, _, _ in plain) - 1.0)
    output_bytes = statistics.median(wl.output_bytes(r) if r else 0 for _, _, r in traced)
    metrics = tracing.layer_metrics(tracer, len(traced), output_bytes,
                                  solo_tracer.durations("sweep_fidelity"), overhead)
    attempted, failed = check(wl, plain + traced + solo)
    info = {"passes": {"plain": len(plain), "traced": len(traced), "single_worker": len(solo)},
            "absent": sorted(tracer.absent | solo_tracer.absent),
            "computed": list(tracing.COMPUTED),
            "tail_quantile": 0.9,
            "point_samples": len(tracer.durations("_point_fidelities"))}
    return attempted, failed, metrics, info, tracer.spans


def check(wl, passes):
    """(items attempted, items failed) over every pass, checked after timing."""
    failed = sum(wl.items_per_pass if rec is None else wl.check(rec) for _, _, rec in passes)
    return wl.items_per_pass * len(passes), failed


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(args, pkg, wl) -> dict:
    import numpy
    import scipy
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "dfsqst": getattr(pkg, "__version__", None), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(), "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QST_THREADS")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model, "cache": caches,
        "items_per_pass": wl.items_per_pass,
        "inputs": wl.describe(),
    }


def declared_metrics(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, pkg, args.seed, OUT, args.tiny)
    try:
        wl.warm_up()
        if args.probe_setup:
            print(time.monotonic())
            return 0
        setup_own = time.perf_counter() - T_START
        if args.trace:
            attempted, failed, metrics, info, spans = traced_run(args, wl, pkg)
        else:
            attempted, failed, metrics, info, spans = plain_run(args, wl)
    finally:
        wl.close()

    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    prov = provenance(args, pkg, wl)
    prov.update(info, setup_own_s=setup_own, attempted=attempted, failed=failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    sidecar = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sidecar.write_text(json.dumps({"provenance": prov, "result": result, "spans": spans}))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
