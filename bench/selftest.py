"""Smoke test of the benchmark at tiny sizes.

Runs every workload with tracing off and on (``--tiny --seconds 1``) and
asserts that each run reports every metric BENCHMARK.json declares, that no
item failed, and that the sweep CSV bytes are the same with tracing on and
off.  Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 11


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    *_, prov_line, result_line = proc.stdout.strip().split("\n")
    return json.loads(prov_line)["provenance"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (entry["name"] for entry in spec["workloads"]):
        digests, before = {}, len(problems)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            try:
                prov, result = run(w, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(str(exc))
                continue
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(expected))}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} items failed")
            if trace == 0 and result["metrics"]["pass_fraction"]["value"] != 1.0:
                problems.append(f"{w}: pass_fraction is not 1")
            digests[trace] = prov["inputs"].get("csv_sha256")
        if w.startswith("sweep") and (len(digests.get(0, ())) != 1
                                      or digests.get(0) != digests.get(1)):
            problems.append(f"{w}: CSV digests differ between runs or passes: {digests}")
        print(f"{w}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
