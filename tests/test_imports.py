"""The import graph: the sweep engine does not load its dense reference,
and the oracle runs on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import dfsqst

SRC = str(Path(dfsqst.__file__).resolve().parents[1])


def modules_after_import(module: str) -> set[str]:
    """The names in sys.modules of a fresh interpreter once it has imported `module`."""
    code = f"import sys, {module}; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_the_engine_does_not_import_the_dense_reference():
    loaded = modules_after_import("dfsqst.fidelity")
    assert "dfsqst.fidelity" in loaded
    assert "dfsqst.propagator" not in loaded


def test_the_oracle_loads_no_scipy():
    loaded = modules_after_import("dfsqst.oracle")
    assert "dfsqst.oracle" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
