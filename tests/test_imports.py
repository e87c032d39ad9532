"""The import graph: the sweep engine does not load its dense reference,
the oracle runs on numpy alone, and no module imports a name it does not
use or exports one it does not define."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _names(tree: ast.Module) -> tuple[dict[str, int], set[str], set[str], list[str]]:
    """A module's imported names (with their lines), the names it reads, the
    names it binds at top level, and its `__all__`."""
    imported, bound, exported = {}, set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return imported, read, bound | set(imported), exported


@pytest.mark.parametrize("path", sorted(Path(dfsqst.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used_and_every_export_defined(path):
    # no linter runs on the package; a deletion leaves its imports behind
    imported, read, bound, exported = _names(ast.parse(path.read_text()))
    unused = {name: line for name, line in imported.items() if name not in read}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
    assert not set(exported) - bound, f"{path.name} exports undefined {set(exported) - bound}"
