"""Mutation checks: each mutant is one exact text substitution in a file of
src/dfsqst, and at least one of the tests named with it must fail on it.

    python tests/mutants.py

For each mutant the script copies src/, tests/ and pyproject.toml into a
fresh temporary directory, applies the substitution there and runs the
named tests with pytest, stopping at the first failure.  A mutant is caught
when pytest reports a failed test (exit status 1); any other status is an
error.  A substitution whose text is not found exactly once in its file is
an error too, so a mutant whose code has changed is reported, not skipped.
Before any mutant runs, every named test must pass on an unmutated copy,
and that copy must be the package the tests import.

SURVIVORS are mutants the named tests are known not to catch: each must
still apply and its tests must still pass, so a test that starts to catch
one is reported and the mutant can move to MUTANTS.

The file name does not match test_*.py, so tier-1 runs do not collect it.
Exits 0 when every mutant is caught and every survivor survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/dfsqst
    old: str
    new: str
    tests: tuple[str, ...]


FIDELITY_TESTS = "tests/test_fidelity.py::"
SECTOR_TESTS = "tests/test_oracle.py::TestSectorEvolve::"
# `_evolve_basis`'s sin/cos of S t, cached per SVD under the key {0}
TRIG_CACHE = ("        if {0} not in trig:  # sectors m and L - m share S\n"
              "            trig[{0}] = (-2.0 * np.sin(S * t / 2) ** 2)[:, None], "
              "np.sin(S * t)[:, None]\n"
              "        cos1, sin = trig[{0}]\n")

# `_evolve_basis`'s bounds of the runs of equal block keys
EDGES = ("    edges = [a for a in range(len(keys) + 1) "
         "if a in (0, len(keys)) or keys[a] != keys[a - 1]]\n")

MUTANTS = (
    Mutant("wrong diagonal offset in a gap block", "fidelity.py",
           "g.reshape(r, -1)[:, k0::p + 1] = 1.0", "g.reshape(r, -1)[:, ::p + 1] = 1.0",
           (FIDELITY_TESTS + "TestRegisterElements::test_any_block_height_is_bit_identical",)),
    Mutant("mixed-stack mask dropped from the product form", "fidelity.py",
           "np.multiply(g, s, out=g, where=fit)", "np.multiply(g, s, out=g)",
           (FIDELITY_TESTS + "TestSweepStacks",)),
    Mutant("first-bond sign lost", "fidelity.py",
           "            signs[..., 1:3] *= prefix[..., :1]\n", "",
           (FIDELITY_TESTS + "TestRegisterElements::test_matches_dense_propagator",)),
    Mutant("every chain at the first chain's time", "fidelity.py",
           "ts = t[:, j0:j0 + step, None]", "ts = t[:1, j0:j0 + step, None]",
           (FIDELITY_TESTS + "TestSweepStacks",)),
    Mutant("numpy's complex array multiply in F_DFS", "fidelity.py",
           "coherence = a.real * b.real + a.imag * b.imag",
           "coherence = (np.conj(a) * b).real",
           (FIDELITY_TESTS + "TestFidelityFormulas::test_array_formulas_are_the_scalar_bits",
            FIDELITY_TESTS + "TestFidelityFormulas"
            "::test_array_formulas_are_the_scalar_bits_on_a_large_batch")),
    Mutant("_is_real without its range test", "model.py",
           "        float(x)\n    except OverflowError:",
           "        pass\n    except OverflowError:",
           ("tests/test_inputs.py::test_coupling_beyond_the_float_range_is_refused",)),
    Mutant("pipeline n rule loosened to n <= 3", "oracle.py",
           "    if spec.n != 2:\n        raise ValueError(\"the encode/decode pipeline",
           "    if spec.n > 3:\n        raise ValueError(\"the encode/decode pipeline",
           ("tests/test_inputs.py::test_dephasing_report_needs_two_qubit_registers",)),
    Mutant("sweep time check dropped", "fidelity.py",
           "    if not (_is_real(t_choice) or isinstance(t_choice, str) and t_choice == \"tau\"):",
           "    if False:",
           ("tests/test_inputs.py::test_sweep_time_must_be_a_real_number",)),
    Mutant("time-array rows reversed", "fidelity.py",
           "np.array(times, dtype=float)[None]", "np.array(times, dtype=float)[::-1][None]",
           (FIDELITY_TESTS + "TestTimeArrays::test_each_time_is_the_scalar_call",)),
    Mutant("time-array chunks one time too long", "fidelity.py",
           "ts = t[:, j0:j0 + step, None]", "ts = t[:, j0:j0 + step + 1, None]",
           (FIDELITY_TESTS + "TestTimeArrays::test_each_time_is_the_scalar_call",)),
    Mutant("every time of a block evaluated at the block's first time", "fidelity.py",
           "ts = t[:, j0:j0 + step, None]", "ts = t[:, j0:j0 + 1, None]",
           (FIDELITY_TESTS + "TestTimeArrays::test_each_time_is_the_scalar_call",)),
    Mutant("evolve runs split one start late", "oracle.py",
           EDGES, EDGES + "    edges[1:-1] = [e + 1 for e in edges[1:-1]]\n",
           (SECTOR_TESTS + "test_grouped_starts_are_their_runs_alone",
            SECTOR_TESTS + "test_matches_dense_evolve_state")),
    Mutant("evolve sin/cos cache keyed on the half, not the SVD", "oracle.py",
           TRIG_CACHE.format("m"), TRIG_CACHE.format("h"),
           (SECTOR_TESTS + "test_grouped_starts_are_their_runs_alone",
            SECTOR_TESTS + "test_matches_dense_evolve_state")),
)

SURVIVORS = (
    # x * x differs from the scalar ** 2 in rare last bits, but only in the
    # test of which gap form a chain takes, where no test draws a sum whose
    # square lands on the other side of the threshold
    Mutant("np.square in the gap-form test", "fidelity.py",
           "np.float_power(sig[:, 0] + sig[:, 1], 2.0)", "np.square(sig[:, 0] + sig[:, 1])",
           (FIDELITY_TESTS + "TestRegisterElements", FIDELITY_TESTS + "TestSweepStacks")),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _run(tree: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    return _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests])


def _tail(proc: subprocess.CompletedProcess) -> str:
    return "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-15:])


def _check_baseline() -> list[str]:
    """Errors of the unmutated copy: it must be the imported package, and
    every named test must pass on it."""
    tests = sorted({t for m in MUTANTS + SURVIVORS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        found = _run(tree, ["-c", "import dfsqst; print(dfsqst.__file__)"]).stdout.strip()
        if not Path(found).resolve().is_relative_to(tree.resolve()):
            return [f"the copy's tests import dfsqst from {found!r}, not from the copy"]
        proc = _pytest(tree, tests)
        if proc.returncode != 0:
            return [f"the named tests do not all pass unmutated (exit {proc.returncode}):\n"
                    + _tail(proc)]
    return []


def _apply(tree: Path, mutant: Mutant) -> str | None:
    """Apply the substitution in the copy; an error message if it does not apply once."""
    path = tree / "src" / "dfsqst" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"its text is found {count} times in src/dfsqst/{mutant.file}, not once"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def _check(mutant: Mutant, survivor: bool) -> str | None:
    """Run one mutant; an error message unless it is caught (or, for a
    listed survivor, unless it survives)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        error = _apply(tree, mutant)
        if error:
            return error
        proc = _pytest(tree, mutant.tests)
    if proc.returncode == (0 if survivor else 1):
        return None
    if proc.returncode == 1:
        return "a listed survivor is now caught: move it to MUTANTS"
    if proc.returncode == 0:
        return "no named test fails on it"
    return f"pytest exited {proc.returncode}:\n" + _tail(proc)


def main() -> int:
    start = time.perf_counter()
    errors = _check_baseline()
    print(f"{'ERROR' if errors else 'passed':8} the named tests, unmutated "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    for mutant, survivor in ([(m, False) for m in MUTANTS] + [(m, True) for m in SURVIVORS]):
        if errors:
            break
        t0 = time.perf_counter()
        error = _check(mutant, survivor)
        verdict = "ERROR" if error else "survived" if survivor else "caught"
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
        if error:
            errors.append(f"{mutant.name}: {error}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(SURVIVORS)} listed survivor(s), "
          f"{len(errors)} error(s), {time.perf_counter() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
