"""Span tracer that times dfsqst's layers from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` with a timing
wrapper in every dfsqst module that binds it (the defining module and the
modules that import it by name, such as ``dfsqst.fidelity`` and
``dfsqst.cli``); ``uninstall`` puts the originals back.  A call is recorded
once, under the binding it went through.  Spans (name, start, end, parent,
thread id) stay in memory until the run writes them out.  A name that no
module binds any more is listed in ``absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import Counter

# Layer -> functions whose calls are timed.  ``_point_fidelities`` is the one
# private name: it is the per-grid-point task the sweep maps over its worker
# pool, and no public function has that boundary.
LAYERS = {
    "model": ("derive_parameters", "build_full_coupling_matrix",
              "build_effective_coupling_matrix"),
    "propagator": ("eigendecompose", "propagator_at"),
    "fidelity": ("sweep_fidelity", "_point_fidelities",
                 "extract_register_elements", "f_dfs", "f_ndfs"),
    "oracle": ("spin_hamiltonian_from_coupling", "average_fidelity_bruteforce",
               "dephasing_protection_report"),
    "cli": ("main",),
}
MODULES = ("model", "propagator", "fidelity", "oracle", "cli")


# Count hooks: (bound arguments, result) -> {metric: value}.  Counts marked
# computed are derived from array shapes and arguments, not observed.
def _dense_bytes(a, out):
    return {"model.dense_bytes": 8 * out.order ** 2}


def _order(a, out):
    return {"propagator.order_max": a["omega"].order}


def _entries_formed(a, out):
    return {"propagator.entries_formed": out.entries.size}


def _entries_used(a, out):
    return {"propagator.entries_used": 4}


def _hilbert_dim(a, out):
    return {"oracle.hilbert_dim": out.shape[0]}


def _channel_bits(a):
    return a["spec"].N if a["which"] == "full" else 1


def _bruteforce_counts(a, out):
    states = 6 << _channel_bits(a) if a["channel_init"] == "maximally-mixed" else 6
    deph = a["deph"]
    shots = deph.samples if deph is not None and deph.sigma_lambda > 0 else 1
    return {"oracle.states_evolved": states, "oracle.dephase_evals": states * shots}


def _report_counts(a, out):
    # DFS: every Pauli-axis state at lambda = 0 and per shot; NDFS: the |+>
    # input only.  Both encodings evolve all six inputs per channel state.
    channel = 1 << _channel_bits(a)
    per_lambda = 6 * channel + channel
    return {"oracle.states_evolved": 2 * 6 * channel,
            "oracle.dephase_evals": per_lambda * (1 + a["deph"].samples)}


HOOKS = {
    "build_full_coupling_matrix": _dense_bytes,
    "build_effective_coupling_matrix": _dense_bytes,
    "eigendecompose": _order,
    "propagator_at": _entries_formed,
    "extract_register_elements": _entries_used,
    "spin_hamiltonian_from_coupling": _hilbert_dim,
    "average_fidelity_bruteforce": _bruteforce_counts,
    "dephasing_protection_report": _report_counts,
}
MAXIMA = {"propagator.order_max", "oracle.hilbert_dim"}
COMPUTED = ("model.dense_bytes", "oracle.states_evolved", "oracle.dephase_evals")
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}


class Tracer:
    def __init__(self, package):
        self._modules = [getattr(package, m) for m in MODULES if hasattr(package, m)]
        self.spans: list[list] = []   # [name, start, end, parent index | None, thread id]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list = []

    def install(self) -> None:
        for name in LAYER_OF:
            found = False
            for mod in self._modules:
                fn = mod.__dict__.get(name)
                if callable(fn):
                    found = True
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, self._wrap(name, fn))
            if not found:
                self.absent.add(name)

    def uninstall(self) -> None:
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:  # a pool worker's first span: caused by the main thread's open span
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            record = [name, 0.0, 0.0, parent, tid]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self._count(name, hook, sig, args, kwargs, out)
            return out

        return traced

    def _count(self, name, hook, sig, args, kwargs, out):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = hook(bound.arguments, out)
        except (AttributeError, KeyError, TypeError):
            self.absent.add(f"{name}:counts")
            return
        with self._lock:
            for key, value in values.items():
                if key in MAXIMA:
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value

    def self_times(self) -> list[float]:
        """Span duration minus same-thread child spans (per-thread self time)."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, tid in self.spans:
            if parent is not None and self.spans[parent][4] == tid:
                out[parent] -= end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, passes: int, output_bytes: float,
                  single_worker_walls: list[float], overhead_frac: float) -> dict:
    """Per-layer metrics, each per traced pass unless it is a max or ratio."""
    self_t = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    for (name, *_), s in zip(tracer.spans, self_t):
        by_name.setdefault(name, []).append(s)

    def self_s(*names):
        return sum(sum(by_name.get(n, ())) for n in names) / passes

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names) / passes

    c = tracer.counts
    sweeps = tracer.durations("sweep_fidelity")
    points = tracer.durations("_point_fidelities")
    formed, used = c["propagator.entries_formed"], c["propagator.entries_used"]
    pooled = statistics.median(sweeps) if sweeps else 0.0
    single = statistics.median(single_worker_walls) if single_worker_walls else 0.0
    return {
        "model.build_s": self_s(*LAYERS["model"]),
        "model.calls": calls(*LAYERS["model"]),
        "model.dense_bytes": c["model.dense_bytes"] / passes,
        "propagator.eigendecompose_s": self_s("eigendecompose"),
        "propagator.eigendecompose_calls": calls("eigendecompose"),
        "propagator.order_max": c["propagator.order_max"],
        "propagator.propagator_at_s": self_s("propagator_at"),
        "propagator.entries_formed": formed / passes,
        "propagator.entries_used": used / passes,
        "propagator.useful_entry_ratio": used / formed if formed else 0.0,
        "fidelity.sweep_s": sum(sweeps) / passes,
        "fidelity.formula_s": self_s("extract_register_elements", "f_dfs", "f_ndfs"),
        "fidelity.points": len(points) / passes,
        "fidelity.point_p50_s": _quantile(points, 0.5),
        "fidelity.point_tail_s": _quantile(points, 0.9),
        "fidelity.overlap": sum(points) / sum(sweeps) if sweeps else 0.0,
        "fidelity.single_worker_wall_s": single,
        "fidelity.pool_speedup": single / pooled if single and pooled else 0.0,
        "oracle.hamiltonian_s": self_s("spin_hamiltonian_from_coupling"),
        "oracle.pipeline_self_s": self_s("average_fidelity_bruteforce",
                                         "dephasing_protection_report"),
        "oracle.calls": calls("average_fidelity_bruteforce", "dephasing_protection_report"),
        "oracle.hilbert_dim": c["oracle.hilbert_dim"],
        "oracle.states_evolved": c["oracle.states_evolved"] / passes,
        "oracle.dephase_evals": c["oracle.dephase_evals"] / passes,
        "cli.self_s": self_s("main"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": overhead_frac,
    }
