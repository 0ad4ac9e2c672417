"""Per-layer tracing from outside the package.

The traced run replaces each public function named in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent, operation).  The
wrapper is bound in every ``wcavity`` module namespace that bound the
original, so calls between modules (``protocol`` calling ``dynamics``, the
package re-exports, ``cli`` calling ``validation``) are all seen.  Nothing
under ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from workloads import dense_bytes

# (module, function, whether it calls other wrapped functions, so that its
# self time differs from its inclusive time)
TARGETS = (
    ("fock", "build_basis", False),
    ("dynamics", "build_hamiltonian", False),
    ("dynamics", "propagate_numeric", False),
    ("dynamics", "evolve_closed_form", True),
    ("dynamics", "evolve_closed_form_general", True),
    ("entanglement", "fidelity", False),
    ("entanglement", "success_probability", True),
    ("entanglement", "w_state", False),
    ("entanglement", "partial_trace", False),
    ("entanglement", "concurrence", False),
    ("protocol", "timing_error_sweep", True),
    ("protocol", "coupling_disorder_sweep", True),
    ("protocol", "detuning_sweep", True),
    ("protocol", "mode_count_sweep", True),
    ("validation", "run_validation", True),
    ("validation", "measure_rabi_period", True),
    ("cli", "main", True),
)

# Counters computed from array sizes, not measured: the largest basis, the
# sum of dim**3 over propagate_numeric calls (each runs one eigh), and the
# largest dense matrix, dim**2 complex entries.
COUNTERS = {
    "fock.basis_dim.max": "states",
    "dynamics.eigh_dim3.sum": "dim3/op",
    "dynamics.dense_bytes.max": "B",
}


def _probe_basis(counters, args, kwargs, result):
    counters["fock.basis_dim.max"] = max(counters["fock.basis_dim.max"], result.dim)


def _probe_hamiltonian(counters, args, kwargs, result):
    dim = result.basis.dim
    counters["dynamics.dense_bytes.max"] = max(counters["dynamics.dense_bytes.max"], dense_bytes(dim))


def _probe_propagate(counters, args, kwargs, result):
    dim = (args[0] if args else kwargs["H"]).basis.dim
    counters["dynamics.eigh_dim3.sum"] += dim**3
    counters["dynamics.dense_bytes.max"] = max(counters["dynamics.dense_bytes.max"], dense_bytes(dim))


PROBES = {
    "fock.build_basis": _probe_basis,
    "dynamics.build_hamiltonian": _probe_hamiltonian,
    "dynamics.propagate_numeric": _probe_propagate,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit.  Sums and
    call counts are per operation (one CLI call)."""
    units = {}
    for module, func, has_children in TARGETS:
        base = f"{module}.{func}"
        units[f"{base}.calls"] = "calls/op"
        units[f"{base}.s"] = "s/op"
        if has_children:
            units[f"{base}.self_s"] = "s/op"
    units.update(COUNTERS)
    units["cli.import_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Installs the span wrappers and aggregates the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1  # operation the next spans belong to
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "wcavity") -> None:
        targets = [(importlib.import_module(f"{package}.{module}"), module, func)
                   for module, func, _ in TARGETS]
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for defining, module, func in targets:
            original = getattr(defining, func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Calls, inclusive and self seconds per operation, and the counters.
        Self time is a span's duration minus the time its child spans cover
        (children run one after another, so their durations add)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
        metrics = {}
        for module, func, has_children in TARGETS:
            name = f"{module}.{func}"
            metrics[f"{name}.calls"] = calls.get(name, 0) / ops
            metrics[f"{name}.s"] = inclusive.get(name, 0.0) / ops
            if has_children:
                metrics[f"{name}.self_s"] = own.get(name, 0.0) / ops
        metrics.update(self.counters)
        metrics["dynamics.eigh_dim3.sum"] = self.counters["dynamics.eigh_dim3.sum"] / ops
        return metrics

    def write(self, path) -> None:
        """One JSON array [name, start, end, parent, op] per span, times in
        seconds from the first span, parent an index into the file's lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, op]) + "\n")
