"""In-memory spans around calls into qnnwitness's public functions.

The benchmark measures each layer from outside: :class:`Tracer` replaces
a function at the module attribute its caller looks it up through, records
one span per call and puts every original back when the traced pass ends.
A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span and ``op`` the id of the benchmark op that
caused it. Spans stay in memory until :meth:`Tracer.write` at the end of
the run.

Parents come from one call stack, so the tracer assumes calls are made
from one thread; the benchmark keeps ``QNN_THREADS`` unset for that.
"""

from __future__ import annotations

import importlib
import json
from collections import OrderedDict
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _n_of(position: int):
    """Attrs function reading ``n`` from the schedule or circuit at ``position``."""

    def attrs(*args, **_kwargs):
        return {"n": args[position].n_qubits}

    return attrs


def _witness_value_attrs(initial, pair, schedule, method="chunked"):
    return {"n": schedule.n_qubits, "method": method}


def _evolve_attrs(states, schedule, method="exact"):
    return {"n": schedule.n_qubits, "method": method}


def _witness_values_attrs(training_set, schedule, method="chunked"):
    return {"n": schedule.n_qubits, "method": method}


def _gradient_attrs(schedule, training_set, config):
    return {"n": schedule.n_qubits, "method": config.method}


def _chunk_attrs(params, n, dt):
    return {"n": n}


def _shots_attrs(final_state, pair, n_shots, rng):
    return {"shots": n_shots}


# (module, attribute, span name, attrs function). Some functions are looked
# up through more than one module: ``witness`` and ``compiler`` import names
# at module load, while ``sampler.sweep`` and ``witness._final_state`` import
# ``compile_schedule`` and ``apply_circuit`` from their home module at call
# time. Each attribute is patched once, so no call is counted twice.
PATCHES = [
    ("qnnwitness.cli", "main", "cli.main", None),
    ("qnnwitness.cli", "witness_value", "witness.witness_value", _witness_value_attrs),
    ("qnnwitness.cli", "verify_equivalence", "compiler.verify_equivalence", _n_of(0)),
    ("qnnwitness.cli", "compile_schedule", "compiler.compile_schedule", _n_of(0)),
    ("qnnwitness.cli", "export_qasm", "compiler.export_qasm", _n_of(0)),
    ("qnnwitness.compiler", "compile_schedule", "compiler.compile_schedule", _n_of(0)),
    ("qnnwitness.compiler", "circuit_unitary", "core.circuit_unitary", _n_of(0)),
    ("qnnwitness.witness", "circuit_unitary", "core.circuit_unitary", _n_of(0)),
    ("qnnwitness.witness", "apply_circuit", "core.apply_circuit", _n_of(1)),
    ("qnnwitness.core", "apply_circuit", "core.apply_circuit", _n_of(1)),
    ("qnnwitness.witness", "evolve_states", "hamiltonian.evolve_states", _evolve_attrs),
    ("qnnwitness.hamiltonian", "evolve_states", "hamiltonian.evolve_states", _evolve_attrs),
    ("qnnwitness.hamiltonian", "chunked_chunk_propagator", "hamiltonian.chunked_chunk_propagator", _chunk_attrs),
    ("qnnwitness.trainer", "witness_values", "witness.witness_values", _witness_values_attrs),
    ("qnnwitness.trainer", "gradient", "trainer.gradient", _gradient_attrs),
    ("qnnwitness.trainer", "map_ordered", "parallel.map_ordered", None),
    ("qnnwitness.sampler", "map_ordered", "parallel.map_ordered", None),
    ("qnnwitness.sampler", "rng_stream", "sampler.rng_stream", None),
    ("qnnwitness.sampler", "sample_zz_mean", "sampler.sample_zz_mean", _shots_attrs),
]

EXACT_PROPAGATOR = ("qnnwitness.hamiltonian", "exact_chunk_propagator", "hamiltonian.exact_chunk_propagator")


class Tracer:
    """Records spans while active (``with tracer:``) and an op is open.

    Calls made outside an op, such as those from output checks, pass
    straight through, so spans and counts cover timed work only.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # mirror of the exact propagator's LRU cache: key -> n, most recent last
        self.exact_cache: OrderedDict = OrderedDict()

    def open(self, name: str, attrs: dict | None = None) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            if self.op is None:  # outside a timed op, e.g. an output check
                return fn(*args, **kwargs)
            record = self.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(record)

        traced.__wrapped__ = fn
        return traced

    def wrap_cached(self, name: str, fn):
        """Span around an ``lru_cache`` function, marking each call a hit or a miss."""
        maxsize = fn.cache_parameters()["maxsize"]

        def traced(params, n, dt):
            key = (params, n, dt)
            self.exact_cache[key] = n
            self.exact_cache.move_to_end(key)
            if maxsize is not None and len(self.exact_cache) > maxsize:
                self.exact_cache.popitem(last=False)
            if self.op is None:
                return fn(params, n, dt)
            misses = fn.cache_info().misses
            record = self.open(name, {"n": n})
            try:
                return fn(params, n, dt)
            finally:
                self.close(record)
                record[ATTRS]["miss"] = fn.cache_info().misses > misses

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, attrs in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs))
        module_name, attr, name = EXACT_PROPAGATOR
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap_cached(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                row = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if attrs:
                    row.update(attrs)
                out.write(json.dumps(row) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
