"""The benchmark in ``perfbench/`` calls into the package by name.

``perfbench/spans.py`` patches module attributes to trace each layer, and
``perfbench/workloads.py`` imports the functions it times. Both files are
read here as source, never imported or changed, and every name they use
must still resolve, so a refactor that renames or drops one fails here
rather than in a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from qnnwitness import hamiltonian, sampler, trainer
from qnnwitness.fixtures import fixture_schedule
from qnnwitness.hamiltonian import exact_chunk_propagator
from qnnwitness.witness import PairStateKind, build_training_set

from helpers import count_calls

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return node.value
    raise AssertionError(f"perfbench/spans.py assigns no {target}")


def _spans_patches() -> list[tuple[str, str, str | None]]:
    """(module, attribute, attrs function name or None) of every patch."""
    tree = _module_tree("spans.py")
    out = []
    for entry in _assigned(tree, "PATCHES").elts:
        module, attr, _span, attrs = entry.elts
        out.append((module.value, attr.value, attrs.id if isinstance(attrs, ast.Name) else None))
    module, attr, _span = _assigned(tree, "EXACT_PROPAGATOR").elts
    out.append((module.value, attr.value, None))
    return out


def _attrs_parameters() -> dict[str, list[str]]:
    """Parameter names of each attrs function ``spans.py`` defines at top level."""
    return {
        node.name: [arg.arg for arg in node.args.args]
        for node in _module_tree("spans.py").body
        if isinstance(node, ast.FunctionDef)
    }


def _workload_imports() -> list[tuple[str, str]]:
    return [
        (node.module, alias.name)
        for node in ast.walk(_module_tree("workloads.py"))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qnnwitness"
        for alias in node.names
    ]


def _lookup(module_name: str, attr: str):
    """The object ``module_name.attr`` names, or None when it no longer exists."""
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        try:  # a submodule, as in ``from qnnwitness import cli``
            importlib.import_module(f"{module_name}.{attr}")
        except ImportError:
            return None
    return getattr(module, attr, None)


def test_patched_attributes_resolve():
    patches = _spans_patches()
    assert ("qnnwitness.hamiltonian", "chunked_chunk_propagator", "_chunk_attrs") in patches
    attrs_parameters = _attrs_parameters()
    problems = []
    for module_name, attr, attrs in patches:
        target = _lookup(module_name, attr)
        if not callable(target):
            problems.append(f"{module_name}.{attr} is not a function")
        elif attrs in attrs_parameters:
            # the tracer calls attrs(*args, **kwargs) with the target's own arguments
            wanted = attrs_parameters[attrs]
            got = list(inspect.signature(target).parameters)[: len(wanted)]
            if got != wanted:
                problems.append(f"{module_name}.{attr}{tuple(got)} no longer fits {attrs}{tuple(wanted)}")
    assert problems == []


def test_workload_imports_resolve():
    imports = _workload_imports()
    assert ("qnnwitness.trainer", "bootstrap_chain") in imports
    assert [f"{module}.{attr}" for module, attr in imports if _lookup(module, attr) is None] == []


def test_exact_propagator_keeps_its_cache_interface():
    # the tracer mirrors the cache from cache_parameters()/cache_info(), and
    # each timed pass starts from cache_clear()
    for name in ("cache_clear", "cache_info", "cache_parameters"):
        assert callable(getattr(exact_chunk_propagator, name))
    assert exact_chunk_propagator.cache_parameters()["maxsize"] is not None


def test_sweep_calls_the_traced_sampler_functions(monkeypatch):
    # the tracer's sampler.* metrics count calls through these module globals:
    # each run of a sweep is one sample_zz_mean on its own rng_stream; a sweep
    # that stopped calling them would leave those metrics reading 0
    calls = count_calls(monkeypatch, [(sampler, "rng_stream"), (sampler, "sample_zz_mean")])
    config = sampler.ShotConfig(shot_counts=(100, 200, 300), iterations=7)
    sampler.sweep(fixture_schedule("table2"), PairStateKind.BELL, (0, 1), config)
    assert calls == {"rng_stream": 21, "sample_zz_mean": 21}


def test_gradient_sweeps_do_not_grow_with_parameter_count(monkeypatch):
    # trainer.gradient is timed by that name and must cost one forward and one
    # backward sweep whatever the number of parameters, and no loss
    # evaluation; a per-parameter loss loop would scale with P. It also means
    # the tracer's trainer.loss_evals_per_epoch, which counts witness_values
    # spans inside gradient spans, reads 0.
    schedule, training_set = fixture_schedule("table3"), build_training_set(7)
    chunks = schedule.n_chunks
    # the 12-parameter symmetric gradient runs in the total-spin sectors of the
    # pair (x) Dicke space: one build of every chunk's sector blocks, one
    # forward and one backward step per chunk, no dense Hamiltonian. exact
    # builds its blocks by one batched eigh of their Hamiltonians, chunked in
    # closed form from one cached basis, with no eigh
    calls = count_calls(monkeypatch, [
        (hamiltonian, "_forward_step"), (hamiltonian, "_chunked_backward"), (hamiltonian, "_exact_backward"),
        (hamiltonian, "spin_sector_hamiltonian"), (hamiltonian, "wigner_basis"), (np.linalg, "eigh"),
        (hamiltonian, "build_hamiltonian"), (trainer, "witness_values"),
    ])
    builds = {"exact": {"spin_sector_hamiltonian": 1, "eigh": 1}, "chunked": {"wigner_basis": 1}}
    for method in ("chunked", "exact"):
        _, grad = trainer.gradient(schedule, training_set, trainer.TrainerConfig(method=method))
        assert len(grad) == 12
        steps = {"_forward_step": chunks, f"_{method}_backward": chunks}
        assert calls == {**dict.fromkeys(calls, 0), **steps, **builds[method]}, method
        calls.update(dict.fromkeys(calls, 0))
