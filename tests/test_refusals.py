"""Refusals that no other test reaches, each pinned to its whole message.

An argv entry must exit 2 with nothing on stdout and exactly ``error:
<message>`` on stderr; ``{config}`` in it names a file holding the entry's
text. A callable entry must raise ValueError with exactly the message.
"""

import re
import time
import tracemalloc

import numpy as np
import pytest

from qnnwitness import cli
from qnnwitness.core import Circuit, apply_circuit
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    chunked_chunk_propagator,
    evolve_pair_dicke,
    pair_dicke_operators,
    propagate,
    refine_schedule,
)
from qnnwitness.sampler import ShotConfig
from qnnwitness.witness import METHODS, PairStateKind, TrainingItem, TrainingSet, orbit_coordinates, witness_value
from qnnwitness.witness import witness_values

from helpers import kac_lifted

CONFIG = "{config}"


def _uniform(n: int, chunks: int = 1) -> Schedule:
    return Schedule(n, 1.0, (ChunkParams.uniform(n, 0.5, 0.1, 0.2),) * chunks)


REFUSALS = {  # id: (argv and its config text, or a call; the message)
    "pair_reversed": ((["witness", "--schedule", "table2", "--pair", "1,0"], None), "pair '1,0' must satisfy i < j"),
    "pair_repeated": ((["witness", "--schedule", "table2", "--pair", "1,1"], None), "pair '1,1' must satisfy i < j"),
    "config_bad_json": ((["witness", "--config", CONFIG], "{bad"),
                        "bad config file: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "config_not_an_object": ((["witness", "--config", CONFIG], "[1]"), "config file must hold a JSON object"),
    "config_switch_not_a_bool": ((["compile", "--schedule", "table2", "--config", CONFIG], '{"no_elide": 1}'),
                                 "config key 'no_elide' must be true or false, got 1"),
    "config_list_value": ((["witness", "--config", CONFIG], '{"state": ["Bell"]}'),
                          "config key 'state' must be a string or a number, got ['Bell']"),
    "witness_method": ((["witness", "--schedule", "table2", "--method", "bogus"], None),
                       f"unknown method 'bogus', expected one of {METHODS} or 'all'"),
    "circuit_without_qubits": (lambda: Circuit(0), "circuit needs at least one qubit"),
    "circuit_on_another_register": (lambda: apply_circuit(np.ones(8, dtype=complex), Circuit(2)),
                                    "state has 3 qubits but circuit expects 2"),
    "chunk_without_qubits": (lambda: ChunkParams((), (), ()), "need at least one qubit"),
    "chunk_of_another_register": (lambda: Schedule(3, 1.0, _uniform(2).chunks),
                                  "chunk is sized for 2 qubits, schedule for 3"),
    "pair_dicke_of_one_qubit": (lambda: pair_dicke_operators(1), "the pair (x) Dicke space needs at least 2 qubits"),
    "pair_dicke_method": (lambda: evolve_pair_dicke(orbit_coordinates(3), _uniform(3), "bogus"),
                          "unknown propagation method 'bogus'"),
    "witness_value_pair_repeated": (lambda: witness_value(np.eye(4)[0], (1, 1), _uniform(2)),
                                    "pair (1, 1) must satisfy 0 <= i < j < 2"),
    "witness_value_pair_outside": (lambda: witness_value(np.eye(4)[0], (2, 0), _uniform(2)),
                                   "pair (0, 2) must satisfy 0 <= i < j < 2"),
    "chunked_propagator_size": (lambda: chunked_chunk_propagator(_uniform(2).chunks[0], 3, 0.1),
                                "parameters are sized for 2 qubits, not 3"),
    "chunked_propagator_dt_zero": (lambda: chunked_chunk_propagator(_uniform(2).chunks[0], 2, 0.0),
                                   "dt must be positive"),
    "chunked_propagator_dt_negative": (lambda: chunked_chunk_propagator(_uniform(2).chunks[0], 2, -0.1),
                                       "dt must be positive"),
    "propagate_non_square": (lambda: propagate(np.zeros((4, 2)), _uniform(2)),
                             "expected a state vector or a square density matrix"),
    "refine_by_zero": (lambda: refine_schedule(_uniform(2), 0), "refinement factor must be >= 1"),
    "shot_counts_empty": (lambda: ShotConfig(shot_counts=()), "shot_counts must be nonempty"),
}


@pytest.mark.parametrize("entry, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_reads_its_message(tmp_path, capsys, entry, message):
    if callable(entry):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry()
        return
    argv, text = entry
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    code = cli.main([str(config) if arg == CONFIG else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_an_unknown_method_is_refused_before_any_state_is_built(table3):
    # four 2**20-vector states of Kac-lifted table3 would take 64 MiB before any evolution
    n = 20
    training_set = TrainingSet(n, tuple(TrainingItem(kind, (0, 1), 0.0) for kind in PairStateKind))
    schedule = kac_lifted(table3, n)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="^unknown propagation method 'bogus'$"):
            witness_values(training_set, schedule, "bogus")
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 2**20
