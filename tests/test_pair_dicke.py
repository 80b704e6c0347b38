"""The pair (x) Dicke backend against the dense 2^n register.

A symmetric schedule's witness values and training gradients are
evaluated in the 4(n-1)-dimensional pair (x) Dicke space. The references
here evolve the same orbit states as dense 2^n vectors, differentiated in
forward mode, and the operator checks build the subspace's basis vectors
from spectator bit strings. Pinned tolerances: witness values to 1e-12,
gradients to 1e-12 * max(1, |g|).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnnwitness import cli, hamiltonian, trainer
from qnnwitness.core import DENSE_BYTES_BUDGET, PARITY_CACHE, DimensionError, pair_readout
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    adjoint_partials,
    build_hamiltonian,
    evolve_pair_dicke,
    evolve_states,
    pair_dicke_operators,
    refine_schedule,
    sector_trotter_error,
    spin_sector_hamiltonian,
)
from qnnwitness.witness import (
    PairStateKind,
    TrainingItem,
    TrainingSet,
    build_training_set,
    make_pair_state,
    orbit_coordinates,
    witness_value,
    witness_values,
)

from helpers import expm_eigh, kac_lifted, mean_field_witness, orbit_tangent_gradient, pair_dicke_hamiltonian
from helpers import z_diagonal

VALUE_TOL = 1e-12
GRADIENT_TOL = 1e-12

_SETS: dict[int, TrainingSet] = {}


def training_set(n: int) -> TrainingSet:
    if n not in _SETS:
        _SETS[n] = build_training_set(n)
    return _SETS[n]


def dicke_basis(n: int) -> np.ndarray:
    """``(2**n, 4(n-1))`` columns |p> (x) |D_w>, each an equal superposition
    of the spectator strings with w ones."""
    m = n - 2
    weights = np.array([bin(s).count("1") for s in range(2**m)])
    basis = np.zeros((2**n, 4 * (m + 1)))
    for p in range(4):
        for w in range(m + 1):
            basis[(p << m) + np.flatnonzero(weights == w), p * (m + 1) + w] = 1 / np.sqrt(comb(m, w))
    return basis


def lifted(schedule: Schedule, n: int) -> Schedule:
    """The schedule's shared parameters on n qubits."""
    chunks = tuple(ChunkParams.uniform(n, ck.tunneling[0], ck.bias[0], ck.coupling[0]) for ck in schedule.chunks)
    return Schedule(n, schedule.total_time, chunks)


def dense_reference(schedule: Schedule, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Witness values and shared-parameter gradient from the orbit states
    evolved as 2^n vectors, with a forward-mode tangent per parameter."""
    return orbit_tangent_gradient(schedule, training_set(schedule.n_qubits), method)


def assert_backends_agree(schedule: Schedule, method: str) -> None:
    n = schedule.n_qubits
    values, grad = dense_reference(schedule, method)
    assert np.max(np.abs(witness_values(training_set(n), schedule, method) - values)) <= VALUE_TOL
    _, reduced = trainer.gradient(schedule, training_set(n), trainer.TrainerConfig(method=method))
    assert np.max(np.abs(reduced - grad)) <= GRADIENT_TOL * max(1.0, np.linalg.norm(grad))


def sector_change(n: int) -> np.ndarray:
    """``(4(n-1), blocks * (n+1) * 2)`` columns |J, M, a> over |p> (x) |D_w>,
    from the per-weight blocks of ``pair_dicke_operators(n).change``, in the
    order of the coupled columns: block, weight, copy."""
    change = pair_dicke_operators(n).change
    columns = np.zeros((4, n - 1, change.shape[1] // 2, n + 1, 2))
    for p, shift in enumerate((0, 1, 1, 2)):  # the ones among qubits 0 and 1
        for w in range(n - 1):
            columns[p, w, :, w + shift] = change[w + shift, :, p].reshape(-1, 2)
    return columns.reshape(4 * (n - 1), -1)


class TestOperators:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12, 64, 725])
    def test_the_change_of_basis_is_orthogonal(self, n):
        # the change holds one block per weight W, over the p whose spectators
        # hold W - bits(p): its columns are orthonormal there and zero elsewhere,
        # and its rows orthogonal, each of norm 1 or 0. Rows J = n/2 (n+1),
        # n/2 - 1 (n-1, twice but once at n = 2) and n/2 - 2 (n-3)
        change = pair_dicke_operators(n).change
        spectators = np.arange(n + 1)[:, np.newaxis] - np.array([0, 1, 1, 2])
        present = (spectators >= 0) & (spectators <= n - 2)
        assert np.max(np.abs(change.swapaxes(1, 2) @ change - present[:, np.newaxis] * np.eye(4))) <= 1e-13
        norms = np.sum(change * change, axis=2)
        assert np.max(np.abs(change @ change.swapaxes(1, 2) - norms[:, np.newaxis] * np.eye(len(norms[0])))) <= 1e-13
        assert np.max(np.abs(norms - np.round(norms))) <= 1e-13
        want = [[n + 1, 0], [n - 1, n - 1 if n > 2 else 0], [n - 3, 0]][: len(norms[0]) // 2]
        assert np.array_equal(np.round(norms).sum(axis=0).reshape(-1, 2), want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_the_pair_dicke_hamiltonian_is_the_dense_one_on_the_space(self, n):
        # the oracle below, from matrix elements, against the dense Hamiltonian: the space is invariant
        shared = (1.3, -0.7, 0.45)
        basis = dicke_basis(n)
        dense = build_hamiltonian(ChunkParams.uniform(n, *shared), n)
        assert np.max(np.abs(dense @ basis - basis @ pair_dicke_hamiltonian(shared, n))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12, 64, 256])
    @pytest.mark.parametrize("coupling", [0.45, 0.0])
    def test_the_change_carries_the_hamiltonian_onto_the_sector_blocks(self, n, coupling):
        # the coupled basis block diagonalises the pair (x) Dicke Hamiltonian,
        # which pins every coefficient: collective X and Z, the pair-spectator
        # couplings and the spectator ZZ sum. Past 7 qubits the coupling is
        # scaled by 6/(n-1), as a 7-qubit schedule's is when lifted, which keeps
        # the entries within a few hundred, where 1e-12 is above round-off
        shared = (1.3, -0.7, coupling * 6 / max(n - 1, 6))
        coupled = sector_change(n)
        blocks = len(coupled[0]) // (2 * (n + 1))
        sectors = spin_sector_hamiltonian(shared, n, blocks)
        used = np.sum(coupled * coupled, axis=0).reshape(blocks, n + 1, 2).any(axis=1)
        want = np.zeros((blocks, n + 1, 2, blocks, n + 1, 2))
        for k, a in zip(*np.nonzero(used)):
            want[k, :, a, k, :, a] = sectors[k]
        h = pair_dicke_hamiltonian(shared, n)
        assert np.max(np.abs(coupled.T @ h @ coupled - want.reshape(len(coupled[0]), -1))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_readout(self, n):
        basis = dicke_basis(n)
        parity = z_diagonal(n, 0) * z_diagonal(n, 1)
        want = np.diag(pair_dicke_operators(n).readout)
        assert np.max(np.abs(basis.T @ (parity[:, np.newaxis] * basis) - want)) <= 1e-12

    def test_operators_are_cached_read_only(self):
        ops = pair_dicke_operators(7)
        assert pair_dicke_operators(7) is ops
        assert [array.shape for array in ops] == [(24,), (8, 6, 4), (24,)]
        assert not any(array.flags.writeable for array in ops)
        assert ops.nbytes <= pair_dicke_operators.cache_info().nbytes

    def test_non_uniform_chunk_is_refused(self):
        schedule = Schedule(3, 1.0, (ChunkParams((1.0, 1.0, 2.0), (0.0,) * 3, (0.0,) * 3),))
        for method in ("exact", "chunked"):
            with pytest.raises(ValueError, match="uniform"):
                evolve_pair_dicke(np.eye(8), schedule, method)


def measured(call):
    """The exception ``call()`` raises, its wall time in seconds and its tracemalloc peak in bytes."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DimensionError) as refused:
            call()
        return refused.value, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """What ``call()`` returns and its tracemalloc peak in bytes, with the
    operator store and the Wigner bases emptied first, so that the peak
    includes building them."""
    pair_dicke_operators.cache_clear()
    hamiltonian.wigner_basis.cache_clear()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bell_set(n: int) -> TrainingSet:
    return TrainingSet(n, (TrainingItem(PairStateKind.BELL, (0, 1), 1.0),))


# (method, chunks of table3 lifted and cut or refined, the largest n the sweep rule admits): a witness is
# charged a forward sweep of its states, a gradient a backward sweep of its states and co-states
WITNESS_ADMITTED = [("chunked", 4, 2307), ("chunked", 1024, 559), ("chunked", 1, 2315), ("exact", 4, 831),
                    ("exact", 1, 1659)]
GRADIENT_ADMITTED = [("chunked", 4, 2237), ("chunked", 1024, 559), ("chunked", 1, 2246), ("exact", 4, 831),
                     ("exact", 1, 1229)]
# (copies of table3's first chunk, the largest n whose comparison over all n/2 + 1 sectors the rule admits)
COMPARISON_ADMITTED = [(1, 129), (2, 127), (4, 121), (16, 97), (4115, 12)]


def lifted_chunks(table3: Schedule, n: int, chunks: int) -> Schedule:
    schedule = lifted(table3, n)
    if chunks < schedule.n_chunks:
        return Schedule(n, schedule.total_time, schedule.chunks[:chunks])
    return refine_schedule(schedule, chunks // schedule.n_chunks)


def repeated(table3: Schedule, n: int, chunks: int) -> Schedule:
    """``chunks`` copies of table3's first chunk, lifted to n qubits."""
    return Schedule(n, table3.dt * chunks, (ChunkParams.uniform(n, *table3.chunks[0].shared),) * chunks)


class TestOperatorStore:
    """The operators share ``core.PARITY_CACHE`` and its byte budget with every other array derived from n alone."""

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_the_set_holds_32_words_per_qubit(self, n):
        # 4(n-1) floats of read-out and 4(n-1) positions; per weight, a 4 x 4
        # change to the three blocks' two copies (two blocks below n = 4)
        assert pair_dicke_operators(n).nbytes == 8 * (8 * (n - 1) + 8 * (n + 1) * min(3, n // 2 + 1))

    def test_store_keeps_at_most_the_budget(self):
        # the read-outs of qubit 0's pairs at n = 20 take 304 MiB between them:
        # the 8 most recent fill the budget, and the operator sets built before them go first
        try:
            for n in range(2, 201):
                pair_dicke_operators(n)
            for j in range(1, 20):
                pair_readout(20, 0, j)
                assert PARITY_CACHE.nbytes <= DENSE_BYTES_BUDGET
            assert pair_readout.cache_info()[2:] == (8, DENSE_BYTES_BUDGET)
            assert pair_dicke_operators.cache_info()[2:] == (0, 0)
        finally:
            pair_readout.cache_clear()
            pair_dicke_operators.cache_clear()

    def test_the_benchmark_resets_the_store(self):
        # perfbench/workloads.reset_caches(every=True) clears every qnnwitness
        # module attribute that has cache_clear and names that module as its own
        pair_dicke_operators(3)
        found = [value for value in vars(hamiltonian).values()
                 if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == hamiltonian.__name__]
        assert pair_dicke_operators in found
        pair_dicke_operators.cache_clear()
        assert pair_dicke_operators.cache_info() == (0, 0, 0, 0)


class TestSweepBudget:
    """``_chunk_sweeps`` holds the one size rule of the pair (x) Dicke path."""

    @pytest.mark.parametrize("method, chunks, n", WITNESS_ADMITTED)
    def test_the_largest_admitted_sweep_peaks_under_the_budget(self, table3, method, chunks, n):
        schedule = lifted_chunks(table3, n, chunks)
        values, peak = traced_peak(lambda: witness_values(bell_set(n), schedule, method))
        assert 0 <= values[0] <= 1
        assert peak < DENSE_BYTES_BUDGET

    @pytest.mark.parametrize("method, chunks, n", WITNESS_ADMITTED)
    def test_witness_values_past_the_budget_are_refused_before_allocating(self, table3, method, chunks, n):
        schedule = lifted_chunks(table3, n + 1, chunks)
        error, elapsed, peak = measured(lambda: witness_values(bell_set(n + 1), schedule, method))
        assert f"{method} sweeps for {n + 1} qubits and {chunks} chunks" in str(error)
        assert elapsed < 0.5 and peak < 2**20

    def test_a_fresh_schedule_reads_its_uniformity_in_one_pass(self, table3):
        # the first refusal past the largest size reads Schedule.symmetric of chunks that have not read it yet;
        # one comparison pass over each chunk's C(2308, 2) couplings, where a set of them took 0.2 s
        schedule = lifted_chunks(table3, 2308, 4)
        start = time.perf_counter()
        assert schedule.symmetric
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("method, chunks, n", GRADIENT_ADMITTED)
    def test_the_largest_admitted_gradient_peaks_under_the_budget(self, table3, method, chunks, n):
        # a backward step holds six arrays of the states' and co-states' columns, where a
        # forward step of the witness holds three of the states' alone
        schedule = lifted_chunks(table3, n, chunks)
        config = trainer.TrainerConfig(method=method)
        (_, grad), peak = traced_peak(lambda: trainer.gradient(schedule, bell_set(n), config))
        assert grad.shape == (3 * chunks,) and np.all(np.isfinite(grad))
        assert peak < DENSE_BYTES_BUDGET

    @pytest.mark.parametrize("method, chunks, n", GRADIENT_ADMITTED)
    def test_gradients_past_the_budget_are_refused_before_allocating(self, table3, method, chunks, n):
        schedule = lifted_chunks(table3, n + 1, chunks)
        config = trainer.TrainerConfig(method=method)
        error, elapsed, peak = measured(lambda: trainer.gradient(schedule, bell_set(n + 1), config))
        assert f"{method} sweeps for {n + 1} qubits and {chunks} chunks" in str(error)
        assert elapsed < 0.5 and peak < 2**20

    @pytest.mark.parametrize("chunks, n", COMPARISON_ADMITTED)
    def test_the_largest_admitted_sector_comparison_peaks_under_the_budget(self, table3, chunks, n):
        # both methods carry their (blocks, n+1, n+1 + 8) columns through the
        # sweeps, which the rule counts in place of the freed generators
        schedule = repeated(table3, n, chunks)
        (distance, _, _), peak = traced_peak(lambda: sector_trotter_error(orbit_coordinates(n), schedule))
        assert np.isfinite(distance) and peak < DENSE_BYTES_BUDGET

    @pytest.mark.parametrize("chunks, n", COMPARISON_ADMITTED)
    def test_a_sector_comparison_past_the_budget_is_refused_before_allocating(self, table3, chunks, n):
        schedule = repeated(table3, n + 1, chunks)
        error, elapsed, peak = measured(lambda: sector_trotter_error(orbit_coordinates(n + 1), schedule))
        assert f"chunked and exact sweeps for {n + 1} qubits and {chunks} chunks" in str(error)
        assert elapsed < 0.5 and peak < 2**20

    def test_the_cli_exits_3_with_nothing_printed(self, tmp_path, capsys):
        # one exact chunk is admitted up to 1659 qubits; a short file refuses the
        # next size up. The file holds save_schedule's document without its
        # indentation: json's indenting encoder is pure Python, seconds at
        # C(1660, 2) zeta keys, where the compact one is C code
        path = tmp_path / "s1660.json"
        schedule = Schedule(1660, 1.58, (ChunkParams.uniform(1660, 2.5, 0.1, 0.05),))
        path.write_text(json.dumps(hamiltonian._schedule_document(schedule)))
        code = cli.main(["witness", "--schedule", str(path), "--state", "Bell", "--method", "exact"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "exact sweeps for 1660 qubits and 1 chunks" in captured.err


class TestCoordinates:
    @pytest.mark.parametrize("shape", [(24,), (1, 24, 1), (1, 5)])
    @pytest.mark.parametrize("entry", ["evolve_pair_dicke", "adjoint_partials", "sector_trotter_error"])
    def test_a_stack_of_another_shape_is_refused(self, table3, entry, shape):
        # table3 has 7 qubits: coordinates come as a (batch, 24) stack
        call = {
            "evolve_pair_dicke": lambda coords: evolve_pair_dicke(coords, table3, "chunked"),
            "adjoint_partials": lambda coords: adjoint_partials(coords, table3, "exact", lambda finals: finals),
            "sector_trotter_error": lambda coords: sector_trotter_error(coords, table3),
        }[entry]
        with pytest.raises(ValueError, match=re.escape("are a (batch, 4(n-1)) = (batch, 24) stack, not shape " + str(shape))):
            call(np.zeros(shape))

    def test_co_states_of_another_shape_are_refused(self, table3):
        with pytest.raises(ValueError, match=re.escape("(batch, 24) stack, not shape (24,)")):
            adjoint_partials(orbit_coordinates(7), table3, "chunked", lambda finals: finals[0])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_basis_vectors_map_to_unit_coordinates(self, table3, n):
        # |p> (x) |D_w> is the unit coordinate vector at p(n-1) + w: evolving
        # the unit vectors in the space gives the coordinates of the densely
        # evolved basis vectors, every column of the reduced propagator
        basis = dicke_basis(n)
        schedule = lifted(table3, n)
        for method in ("chunked", "exact"):
            reduced = evolve_pair_dicke(np.eye(4 * (n - 1)), schedule, method)
            dense = evolve_states(basis.T.astype(complex), schedule, method)
            assert np.max(np.abs(dense - reduced @ basis.T)) <= VALUE_TOL, method

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_reference_orbits_lie_in_the_space(self, n):
        # each orbit state embeds as its kind's reference state on the pair (0, 1)
        coords, _ = training_set(n).pair_dicke_orbits
        dense = np.stack([make_pair_state(kind, (0, 1), n) for kind in PairStateKind])
        assert coords.shape == (4, 4 * (n - 1))
        assert np.max(np.abs(dicke_basis(n) @ coords.T - dense.T)) <= 1e-15

    def test_arbitrary_states_fall_back_to_the_dense_path(self, table3):
        # a Bell pair with one spectator excited is outside the space: its
        # amplitude differs between the two weight-1 strings of qubits 2, 3.
        # witness_value evolves it as a 2^n vector, and the reference states
        # give the same values there as the pair (x) Dicke batch
        schedule = lifted(table3, 4)
        state = np.zeros(16, dtype=complex)
        state[0b0010] = state[0b1110] = 1 / np.sqrt(2)
        assert np.linalg.norm(dicke_basis(4).T @ state) ** 2 == pytest.approx(0.5)
        final = state
        for chunk in schedule.chunks:
            final = expm_eigh(build_hamiltonian(chunk, 4), schedule.dt) @ final
        parity = z_diagonal(4, 0) * z_diagonal(4, 1)
        expected = (np.abs(final) ** 2 @ parity) ** 2
        assert abs(witness_value(state, (0, 1), schedule, "exact") - expected) <= VALUE_TOL
        for method in ("chunked", "exact"):
            values = witness_values(training_set(4), schedule, method)
            for value, item in zip(values, training_set(4).items):
                dense = witness_value(make_pair_state(item.kind, item.pair, 4), item.pair, schedule, method)
                assert abs(value - dense) <= VALUE_TOL, (method, item)


class TestAgreement:
    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_table3_lifted(self, table3, n, method):
        assert_backends_agree(lifted(table3, n), method)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 6),
        params=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)), min_size=1, max_size=4),
        total_time=st.floats(0.1, 3.0),
    )
    # a lone transverse field at dt near 2 once put the chunked oracle 1.6e-12
    # off, and the exact oracle 1.7e-12 (of |g| = 63)
    @example(n=5, params=[(1.0, 0.0, 0.0)], total_time=2.375)
    @example(n=5, params=[(1.0, 0.0, 0.0)], total_time=2.0)
    # eigenvalue gaps of 2e-311: the exact adjoint must not divide by the subnormal half-gap
    @example(n=2, params=[(0.0, 0.0, 1.0), (0.0, 0.0, 2.225073858507e-311)], total_time=1.0)
    def test_drawn_symmetric_schedules(self, n, params, total_time):
        schedule = Schedule(n, total_time, tuple(ChunkParams.uniform(n, *p) for p in params))
        for method in ("chunked", "exact"):
            assert_backends_agree(schedule, method)

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    @pytest.mark.parametrize("n", [40, 256])
    def test_mesoscopic_register_stays_normalized(self, table3, n, method):
        # these registers have no dense reference; the sector blocks and the
        # change of basis must still be unitary to round-off
        coords = np.zeros((4, 4 * (n - 1)), dtype=complex)
        coords[np.arange(4), (n - 1) * np.arange(4)] = 1.0  # |p> (x) |D_0>
        finals = evolve_pair_dicke(coords, lifted(table3, n), method)
        assert np.max(np.abs(np.linalg.norm(finals, axis=1) - 1)) <= 1e-12
        assert np.max(np.abs(finals.conj() @ finals.T - np.eye(4))) <= 1e-12


# |w(n) - w_inf| <= MEAN_FIELD_C / n for every kind; measured n |w(n) - w_inf| at most 0.1768 (Bell, n = 256)
MEAN_FIELD_C = 0.2
# |n (w(n) - w_inf) at 256 - the same at 128| per kind; measured at most 0.0012 (Bell)
MEAN_FIELD_SETTLING = 0.005


class TestMeanFieldLimit:
    """Past 10 qubits the ``chunked`` sector kernel has no dense reference; it
    converges as 1/n to the N -> infinity limit of the Kac-lifted schedule,
    an independent closed-form 2x2 computation (``helpers.mean_field_witness``)."""

    def test_chunked_witness_converges_to_the_mean_field_limit(self, table3):
        g = [ck.coupling[0] * (table3.n_qubits - 1) for ck in table3.chunks]
        limit = mean_field_witness(table3, g)
        scaled = {}
        for n in (64, 128, 256):
            chunks = tuple(ChunkParams.uniform(n, ck.tunneling[0], ck.bias[0], coupling / (n - 1))
                           for ck, coupling in zip(table3.chunks, g))
            items = tuple(TrainingItem(kind, (0, 1), 0.0) for kind in PairStateKind)
            values = witness_values(TrainingSet(n, items), Schedule(n, table3.total_time, chunks), "chunked")
            scaled[n] = n * (values - limit)
            assert np.max(np.abs(scaled[n])) <= MEAN_FIELD_C, n
        assert np.max(np.abs(scaled[256] - scaled[128])) <= MEAN_FIELD_SETTLING


RECORDED = Path(__file__).with_name("chunked_recorded.json")
# (K, eps) in every quadrant of the 2x2 rotation and on each axis, and both zero; with dt = 1.5 the
# rotation angle dt hypot(K, eps) passes pi/2 and pi, where cos and sin change sign
_QUADRANTS = [(0.0, 0.0), (0.0, 0.7), (0.0, -0.7), (2.3, 0.0), (-2.3, 0.0), (2.3, 0.7), (-2.3, 0.7), (2.3, -0.7),
              (-2.3, -0.7)]


def recorded_schedule(name: str, table3: Schedule, n: int) -> Schedule:
    """The schedules ``chunked_recorded.json`` was computed on: table3 Kac-lifted (coupling times 6/(n-1)),
    and the nine quadrants with coupling 0.3/(n-1) and dt = 1.5."""
    if name == "table3_kac":
        return kac_lifted(table3, n)
    chunks = tuple(ChunkParams.uniform(n, k, eps, 0.3 / (n - 1)) for k, eps in _QUADRANTS)
    return Schedule(n, 1.5 * len(chunks), chunks)


class TestRecordedChunked:
    """``chunked`` values and adjoint gradients as the kernel that built each
    chunk's Wigner d-matrix computed them, before its steps became three
    diagonals around one shared J_x eigenbasis: pinned to 1e-12 of each
    array's largest entry (measured at most 1e-13)."""

    @pytest.mark.parametrize("name", ["table3_kac", "quadrants"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_values_and_gradients_match_the_recorded_ones(self, table3, name, n):
        want = json.loads(RECORDED.read_text())[name][str(n)]
        schedule = recorded_schedule(name, table3, n)
        items = tuple(TrainingItem(kind, (0, 1), 0.0) for kind in PairStateKind)
        values = witness_values(TrainingSet(n, items), schedule, "chunked")
        loss, grad = trainer.gradient(schedule, training_set(n), trainer.TrainerConfig(method="chunked"))
        for got, recorded in ((values, want["values"]), ([loss], [want["loss"]]), (grad, want["gradient"])):
            recorded = np.array(recorded)
            assert np.max(np.abs(got - recorded)) <= 1e-12 * np.max(np.abs(recorded)), (name, n)


# (K, eps) at signed zeros, the least subnormal, past the subnormals' edge and at 1e150, with every dt
# the range rule admits
_ROTATION_GRID = (0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e150, -1e150)
_ROTATION_DTS = (0.7, 1e-140, 1e-200)


def _inline_rotation(tunneling: float, bias: float, dt: float) -> tuple[float, float]:
    """``(cos(dt r), sin(dt r)/r)``, r = hypot(K, eps) (dt at r = 0), formed inline: the reference that
    the one closed form must reproduce bit for bit, at dt and at -dt."""
    r = math.hypot(tunneling, bias)
    return math.cos(dt * r), (math.sin(dt * r) / r if r else dt)


class TestOneRotation:
    """The one closed form of a chunk's rotation, as each reader takes it, is
    the inline reference bit for bit: the dense factor, the one stacked with
    its partials and that one's conjugate as ``F(-dt)`` (the backward step's
    ``F^dagger``), and the sector steps' three diagonals from the Euler angles."""

    def test_the_factor_and_its_conjugate_are_f_at_dt_and_at_minus_dt(self):
        for tunneling, bias, dt in itertools.product(_ROTATION_GRID, _ROTATION_GRID, _ROTATION_DTS):
            factor = hamiltonian._single_qubit_factor(tunneling, bias, dt)
            stacked = hamiltonian._single_qubit_factor_and_partials(tunneling, bias, dt)[0]
            for got, step in ((factor, dt), (stacked, dt), (stacked.conj(), -dt)):
                c, s = _inline_rotation(tunneling, bias, step)
                off = complex(0.0, -s * tunneling)
                want = np.array([[complex(c, -s * bias), off], [off, complex(c, s * bias)]])
                assert got.tobytes() == want.tobytes(), (tunneling, bias, step)

    def test_sector_diagonals_are_the_inline_euler_angles(self):
        n, coupling = 2, 0.3
        terms = hamiltonian.sector_terms(n, 2)
        for tunneling, bias, dt in itertools.product(_ROTATION_GRID, _ROTATION_GRID, _ROTATION_DTS):
            try:
                schedule = Schedule(n, dt, (ChunkParams.uniform(n, tunneling, bias, coupling),))
            except ValueError:  # phases past the range rule
                continue
            _, ((step,),) = hamiltonian._chunk_sweeps(schedule, "chunked", width=4, backward=False)
            c, s = _inline_rotation(tunneling, bias, dt)
            turn, theta = math.atan2(-s * bias, c), 2 * math.atan2(s * tunneling, math.hypot(c, s * bias))
            phases = 1j * (np.array([((turn, -dt * coupling), (-theta, 0.0), (turn, 0.0))])
                           @ np.stack([terms[1] / 2, terms[2]]).reshape(2, -1))
            want = np.exp(phases).reshape(3, 2, n + 1, 1)
            for got, diagonal in zip((step[0], step[2], step[3]), want):
                assert got.tobytes() == diagonal.tobytes(), (tunneling, bias, dt)
