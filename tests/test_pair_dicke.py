"""The pair (x) Dicke backend against the dense 2^n register.

A symmetric schedule's witness values and training gradients are
evaluated in the 4(n-1)-dimensional pair (x) Dicke space. The references
here evolve the same orbit states as dense 2^n vectors, differentiated in
forward mode, and the operator checks build the subspace's basis vectors
from spectator bit strings. Pinned tolerances: witness values to 1e-12,
gradients to 1e-12 * max(1, |g|).
"""

from __future__ import annotations

import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnnwitness import hamiltonian, trainer
from qnnwitness.core import DENSE_BYTES_BUDGET, PARITY_CACHE, DimensionError, z_diagonal
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    build_hamiltonian,
    evolve_pair_dicke,
    evolve_states,
    pair_dicke_hamiltonian,
    pair_dicke_nbytes,
    pair_dicke_operators,
    spin_sector_hamiltonian,
)
from qnnwitness.witness import (
    PairStateKind,
    TrainingItem,
    TrainingSet,
    build_training_set,
    make_pair_state,
    witness_value,
    witness_values,
)

from helpers import expm_eigh, tangent_loss_gradient

VALUE_TOL = 1e-12
GRADIENT_TOL = 1e-12
SPECTRUM_TOL = 1e-13  # relative to the spectral norm; measured at most 4e-15

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
    n = schedule.n_qubits
    kinds = list(PairStateKind)
    states = np.stack([make_pair_state(kind, (0, 1), n) for kind in kinds])
    rows = np.array([kinds.index(item.kind) for item in training_set(n).items])
    targets = np.array([item.target for item in training_set(n).items])
    parity = z_diagonal(n, 0) * z_diagonal(n, 1)
    return tangent_loss_gradient(states, parity, rows, targets, schedule, method)


def assert_backends_agree(schedule: Schedule, method: str) -> None:
    n = schedule.n_qubits
    values, grad = dense_reference(schedule, method)
    assert np.max(np.abs(witness_values(training_set(n), schedule, method) - values)) <= VALUE_TOL
    _, reduced = trainer.gradient(schedule, training_set(n), trainer.TrainerConfig(method=method))
    assert np.max(np.abs(reduced - grad)) <= GRADIENT_TOL * max(1.0, np.linalg.norm(grad))


class TestOperators:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_hamiltonian_is_the_dense_one_restricted(self, n):
        # the subspace is invariant (H E = E H_reduced), which pins every
        # coefficient: collective X and Z, the pair-spectator couplings
        # (Z_0 + Z_1) S_z and the spectator ZZ sum (S_z^2 - m)/2
        params = ChunkParams.uniform(n, 1.3, -0.7, 0.45)
        basis = dicke_basis(n)
        dense, reduced = build_hamiltonian(params, n), pair_dicke_hamiltonian(params, n)
        assert np.max(np.abs(dense @ basis - basis @ reduced)) <= 1e-12
        assert np.max(np.abs(basis.T @ basis - np.eye(4 * (n - 1)))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_generators_and_readout(self, n):
        basis = dicke_basis(n)
        ops = pair_dicke_operators(n)
        for tunneling, bias, coupling, expected in ((1, 0, 0, ops.transverse), (0, 1, 0, np.diag(ops.bias)),
                                                    (0, 0, 1, np.diag(ops.coupling))):
            dense = build_hamiltonian(ChunkParams.uniform(n, tunneling, bias, coupling), n)
            assert np.max(np.abs(basis.T @ dense @ basis - expected)) <= 1e-12
        parity = z_diagonal(n, 0) * z_diagonal(n, 1)
        assert np.max(np.abs(basis.T @ (parity[:, np.newaxis] * basis) - np.diag(ops.readout))) <= 1e-12

    def test_operators_are_cached_read_only(self):
        ops = pair_dicke_operators(7)
        assert pair_dicke_operators(7) is ops
        assert ops.transverse.shape == (24, 24) and not ops.transverse.flags.writeable
        assert ops.nbytes == pair_dicke_nbytes(7) <= pair_dicke_operators.cache_info().nbytes

    def test_non_uniform_chunk_is_refused(self):
        with pytest.raises(ValueError, match="uniform"):
            pair_dicke_hamiltonian(ChunkParams((1.0, 1.0, 2.0), (0.0,) * 3, (0.0,) * 3), 3)

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 64])
    def test_spectrum_is_the_union_of_its_spin_blocks(self, n):
        # the pair (spin 1 + spin 0) times the Dicke block (spin n/2 - 1) holds the
        # sectors J = n/2, n/2 - 1 twice and n/2 - 2 (none at n = 3)
        params = ChunkParams.uniform(n, 1.3, -0.7, 0.45)
        spins = [j for j in (n / 2, n / 2 - 1, n / 2 - 1, n / 2 - 2) if j >= 0]
        got = np.linalg.eigvalsh(pair_dicke_hamiltonian(params, n))
        want = np.linalg.eigvalsh(spin_sector_hamiltonian(params.shared, n, spins))
        assert got.shape == want.shape == (4 * (n - 1),)
        assert np.max(np.abs(got - want)) <= SPECTRUM_TOL * np.max(np.abs(got))


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


class TestOperatorStore:
    """The operators share ``core.PARITY_CACHE`` and its byte budget with every other array derived from n alone."""

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_predicted_bytes_are_the_built_bytes(self, n):
        assert pair_dicke_operators(n).nbytes == pair_dicke_nbytes(n)

    def test_the_budget_first_refuses_995_qubits(self):
        # 994 qubits take 127.99 MiB; that set is not built here
        assert pair_dicke_nbytes(994) <= DENSE_BYTES_BUDGET < pair_dicke_nbytes(995)

    def test_a_set_past_the_budget_is_refused_before_it_is_built(self):
        error, elapsed, peak = measured(lambda: pair_dicke_operators(995))
        assert "995 qubits" in str(error)
        assert elapsed < 0.5 and peak < 2**20

    @pytest.mark.parametrize("method", ["exact", "chunked"])
    def test_witness_values_past_the_budget_are_refused_before_allocating(self, method):
        schedule = Schedule(995, 1.58, (ChunkParams.uniform(995, 2.5, 0.1, 0.05),))
        bell = TrainingSet(995, (TrainingItem(PairStateKind.BELL, (0, 1), 1.0),))
        error, elapsed, peak = measured(lambda: witness_values(bell, schedule, method))
        assert "pair (x) Dicke operators for 995 qubits" in str(error)
        assert elapsed < 0.5 and peak < 2**20

    def test_store_keeps_at_most_the_budget(self):
        # n = 2..200 take 345 MiB between them; the most recent stay, within the shared budget
        try:
            for n in range(2, 201):
                pair_dicke_operators(n)
                assert PARITY_CACHE.nbytes <= DENSE_BYTES_BUDGET
            info = pair_dicke_operators.cache_info()
            assert 0 < info.currsize < 199
            assert info.nbytes == sum(map(pair_dicke_nbytes, range(201 - info.currsize, 201)))
        finally:
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


class TestCoordinates:
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
    def test_drawn_symmetric_schedules(self, n, params, total_time):
        schedule = Schedule(n, total_time, tuple(ChunkParams.uniform(n, *p) for p in params))
        for method in ("chunked", "exact"):
            assert_backends_agree(schedule, method)

    @pytest.mark.parametrize("method", ["chunked", "exact"])
    def test_mesoscopic_register_stays_normalized(self, table3, method):
        # 40 qubits have no dense reference; the Dicke block's symmetric
        # power at m = 38 must still be unitary to round-off
        coords = np.zeros((4, 4 * 39), dtype=complex)
        coords[np.arange(4), 39 * np.arange(4)] = 1.0  # |p> (x) |D_0>
        finals = evolve_pair_dicke(coords, lifted(table3, 40), method)
        assert np.max(np.abs(np.linalg.norm(finals, axis=1) - 1)) <= 1e-12
        assert np.max(np.abs(finals.conj() @ finals.T - np.eye(4))) <= 1e-12
