import json
import math
import tracemalloc
from functools import reduce
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnnwitness import cli, hamiltonian
from qnnwitness.compiler import compile_schedule, verify_equivalence
from qnnwitness.core import DEFAULT_UNITARY_CAP, DENSE_BYTES_BUDGET, Circuit, DimensionError, GateKind
from qnnwitness.core import circuit_unitary, expectation_zz, frobenius_distance, pair_readout, qubit_pairs, require_square
from qnnwitness.hamiltonian import (
    ChunkParams,
    Schedule,
    ScheduleFormatError,
    build_hamiltonian,
    chunk_propagators,
    chunked_chunk_propagator,
    _single_qubit_factor,
    _single_qubit_factor_and_partials,
    evolve_pair_dicke,
    evolve_states,
    exact_chunk_propagator,
    load_schedule,
    propagate,
    refine_schedule,
    schedule_from_json,
    schedule_to_json,
    sector_trotter_error,
    spin_sector_hamiltonian,
)
from qnnwitness.witness import PairStateKind, TrainingItem, TrainingSet, make_pair_state, orbit_coordinates, witness_values

from helpers import IDENTITY_2, PAULI_X, PAULI_Z, basis_state, count_calls, expm_eigh, expm_taylor, is_unitary, random_state
from helpers import sector_layer_propagators, wigner_basis_apart

TABLE2_INTERVAL_1 = ChunkParams.uniform(2, 2.49, 0.0930, 0.0382)
DT = 1.58 / 4
# distinct per-qubit and per-pair values, so a term on the wrong qubit shows
DISTINCT_3 = ChunkParams((1.3, -0.6, 0.2), (0.45, -0.8, 0.0), (0.9, -0.35, 0.15))


def _kron_hamiltonian(params: ChunkParams) -> np.ndarray:
    """Reference H built from dense Kronecker products of Paulis."""
    n = params.n_qubits

    def embed(ops: dict) -> np.ndarray:
        return reduce(np.kron, [ops.get(q, IDENTITY_2) for q in range(n)])

    h = sum(params.tunneling[q] * embed({q: PAULI_X}) + params.bias[q] * embed({q: PAULI_Z}) for q in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return h + sum(params.coupling[k] * embed({i: PAULI_Z, j: PAULI_Z}) for k, (i, j) in enumerate(pairs))


class TestChunkParams:
    def test_lengths_validated(self):
        with pytest.raises(ValueError):
            ChunkParams((1.0, 2.0), (0.0,), (0.0,))
        with pytest.raises(ValueError):
            ChunkParams((1.0, 2.0), (0.0, 0.0), ())

    def test_uniform_is_symmetric(self):
        assert ChunkParams.uniform(4, 1.0, 0.2, 0.3).is_symmetric

    def test_asymmetric_detected(self):
        assert not ChunkParams((1.0, 2.0), (0.0, 0.0), (0.0,)).is_symmetric

    def test_symmetry_is_kept_outside_equality_and_hashing(self):
        # is_symmetric is computed once per chunk; a chunk that has computed
        # it still equals, hashes and keys the propagator cache like a fresh one
        checked, fresh = ChunkParams.uniform(2, 1.1, 0.2, 0.3), ChunkParams.uniform(2, 1.1, 0.2, 0.3)
        assert checked.is_symmetric and "is_symmetric" not in vars(fresh)
        assert checked == fresh and hash(checked) == hash(fresh)
        assert repr(checked) == repr(fresh)
        exact_chunk_propagator(checked, 2, 0.3)
        hits = exact_chunk_propagator.cache_info().hits
        exact_chunk_propagator(fresh, 2, 0.3)
        assert exact_chunk_propagator.cache_info().hits == hits + 1


class TestSchedule:
    def test_dt(self, table2):
        assert table2.dt == pytest.approx(0.395)

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError):
            Schedule(2, 1.0, ())

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            Schedule(2, 0.0, (TABLE2_INTERVAL_1,))

    @pytest.mark.parametrize("total_time", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, total_time):
        with pytest.raises(ValueError, match="finite"):
            Schedule(2, total_time, (TABLE2_INTERVAL_1,))

    def test_symmetric_flag_checked(self, tmp_path, capsys):
        # a Schedule derives its uniformity; the reader checks the file's key against it
        doc = {"n_qubits": 2, "total_time": 1.0, "symmetric": True,
               "chunks": [{"K": [1.0, 2.0], "eps": [0.0, 0.0], "zeta": {"0,1": 0.0}}]}
        with pytest.raises(ScheduleFormatError, match="not uniform"):
            schedule_from_json(json.dumps(doc))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["witness", "--schedule", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_symmetric_is_derived_from_the_chunks(self):
        assert Schedule(2, 1.0, (TABLE2_INTERVAL_1,)).symmetric
        assert not Schedule(2, 1.0, (TABLE2_INTERVAL_1, ChunkParams((1.0, 2.0), (0.0, 0.0), (0.0,)))).symmetric


class TestBuildHamiltonian:
    def test_no_dense_path_stores_a_parity_diagonal(self):
        # the Hamiltonian's diagonal, the chunked phases and the gates' phase
        # runs read their signs from the index bits, not from a stored per-pair array
        pair_readout.cache_clear()
        schedule = Schedule(3, 1.0, (DISTINCT_3, ChunkParams.uniform(3, 0.4, 0.2, 0.3)))
        items = TrainingSet(3, (TrainingItem(PairStateKind.BELL, (0, 2), 1.0),))
        build_hamiltonian(DISTINCT_3, 3)
        for method in ("exact", "chunked", "gates"):
            witness_values(items, schedule, method)
        assert pair_readout.cache_info().currsize == 0

    def test_pure_zz(self):
        h = build_hamiltonian(ChunkParams.uniform(2, 0.0, 0.0, 1.0), 2)
        assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_table2_interval_1_entries(self):
        h = build_hamiltonian(TABLE2_INTERVAL_1, 2)
        assert h[0, 0] == pytest.approx(2 * 0.0930 + 0.0382)  # = 0.2242
        assert h[0, 1] == pytest.approx(2.49)

    def test_three_qubit_transverse_field(self):
        h = build_hamiltonian(ChunkParams.uniform(3, 1.0, 0.0, 0.0), 3)
        expected = (
            np.kron(np.kron(PAULI_X, np.eye(2)), np.eye(2))
            + np.kron(np.kron(np.eye(2), PAULI_X), np.eye(2))
            + np.kron(np.kron(np.eye(2), np.eye(2)), PAULI_X)
        )
        assert np.allclose(h, expected)

    def test_hermitian(self):
        rng = np.random.default_rng(1)
        params = ChunkParams(tuple(rng.normal(size=3)), tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
        h = build_hamiltonian(params, 3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(TABLE2_INTERVAL_1, 3)

    def test_real_and_matches_kron_reference(self):
        h = build_hamiltonian(DISTINCT_3, 3)
        assert h.dtype == np.float64
        assert np.max(np.abs(h - _kron_hamiltonian(DISTINCT_3))) <= 1e-14


class TestExactPropagator:
    def test_zero_parameters_give_identity(self):
        u = exact_chunk_propagator(ChunkParams.uniform(2, 0.0, 0.0, 0.0), 2, 1.0)
        assert np.allclose(u, np.eye(4))

    def test_single_transverse_term_quarter_period(self):
        # only K on qubit 0, dt = pi/2: acts as -i X on that qubit
        params = ChunkParams((1.0, 0.0), (0.0, 0.0), (0.0,))
        u = exact_chunk_propagator(params, 2, math.pi / 2)
        expected = np.kron(-1j * PAULI_X, np.eye(2))
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_table2_unitary_and_taylor_oracle(self):
        u = exact_chunk_propagator(TABLE2_INTERVAL_1, 2, DT)
        assert is_unitary(u, tol=1e-12)
        oracle = expm_taylor(build_hamiltonian(TABLE2_INTERVAL_1, 2), DT)
        assert frobenius_distance(u, oracle) < 1e-10

    def test_matches_eigh_oracle_on_three_qubits(self):
        u = exact_chunk_propagator(DISTINCT_3, 3, DT)
        assert np.max(np.abs(u - expm_eigh(_kron_hamiltonian(DISTINCT_3), DT))) <= 1e-12

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            exact_chunk_propagator(TABLE2_INTERVAL_1, 2, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            exact_chunk_propagator(ChunkParams((float("inf"), 0.0), (0.0, 0.0), (0.0,)), 2, 1.0)


def _non_uniform(n: int, shift: float = 0.0) -> ChunkParams:
    """A chunk whose tunneling differs on every qubit, so no path may treat it as uniform."""
    return ChunkParams(tuple(1.0 + shift + 0.1 * q for q in range(n)), (0.2,) * n, (0.05,) * (n * (n - 1) // 2))


class TestDenseSquareCap:
    """``core.require_square`` is the one size rule for 2^n x 2^n arrays: 10 qubits."""

    def test_the_cap_is_ten_qubits(self):
        require_square(DEFAULT_UNITARY_CAP)
        with pytest.raises(DimensionError):
            require_square(DEFAULT_UNITARY_CAP + 1)

    @pytest.mark.parametrize("name", ["circuit_unitary", "verify_equivalence", "build_hamiltonian",
                                      "exact_chunk_propagator", "chunked_chunk_propagator"])
    def test_eleven_qubits_are_refused_before_allocating(self, name):
        params = _non_uniform(11)
        schedule, circuit = Schedule(11, 1.58, (params,) * 4), Circuit(11)
        call = {
            "circuit_unitary": lambda: circuit_unitary(circuit),
            "verify_equivalence": lambda: verify_equivalence(schedule),
            "build_hamiltonian": lambda: build_hamiltonian(params, 11),
            "exact_chunk_propagator": lambda: exact_chunk_propagator(params, 11, DT),
            "chunked_chunk_propagator": lambda: chunked_chunk_propagator(params, 11, DT),
        }[name]
        tracemalloc.start()
        start = perf_counter()
        try:
            with pytest.raises(DimensionError, match=r"^refusing dense 2\*\*11 x 2\*\*11 arrays for 11 > 10 qubits$"):
                call()
            elapsed = perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 2**20

    def test_exact_propagator_cache_holds_one_dense_budget_at_the_cap(self):
        maxsize = exact_chunk_propagator.cache_parameters()["maxsize"]
        assert maxsize == DENSE_BYTES_BUDGET // (16 * 4**DEFAULT_UNITARY_CAP) == 8

    def test_exact_evolution_keeps_no_propagator_past_the_cache(self):
        # 80 distinct 8-qubit propagators of 1 MiB each: the cache keeps 8 of
        # them and the evolution holds the one it is applying
        schedule = Schedule(8, 1.58, tuple(_non_uniform(8, 0.01 * k) for k in range(80)))
        exact_chunk_propagator.cache_clear()
        tracemalloc.start()
        try:
            evolve_states(basis_state(8), schedule, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exact_chunk_propagator.cache_info().currsize <= 8
        assert peak < 16 * 2**20

    def test_a_second_verify_reads_every_exact_propagator_from_the_cache(self, table3):
        rng = np.random.default_rng(19)

        def jitter(values):
            return tuple(value * (1 + 0.01 * rng.standard_normal()) for value in values)

        schedule = Schedule(7, table3.total_time, tuple(
            ChunkParams(jitter(ck.tunneling), jitter(ck.bias), jitter(ck.coupling)) for ck in table3.chunks))
        verify_equivalence(schedule)
        before = exact_chunk_propagator.cache_info()
        verify_equivalence(schedule)
        after = exact_chunk_propagator.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)


def _assert_split_is_exact(params):
    # With commuting terms the split is exact, so both chunked kernels (the
    # dense chunk unitary and the streamed batch on the identity) must match
    # the eigendecomposition. Distinct per-qubit values expose an update on
    # the wrong axis.
    n = params.n_qubits
    exact = exact_chunk_propagator(params, n, DT)
    chunked = chunked_chunk_propagator(params, n, DT)
    assert frobenius_distance(exact, chunked) < 1e-12, f"n={n}"
    streamed = evolve_states(np.eye(2**n), Schedule(n, DT, (params,)), "chunked").T
    assert frobenius_distance(exact, streamed) < 1e-12, f"n={n}"


class TestChunkedPropagator:
    @pytest.mark.parametrize(
        "tunneling,bias", [(2.49, 0.0930), (0.0, 0.7), (0.0, -1.1), (-1.3, -0.4), (0.8, -2.1), (0.0, 0.0)]
    )
    def test_single_qubit_factor_matches_exponential(self, tunneling, bias):
        expected = expm_eigh(tunneling * PAULI_X + bias * PAULI_Z, DT)
        assert np.max(np.abs(_single_qubit_factor(tunneling, bias, DT) - expected)) <= 1e-14

    @pytest.mark.parametrize(
        "tunneling,bias",
        # dt * hypot(K, eps) = 0.047 and 0.056 sit either side of the series switch at 0.05
        [(2.49, 0.0930), (0.0, -1.1), (-1.3, -0.4), (0.12, 0.0), (0.1, -0.1), (1e-3, 2e-3), (0.0, 0.0), (5e-324, 0.0)],
    )
    def test_single_qubit_factor_partials_match_differences(self, tunneling, bias):
        def factor(k, e):
            return expm_eigh(k * PAULI_X + e * PAULI_Z, DT)

        h = 1e-4
        for got, (dk, de) in zip(_single_qubit_factor_and_partials(tunneling, bias, DT)[1:], ((h, 0.0), (0.0, h))):
            expected = (
                factor(tunneling - 2 * dk, bias - 2 * de) - 8 * factor(tunneling - dk, bias - de)
                + 8 * factor(tunneling + dk, bias + de) - factor(tunneling + 2 * dk, bias + 2 * de)
            ) / (12 * h)
            assert np.max(np.abs(got - expected)) <= 1e-10

    @pytest.mark.parametrize("tunneling, bias, dt", [(1e150, 0.1, DT), (1e155, 0.1, DT), (1e200, 0.1, DT),
                                                    (-1e300, 0.1, DT), (5e-324, 0.0, 0.7), (1e-320, 0.0, 0.7)])
    def test_single_qubit_factor_partials_keep_their_first_order_term_at_any_size(self, tunneling, bias, dt):
        # eps/m rounds to 0 (or is 0), so the K partial's off-diagonal -i (h (K/m)^2 + s) is -i dt cos x;
        # formed through |(K, eps)|^2, which overflows past 1.3e154, its h part would read 0 and leave
        # -i s, and s read as sin(x)/m, where x = dt m is subnormal and holds few bits, is far from dt
        d_tunneling, d_bias = _single_qubit_factor_and_partials(tunneling, bias, dt)[1:]
        assert d_tunneling[0, 1].imag == pytest.approx(-dt * math.cos(dt * abs(tunneling)), rel=1e-12)
        assert np.all(np.isfinite(d_bias))

    def test_single_qubit_factor_partials_keep_a_recorded_value(self):
        # the K partial's off-diagonal at (1e150, 0.1, 0.4), as first recorded when it was formed through m^2
        assert _single_qubit_factor_and_partials(1e150, 0.1, 0.4)[1, 0, 1].imag == pytest.approx(0.216937114, rel=1e-8)

    def test_no_coupling_matches_exact(self):
        for n in (2, 3, 7):
            ks = tuple(1.3 - 0.2 * q for q in range(n))
            eps = tuple(-0.4 + 0.15 * q for q in range(n))
            _assert_split_is_exact(ChunkParams(ks, eps, (0.0,) * (n * (n - 1) // 2)))

    def test_no_tunneling_matches_exact(self):
        for n in (2, 3, 7):
            eps = tuple(0.7 - 0.25 * q for q in range(n))
            zetas = tuple(0.9 - 0.07 * k for k in range(n * (n - 1) // 2))
            _assert_split_is_exact(ChunkParams((0.0,) * n, eps, zetas))

    def test_table2_split_error_is_small_but_nonzero(self):
        exact = exact_chunk_propagator(TABLE2_INTERVAL_1, 2, DT)
        chunked = chunked_chunk_propagator(TABLE2_INTERVAL_1, 2, DT)
        assert 0.0 < frobenius_distance(exact, chunked) < 0.1

    def test_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = ChunkParams(
                tuple(rng.uniform(-3, 3, size=3)),
                tuple(rng.uniform(-3, 3, size=3)),
                tuple(rng.uniform(-3, 3, size=3)),
            )
            assert is_unitary(chunked_chunk_propagator(params, 3, 0.5), tol=1e-12)

    def test_a_non_uniform_17_qubit_witness_matches_gates_under_the_budget(self, table3):
        # the C(17, 2) x 2^17 pair parities would take 136 MiB; the phases come
        # from the index bits in blocks, so chunked runs where gates does
        chunks = [ChunkParams.uniform(17, *ck.shared) for ck in table3.chunks]
        first = chunks[0]
        chunks[0] = ChunkParams((first.tunneling[0] + 0.01,) + first.tunneling[1:], first.bias, first.coupling)
        schedule = Schedule(17, table3.total_time, tuple(chunks))
        bell = TrainingSet(17, (TrainingItem(PairStateKind.BELL, (0, 1), 1.0),))
        pair_readout.cache_clear()
        tracemalloc.start()
        try:
            value = witness_values(bell, schedule, "chunked")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_BYTES_BUDGET
        assert abs(value - 0.18510982629857214) <= 1e-12
        assert abs(value - witness_values(bell, schedule, "gates")[0]) <= 1e-12


class TestPropagate:
    def test_zero_schedule_is_identity(self, zero_schedule):
        rng = np.random.default_rng(3)
        state = random_state(2, rng)
        for method in ("exact", "chunked"):
            assert np.max(np.abs(propagate(state, zero_schedule, method) - state)) < 1e-12

    @pytest.mark.parametrize("method", ["exact", "chunked"])
    def test_bell_witness_reaches_trained_value(self, table2, method):
        bell = make_pair_state(PairStateKind.BELL, (0, 1), 2)
        final = propagate(bell, table2, method)
        assert expectation_zz(final, 0, 1) ** 2 == pytest.approx(0.999, abs=5e-3)

    def test_chunks_apply_in_chronological_order(self):
        # two distinguishable chunks: applying chunk 0 first is observable
        a = ChunkParams((1.0, 0.0), (0.0, 0.0), (0.0,))
        b = ChunkParams((0.0, 0.0), (2.0, 0.0), (0.0,))
        schedule = Schedule(2, 2.0, (a, b))
        state = random_state(2, np.random.default_rng(4))
        u_a = exact_chunk_propagator(a, 2, 1.0)
        u_b = exact_chunk_propagator(b, 2, 1.0)
        expected = u_b @ (u_a @ state)
        assert np.max(np.abs(propagate(state, schedule, "exact") - expected)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_evolution_is_the_ordered_product_of_the_chunk_propagators_bit_for_bit(self, n):
        # the runner applies each chunk propagator as one block on all n qubits: the same product as u @ columns
        schedule = Schedule(n, 1.58, tuple(_non_uniform(n, 0.01 * k) for k in range(4)))
        rng = np.random.default_rng(n)
        for states in (random_state(n, rng), np.stack([random_state(n, rng) for _ in range(5)])):
            columns = np.ascontiguousarray(np.atleast_2d(states).T)
            for u in chunk_propagators(schedule, "exact"):
                columns = u @ columns
            want = columns.T.reshape(states.shape)
            assert evolve_states(states, schedule, "exact").tobytes() == want.tobytes()

    def test_density_matrix_evolution(self, table2):
        rng = np.random.default_rng(5)
        state = random_state(2, rng)
        rho = np.outer(state, state.conj())
        rho_out = propagate(rho, table2, "chunked")
        state_out = propagate(state, table2, "chunked")
        assert np.max(np.abs(rho_out - np.outer(state_out, state_out.conj()))) < 1e-12

    def test_purity_preserved(self, table2):
        rng = np.random.default_rng(6)
        # mixed state: blend of two pure states
        rho = 0.6 * np.outer(*2 * [random_state(2, rng)]) + 0.4 * np.outer(*2 * [random_state(2, rng)])
        rho = np.asarray(rho, dtype=complex)
        purity = np.trace(rho @ rho).real
        for method in ("exact", "chunked"):
            rho_out = propagate(rho, table2, method)
            assert np.trace(rho_out @ rho_out).real == pytest.approx(purity, abs=1e-10)

    def test_batched_evolution_matches_single(self, table2):
        rng = np.random.default_rng(7)
        states = np.stack([random_state(2, rng) for _ in range(5)])
        batch = evolve_states(states, table2, "chunked")
        for k in range(5):
            single = evolve_states(states[k], table2, "chunked")
            assert np.max(np.abs(batch[k] - single)) < 1e-14

    def test_unknown_method(self, table2):
        with pytest.raises(ValueError):
            propagate(basis_state(2), table2, "magic")

    def test_unknown_method_is_refused_by_the_propagators(self, table2):
        for call in (lambda: evolve_states(basis_state(2), table2, "magic"), lambda: chunk_propagators(table2, "magic")):
            with pytest.raises(ValueError, match="^unknown propagation method 'magic'$"):
                call()

    def test_dimension_mismatch(self, table2):
        with pytest.raises(ValueError):
            propagate(basis_state(3), table2, "exact")


class TestTrotterConsistency:
    def test_error_decreases_with_refinement(self, table2):
        def split_error(schedule):
            u_exact = np.eye(4, dtype=complex)
            u_chunked = np.eye(4, dtype=complex)
            for u in chunk_propagators(schedule, "exact"):
                u_exact = u @ u_exact
            for u in chunk_propagators(schedule, "chunked"):
                u_chunked = u @ u_chunked
            return frobenius_distance(u_exact, u_chunked)

        errors = [split_error(refine_schedule(table2, factor)) for factor in (1, 2, 4)]
        assert errors[0] > errors[1] > errors[2]

    def test_refinement_preserves_exact_evolution(self, table2):
        state = make_pair_state(PairStateKind.P, (0, 1), 2)
        base = propagate(state, table2, "exact")
        refined = propagate(state, refine_schedule(table2, 2), "exact")
        assert np.max(np.abs(base - refined)) < 1e-12


# uniform chunks that differ from chunk to chunk; the last three each have one of K, eps, zeta at 0
VARIED_UNIFORM = ((2.49, 0.093, 0.0382), (0.0, -0.7, 0.45), (1.3, 0.0, -0.3), (-0.8, 0.6, 0.0))
SECTOR_TOL = 1e-12  # per amplitude, absolute; measured at most 4e-15 on normalized states


def _varied_uniform_schedule(n: int, chunks: int = 4) -> Schedule:
    """The first ``chunks`` of ``VARIED_UNIFORM`` on n qubits, each 0.395 long."""
    return Schedule(n, 1.58 * chunks / 4, tuple(ChunkParams.uniform(n, *shared) for shared in VARIED_UNIFORM[:chunks]))


_PARAMETERS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3))


@st.composite
def _bounded_schedules(draw):
    """Schedules of 1 to 8 qubits and 1 to 3 chunks, each uniform or not, signed zeros included."""
    n = draw(st.integers(1, 8))
    pairs = n * (n - 1) // 2
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            chunks.append(ChunkParams.uniform(n, *(draw(_PARAMETERS) for _ in range(3))))
        else:
            chunks.append(ChunkParams(*(draw(st.lists(_PARAMETERS, min_size=size, max_size=size))
                                        for size in (n, n, pairs))))
    return Schedule(n, draw(st.floats(1e-3, 1e3)), chunks)


def _dense_unitary(schedule: Schedule, method: str) -> np.ndarray:
    """The dense reference: the product of the chunk propagators."""
    product = np.eye(2**schedule.n_qubits, dtype=complex)
    for u in chunk_propagators(schedule, method):
        product = u @ product
    return product


# (K, eps) of a chunked layer with beta = atan2(K, eps) in every quadrant and on each axis, and both zero
_QUADRANTS = [(0.0, 0.0), (0.0, 0.7), (0.0, -0.7), (2.3, 0.0), (-2.3, 0.0), (2.3, 0.7), (-2.3, 0.7), (2.3, -0.7),
              (-2.3, -0.7)]


class TestWignerBlocks:
    """``chunked``'s sector steps: three diagonals per chunk around one shared J_x eigenbasis, no ``eigh``."""

    @pytest.mark.parametrize("n", [*range(2, 11), 64, 256])
    def test_each_block_propagates_as_its_eigh_oracle(self, n):
        # trail X mid X^T lead per block, for the pair (x) Dicke space's three sectors and, up to 64 qubits,
        # all n/2 + 1: the eigh oracle's V exp(-i lam dt) V^T after the ZZ phase, which enters lead alone
        chunks = tuple(ChunkParams.uniform(n, k, eps, 0.3) for k, eps in _QUADRANTS)
        schedule = Schedule(n, 0.4 * len(chunks), chunks)
        for blocks in {min(3, n // 2 + 1), n // 2 + 1 if n <= 64 else 3}:
            terms, (steps,) = hamiltonian._chunk_sweeps(schedule, "chunked", width=1, blocks=blocks, backward=False)
            zz_phase = np.exp(-1j * schedule.dt * 0.3 * terms[2])[:, np.newaxis, :]
            for chunk, (lead, vectors, mid, trail, shared) in zip(chunks, steps):
                assert vectors is steps[0][1]  # one basis for every chunk, and O(n) numbers per chunk
                assert shared == chunk.shared  # what the backward step reads beside the diagonals
                assert lead.shape == mid.shape == trail.shape == (blocks, n + 1, 1)
                got = (trail * vectors * mid.swapaxes(-1, -2)) @ (vectors.swapaxes(-1, -2) * lead.swapaxes(-1, -2))
                want = sector_layer_propagators(chunk.shared, n, blocks, schedule.dt) * zz_phase
                assert np.max(np.abs(got - want)) <= 1e-12, chunk.shared

    @pytest.mark.parametrize("n", range(2, 13))
    def test_the_basis_is_the_one_built_block_by_block_bit_for_bit(self, n):
        for blocks in {min(3, n // 2 + 1), n // 2 + 1}:
            assert hamiltonian.wigner_basis(n, blocks).tobytes() == wigner_basis_apart(n, blocks).tobytes()

    @pytest.mark.parametrize("n", [2150, 2301])
    def test_a_basis_past_j_1074_is_finite_orthonormal_and_diagonalises_j_x(self, n):
        # an edge column's start 2^-J sqrt(C(2J, J - M)) underflows to 0 past J = 1074, so it starts at e^-700
        try:
            basis = hamiltonian.wigner_basis(n, 1)[0]
        finally:
            hamiltonian.wigner_basis.cache_clear()
        links = hamiltonian.sector_terms(n, 1)[0, 0, :-1]  # the sector fills the block: J = n/2
        assert np.all(np.isfinite(basis))
        assert np.max(np.abs(basis.T @ basis - np.eye(n + 1))) < 1e-13
        residual = -basis * (n - 2 * np.arange(n + 1.0))  # 2 J_x X - X 2M, J_x tridiagonal on the ladder
        residual[:-1] += links[:, np.newaxis] * basis[1:]
        residual[1:] += links[:, np.newaxis] * basis[:-1]
        assert np.max(np.abs(residual)) < 1e-11

    def test_a_cold_build_peaks_at_the_basis_and_one_block(self):
        # the basis is built in place: no second block beside it, nor the norm's temporaries
        n, blocks = 400, 3
        hamiltonian.wigner_basis.cache_clear()
        hamiltonian.sector_terms.cache_clear()
        tracemalloc.start()
        try:
            basis = hamiltonian.wigner_basis(n, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            hamiltonian.wigner_basis.cache_clear()
        assert peak < basis.nbytes + 8 * (n + 1) ** 2 + 2**20

    def test_a_chunked_sweep_diagonalises_nothing(self, monkeypatch, table3):
        # neither the sector Hamiltonians nor eigh, cold or warm; exact still runs both once
        calls = count_calls(monkeypatch, [(hamiltonian, "spin_sector_hamiltonian"), (np.linalg, "eigh")])
        hamiltonian.wigner_basis.cache_clear()
        for _ in range(2):
            evolve_pair_dicke(orbit_coordinates(7), table3, "chunked")
        assert calls == {"spin_sector_hamiltonian": 0, "eigh": 0}
        evolve_pair_dicke(orbit_coordinates(7), table3, "exact")
        assert calls == {"spin_sector_hamiltonian": 1, "eigh": 1}


class TestSpinSectors:
    """Uniform chunks in the total-spin sectors, held to the dense propagators."""

    @staticmethod
    def _assert_sector_distance_is_the_dense_one(schedule):
        # every sector J = n/2 - k, weighted by its C(n, k) - C(n, k-1) copies
        n = schedule.n_qubits
        try:
            want = np.linalg.norm(_dense_unitary(schedule, "chunked") - _dense_unitary(schedule, "exact"))
        finally:
            exact_chunk_propagator.cache_clear()  # up to 64 MiB at n = 10
        assert want > 1e-3
        got, _, _ = sector_trotter_error(orbit_coordinates(n), schedule)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sector_unitary_distance_matches_the_dense_propagators(self, n):
        self._assert_sector_distance_is_the_dense_one(_varied_uniform_schedule(n))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_an_odd_chunk_count_matches_the_dense_propagators(self, n):
        # a chunked step applying -F for F is -1 on every half-integer J, so
        # on odd n it flips the sectors once a chunk: four chunks cancel the
        # signs, three keep one
        self._assert_sector_distance_is_the_dense_one(_varied_uniform_schedule(n, chunks=3))

    def test_a_sweep_of_a_thousand_chunks_matches_the_dense_propagators(self):
        # 1000 forward steps of 2 qubits' basis columns keep their round-off
        # within 1e-10; the last chunk has a coupling, so chunked and exact differ there
        varied = _varied_uniform_schedule(2)
        schedule = Schedule(2, varied.total_time * 250, varied.chunks[::-1] * 250)
        want = np.linalg.norm(_dense_unitary(schedule, "chunked") - _dense_unitary(schedule, "exact"))
        got, _, _ = sector_trotter_error(orbit_coordinates(2), schedule)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_the_largest_admitted_sector_comparison_peaks_under_the_budget(self, table3):
        # 6236 uniform chunks of 10 qubits, the largest register verify builds, are the
        # most both methods' sweeps admit; one more is refused before anything is built
        chunk = ChunkParams.uniform(10, *table3.chunks[0].shared)
        schedule = Schedule(10, table3.dt * 6236, (chunk,) * 6236)
        tracemalloc.start()
        try:
            distance, _, _ = sector_trotter_error(orbit_coordinates(10), schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(distance) and peak < DENSE_BYTES_BUDGET
        longer = Schedule(10, table3.dt * 6237, (chunk,) * 6237)
        with pytest.raises(DimensionError, match="chunked and exact sweeps for 10 qubits and 6237 chunks"):
            sector_trotter_error(orbit_coordinates(10), longer)

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_sector_finals_are_an_isometric_image_of_the_sweeps(self, n):
        # the rows come back in coupled coordinates: every inner product
        # among both methods' finals is the pair (x) Dicke sweeps' one
        schedule = _varied_uniform_schedule(n)
        rng = np.random.default_rng(n)
        coords = rng.normal(size=(3, 4 * (n - 1))) + 1j * rng.normal(size=(3, 4 * (n - 1)))
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        _, chunked, exact = sector_trotter_error(coords, schedule)
        image = np.concatenate([chunked, exact])
        swept = np.concatenate([evolve_pair_dicke(coords, schedule, method) for method in ("chunked", "exact")])
        assert np.max(np.abs(image.conj() @ image.T - swept.conj() @ swept.T)) <= SECTOR_TOL

    @settings(max_examples=60, deadline=None)
    @given(schedule=_bounded_schedules())
    def test_the_norm_bound_bounds_every_energy_and_angle(self, schedule):
        # the range rule admits a schedule by each chunk's norm_bound alone;
        # these are the numbers every method forms phases from. Round-off may
        # pass the bound by far less than the factor 2 the rule leaves for it
        n, dt = schedule.n_qubits, schedule.dt
        blocks = n // 2 + 1
        for ck in schedule.chunks:
            bound = ck.norm_bound * (1 + 1e-12)
            assert np.abs(np.linalg.eigvalsh(build_hamiltonian(ck, n))).max() <= bound
            if ck.is_symmetric:  # exact's blocks; chunked's eigenvalues 2rM, and its split-off ZZ diagonal
                k, eps, zeta = ck.shared
                assert np.abs(np.linalg.eigvalsh(spin_sector_hamiltonian((k, eps, zeta), n, blocks))).max() <= bound
                assert n * math.hypot(k, eps) <= bound
                assert np.abs(zeta * hamiltonian.sector_terms(n, blocks)[2]).max() <= bound
        # a Rz angle is a phase; a Ry angle is the axis's atan2(K, eps), at most pi
        largest = 2 * dt * max(ck.norm_bound for ck in schedule.chunks) * (1 + 1e-12)
        for op in compile_schedule(schedule).ops:
            assert op.angle is None or abs(op.angle) <= (largest if op.kind is GateKind.ROT_Z else math.pi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_the_sector_blocks_hold_the_dense_spectrum(self, n):
        # each block's eigenvalues, once per copy of its sector, are the dense Hamiltonian's
        shared = (1.3, -0.7, 0.45)
        blocks = spin_sector_hamiltonian(shared, n, n // 2 + 1)
        eigvals = []
        for k, block in enumerate(blocks):
            copies = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            eigvals += [*np.linalg.eigvalsh(block[k : n - k + 1, k : n - k + 1])] * copies
        dense = np.linalg.eigvalsh(build_hamiltonian(ChunkParams.uniform(n, *shared), n))
        assert np.max(np.abs(np.sort(eigvals) - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_chunks_of_zeros_leave_states_unchanged(self, n):
        schedule = Schedule(n, 1.58, (ChunkParams.uniform(n, 0.0, 0.0, 0.0),) * 3)
        state = random_state(n, np.random.default_rng(9))
        assert np.max(np.abs(evolve_states(state, schedule, "exact") - state)) <= SECTOR_TOL

    def test_eleven_qubits_are_refused_as_by_the_dense_path(self):
        schedule = Schedule(11, 1.58, (ChunkParams.uniform(11, 1.0, 0.5, 0.2),) * 4)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=r"^refusing dense 2\*\*11 x 2\*\*11 arrays for 11 > 10 qubits$"):
                evolve_states(np.zeros(2**11), schedule, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _chunk(K=(1.0, 1.0), eps=(0.0, 0.0), zeta=None, **extra) -> dict:
    return {"K": K, "eps": eps, "zeta": {"0,1": 0.5} if zeta is None else zeta, **extra}


def _document(n=2, chunks=None, **extra) -> str:
    return json.dumps({"n_qubits": n, "total_time": 1.0, "chunks": [_chunk()] if chunks is None else chunks, **extra})


# (id, document, the full refusal) for each class of malformed schedule; where a
# document breaks several rules, the message names the first in document order
_REFUSALS = [
    ("invalid_json", "{not json",
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("not_an_object", "[]", "schedule document must be a JSON object"),
    ("unknown_key", _document(bogus=1), "unknown key 'bogus' in schedule document"),
    ("missing_key", '{"n_qubits": 2, "total_time": 1.0}', "missing key 'chunks' in schedule document"),
    ("n_qubits_zero", _document(0), "'n_qubits' must be a positive integer"),
    ("n_qubits_bool", _document(True), "'n_qubits' must be a positive integer"),
    ("n_qubits_float", _document(2.0), "'n_qubits' must be a positive integer"),
    ("chunks_not_a_list", _document(chunks={}), "'chunks' must be a list of chunk objects"),
    ("no_chunks", _document(chunks=[]), "schedule needs at least one chunk"),
    ("total_time_string", _document(total_time="1"), "'total_time' must be a finite number, got '1'"),
    ("total_time_negative", _document(total_time=-1.0), "total_time must be positive and finite"),
    ("chunk_not_an_object", _document(chunks=[_chunk(), [1]]), "chunk 1 must be a JSON object"),
    ("unknown_chunk_key", _document(chunks=[_chunk(J=1)]), "unknown key 'J' in chunk 0"),
    ("missing_chunk_key", _document(chunks=[{"K": [1, 1], "eps": [0, 0]}]), "missing key 'zeta' in chunk 0"),
    ("zeta_not_an_object", _document(chunks=[_chunk(zeta=[0.5])]), "'zeta' in chunk 0 must be an object keyed by 'i,j'"),
    ("pair_key_spaced", _document(chunks=[_chunk(zeta={"0, 1": 0.5})]),
     "bad zeta pair key '0, 1' in chunk 0, expected 'i,j'"),
    ("pair_key_padded", _document(chunks=[_chunk(zeta={"0,01": 0.5})]),
     "bad zeta pair key '0,01' in chunk 0, expected 'i,j'"),
    ("pair_key_unsplit", _document(chunks=[_chunk(zeta={"01": 0.5})]), "bad zeta pair key '01' in chunk 0"),
    ("pair_key_letters", _document(chunks=[_chunk(zeta={"a,b": 0.5})]), "bad zeta pair key 'a,b' in chunk 0"),
    ("pair_out_of_range", _document(chunks=[_chunk(zeta={"0,2": 0.5})]), "zeta pair '0,2' out of range in chunk 0"),
    ("pair_reversed", _document(chunks=[_chunk(zeta={"1,0": 0.5})]), "zeta pair '1,0' out of range in chunk 0"),
    ("pair_extra", _document(chunks=[_chunk(zeta={"0,1": 0.5, "0,2": 0.5})]), "zeta pair '0,2' out of range in chunk 0"),
    ("pair_missing", _document(3, [_chunk(K=[1] * 3, eps=[0] * 3, zeta={"0,1": 0.5, "1,2": 0.5})]),
     "zeta is missing pair '0,2' in chunk 0"),
    ("pair_missing_in_chunk_1", _document(chunks=[_chunk(), _chunk(zeta={})]), "zeta is missing pair '0,1' in chunk 1"),
    ("K_length", _document(chunks=[_chunk(K=[1.0])]), "'K' in chunk 0 has 1 entries for 2 qubits"),
    ("eps_length", _document(chunks=[_chunk(eps=[0.0] * 3)]), "'eps' in chunk 0 has 3 entries for 2 qubits"),
    ("bad_key_before_own_length", _document(chunks=[_chunk(K=[1.0], zeta={"0, 1": 0.5})]),
     "bad zeta pair key '0, 1' in chunk 0, expected 'i,j'"),
    ("bad_key_before_later_length", _document(chunks=[_chunk(zeta={"0, 1": 0.5}), _chunk(K=[1.0])]),
     "bad zeta pair key '0, 1' in chunk 0, expected 'i,j'"),
    ("bad_key_before_later_chunk", _document(chunks=[_chunk(zeta={"0, 1": 0.5}), 5]),
     "bad zeta pair key '0, 1' in chunk 0, expected 'i,j'"),
    ("length_before_earlier_value", _document(chunks=[_chunk(zeta={"0,1": "x"}), _chunk(K=[1.0])]),
     "'K' in chunk 1 has 1 entries for 2 qubits"),
    ("K_not_a_list", _document(chunks=[_chunk(K="11")]), "'K' in chunk 0 must be a list of numbers, got '11'"),
    ("zeta_string", _document(chunks=[_chunk(zeta={"0,1": "0.5"})]),
     "zeta pair '0,1' in chunk 0 must be a finite number, got '0.5'"),
    ("zeta_null", _document(chunks=[_chunk(zeta={"0,1": None})]),
     "zeta pair '0,1' in chunk 0 must be a finite number, got None"),
    ("zeta_before_K", _document(chunks=[_chunk(K=[1.0, "x"], zeta={"0,1": True})]),
     "zeta pair '0,1' in chunk 0 must be a finite number, got True"),
    ("K_bool", _document(chunks=[_chunk(K=[1.0, True])]), "'K' in chunk 0 entry 1 must be a finite number, got True"),
    ("eps_nan", _document(chunks=[_chunk(eps=[0.0, math.nan])]), "'eps' in chunk 0 entry 1 must be a finite number, got nan"),
    ("zeta_infinity", _document(chunks=[_chunk(zeta={"0,1": -math.inf})]),
     "zeta pair '0,1' in chunk 0 must be a finite number, got -inf"),
    ("K_int_past_float", _document(chunks=[_chunk(K=[1.0, 10**309])]),
     f"'K' in chunk 0 entry 1 must be a finite number, got {10**309}"),
    ("sum_overflows", _document(chunks=[_chunk(eps=[1e308, 1e308], zeta={"0,1": 1e308})]),
     "bad chunk 0: Hamiltonian parameters must be finite, and so must the sum of their magnitudes"),
    ("dt_rounds_to_0", _document(total_time=5e-324, chunks=[_chunk(), _chunk()]),
     "dt must be positive: total_time 5e-324 over 2 chunks is 0"),
    ("phases_out_of_range", _document(chunks=[_chunk(K=[3e307, 3e307])]),  # 2 times 1.0 times 6e307 + 0.5
     "a phase of exp(-i H dt) keeps no digit: a chunk's energies over a time of 1.0 reach 1.2e+308 radians, not below "
     "2**52"),
    ("phases_without_digits", _document(chunks=[_chunk(K=[2**50, 2**50])]),  # 2 (2**51 + 0.5) is not below 2**52
     "a phase of exp(-i H dt) keeps no digit: a chunk's energies over a time of 1.0 reach 4.5e+15 radians, not below "
     "2**52"),
    ("symmetric_not_a_bool", _document(symmetric=1), "'symmetric' must be true or false, got 1"),
    ("symmetric_over_non_uniform", _document(symmetric=True, chunks=[_chunk(K=[1.0, 2.0])]),
     "'symmetric' is true but the chunk parameters are not uniform"),
]


class TestScheduleJson:
    def test_round_trip(self, table2):
        assert schedule_from_json(schedule_to_json(table2)) == table2

    def test_pair_keys_are_the_pairs_in_order(self):
        for n in range(1, 40):
            assert hamiltonian._pair_keys(n) == [f"{i},{j}" for i, j in qubit_pairs(n)]
        schedule = Schedule(12, 1.0, (ChunkParams(range(12), range(12), [0.5 * k for k in range(66)]),))
        zeta = json.loads(schedule_to_json(schedule))["chunks"][0]["zeta"]
        assert list(zeta.items()) == [(f"{i},{j}", 0.5 * k) for k, (i, j) in enumerate(qubit_pairs(12))]

    def test_fixture_values(self, table2, table3):
        assert table2.chunks[0].tunneling == (2.49, 2.49)
        assert table2.chunks[1].coupling == (0.128,)
        assert table2.chunks[3].bias == (0.0833, 0.0833)
        assert table3.n_qubits == 7
        assert len(table3.chunks[0].coupling) == 21
        assert table3.chunks[1].bias[0] == 0.299
        assert table3.chunks[3].coupling[0] == 0.00132

    def test_unknown_top_level_key(self):
        with pytest.raises(ScheduleFormatError, match="bogus"):
            schedule_from_json('{"n_qubits": 2, "total_time": 1.0, "chunks": [], "bogus": 1}')

    def test_unknown_chunk_key(self, table2):
        text = schedule_to_json(table2).replace('"K"', '"J"', 1)
        with pytest.raises(ScheduleFormatError, match="J"):
            schedule_from_json(text)

    def test_missing_pair(self):
        doc = '{"n_qubits": 2, "total_time": 1.0, "chunks": [{"K": [1, 1], "eps": [0, 0], "zeta": {}}]}'
        with pytest.raises(ScheduleFormatError, match="0,1"):
            schedule_from_json(doc)

    def test_bad_json(self):
        with pytest.raises(ScheduleFormatError):
            schedule_from_json("{not json")

    @pytest.mark.parametrize("flag", [True, False, None], ids=["true", "false", "missing"])
    def test_symmetric_key_is_optional_and_written_derived(self, table2, flag):
        doc = json.loads(schedule_to_json(table2))
        assert doc["symmetric"] is True
        if flag is None:
            del doc["symmetric"]
        else:
            doc["symmetric"] = flag
        schedule = schedule_from_json(json.dumps(doc))
        assert schedule == table2 and schedule.symmetric
        assert json.loads(schedule_to_json(Schedule(3, 1.0, (DISTINCT_3,))))["symmetric"] is False

    def test_load(self, tmp_path, table2):
        path = tmp_path / "s.json"
        path.write_text(schedule_to_json(table2))
        assert load_schedule(path) == table2

    @pytest.mark.parametrize("text, message", [case[1:] for case in _REFUSALS], ids=[case[0] for case in _REFUSALS])
    def test_each_refusal_keeps_its_text(self, text, message):
        with pytest.raises(ScheduleFormatError) as refused:
            schedule_from_json(text)
        assert str(refused.value) == message

    def test_a_short_document_for_a_huge_register_is_refused_at_once(self):
        # C(10^7, 2) pairs would take terabytes: the sizes are checked before any pair is built
        text = _document(10_000_000, [_chunk(K=[1.0] * 3, eps=[0.0] * 3)])
        tracemalloc.start()
        start = perf_counter()
        try:
            with pytest.raises(ScheduleFormatError) as refused:
                schedule_from_json(text)
            elapsed = perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "zeta is missing pair '0,2' in chunk 0"
        assert elapsed < 0.1 and peak < 2**20

    def test_a_register_past_any_index_is_refused_as_malformed(self):
        # an n past the platform's index size is read as a short document, not taken to a sequence's length
        with pytest.raises(ScheduleFormatError, match="^zeta is missing pair '0,2' in chunk 0$"):
            schedule_from_json(_document(10**400, [_chunk(K=[1.0], eps=[0.0])]))

