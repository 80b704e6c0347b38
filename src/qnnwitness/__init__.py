"""Machine-learned pairwise entanglement witness, end to end.

Build the pairwise-coupled Hamiltonian, propagate exactly or in Trotter
chunks, compile chunks to Ry/Rz/CNOT circuits, train the piecewise
parameters against the four reference states, bootstrap from 2 up to 7
qubits, and simulate finite-shot measurement statistics.
"""

from types import ModuleType as _ModuleType

from .core import (
    Circuit,
    GateKind,
    GateOp,
    apply_circuit,
    circuit_unitary,
    density_matrix,
    expectation_zz,
    frobenius_distance,
)
from .hamiltonian import (
    ChunkParams,
    Schedule,
    ScheduleFormatError,
    build_hamiltonian,
    chunked_chunk_propagator,
    exact_chunk_propagator,
    load_schedule,
    propagate,
    refine_schedule,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
)
from .compiler import (
    compile_schedule,
    compile_single_qubit,
    compile_zz,
    export_qasm,
    extract_rotation_angles,
    gate_counts,
    parse_qasm,
    verify_equivalence,
)
from .witness import (
    PairStateKind,
    TrainingItem,
    TrainingSet,
    WITNESS_TARGETS,
    build_training_set,
    make_pair_state,
    witness_value,
    witness_values,
)
from .trainer import (
    TrainerConfig,
    TrainResult,
    TrainingDiverged,
    bootstrap,
    bootstrap_chain,
    gradient,
    random_schedule,
    rms_error,
    train,
)
from .sampler import (
    ShotConfig,
    ShotStatistics,
    sweep,
)
from .fixtures import fixture_path, fixture_schedule

__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
