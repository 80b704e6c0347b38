"""Gradient-descent training of schedules and bootstrapping across sizes.

The loss is the summed squared witness error over a training set. Each
chunk has three free parameters, shared by every qubit and pair:
tunneling, bias and coupling. Updates act on those shared parameters
directly, so symmetry is preserved exactly. The gradient is exact and
costs one forward and one backward sweep: the backward sweep carries the
co-state back through the chunks and reads every partial on the way (the
adjoint method). Both sweeps run on the four orbit states in the
4(n-1)-dimensional pair (x) Dicke space, which returns the three shared
partials per chunk directly; no 2^n vector is built. The forward sweep
also yields the loss at the current parameters, so an epoch costs one
forward and one backward sweep, and the rms it reports is read from the
gradient's own forward sweep; only a schedule that will take no further
step is evaluated forward-only.

Bootstrapping seeds the n-qubit optimization with the (n-1)-qubit
solution, keeping each chunk's K, eps and zeta. That does not make the
correction shrink as n grows: the loss sums over all C(n, 2) pairs, so a
step at a fixed learning rate grows with n, and at the default settings
chains from seeds 0-9 diverge somewhere from n = 5 to n = 11 (seed 4
before n = 7).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ChunkParams, Schedule, adjoint_partials, pair_dicke_operators
from .sampler import map_ordered  # unused here; the benchmark tracer patches trainer.map_ordered
from .witness import TrainingSet, build_training_set, check_training_set, check_training_set_size
from .witness import orbit_zz, witness_readout, witness_values

DEFAULT_TOTAL_TIME = 1.58
MAX_CHUNKS = 1024  # per schedule; every sweep and every saved schedule grows with it
TRAINING_METHODS = ("chunked", "exact")  # the methods that can differentiate a schedule


def _check_chunk_count(chunk_count: int) -> None:
    if not 1 <= chunk_count <= MAX_CHUNKS:
        raise ValueError(f"chunk count must lie in 1..{MAX_CHUNKS}, got {chunk_count}")


def _check_seed(seed: int) -> None:
    """Refuse a seed that ``np.random.default_rng`` would reject, naming the seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    max_epochs: int = 2000
    target_rms: float = 1e-3
    chunk_count: int = 4
    seed: int = 0
    method: str = "chunked"

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if not 0 <= self.target_rms < math.inf:
            raise ValueError(f"target_rms must be non-negative and finite, got {self.target_rms!r}")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        _check_chunk_count(self.chunk_count)
        _check_seed(self.seed)
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.method not in TRAINING_METHODS:
            raise ValueError(f"method must be {' or '.join(map(repr, TRAINING_METHODS))}, got {self.method!r}")


@dataclass(frozen=True)
class TrainResult:
    """A trained schedule, its rms history and whether its last rms met the target."""

    schedule: Schedule
    rms_history: tuple[float, ...]  # rms before any step, then after each epoch
    converged: bool

    @property
    def epochs_used(self) -> int:
        return len(self.rms_history) - 1

    @property
    def final_rms(self) -> float:
        return self.rms_history[-1]


class TrainingDiverged(RuntimeError):
    """Loss blew past the divergence guard; carries the best schedule seen."""

    def __init__(self, message: str, last_good: Schedule, rms_history: tuple[float, ...]):
        super().__init__(message)
        self.last_good = last_good
        self.rms_history = rms_history


def rms_error(schedule: Schedule, training_set: TrainingSet, method: str = "chunked") -> float:
    """Root mean squared witness error over the training set; an empty set
    is refused by :func:`witness_values` before the division."""
    return math.sqrt(training_loss(schedule, training_set, method) / len(training_set.items))


def training_loss(schedule: Schedule, training_set: TrainingSet, method: str = "chunked") -> float:
    """Summed squared witness error (the quantity the gradient differentiates)."""
    values = witness_values(training_set, schedule, method)
    return float(np.sum((values - training_set.targets) ** 2))


# --- flat parameter vector <-> schedule ---------------------------------
#
# (tunneling, bias, coupling) per chunk, chunk-major.


def schedule_parameters(schedule: Schedule) -> np.ndarray:
    return np.array([ck.shared for ck in schedule.chunks]).ravel()


def schedule_with_parameters(template: Schedule, params: np.ndarray) -> Schedule:
    n = template.n_qubits
    if len(params) != 3 * template.n_chunks:
        raise ValueError(f"expected {3 * template.n_chunks} parameters, got {len(params)}")
    chunks = tuple(ChunkParams.uniform(n, float(k), float(e), float(z)) for k, e, z in np.reshape(params, (-1, 3)))
    return Schedule(n, template.total_time, chunks)


def gradient(schedule: Schedule, training_set: TrainingSet, config: TrainerConfig) -> tuple[float, np.ndarray]:
    """The summed squared error and its exact gradient in the shared parameters.

    Both sweeps run on the four orbit states in the pair (x) Dicke space.
    The loss is read from the states the forward sweep has evolved, through
    the read-out :func:`witness_values` uses (``orbit_zz``), so it equals
    :func:`training_loss` bit for bit. With ``zz`` the unclamped
    ``<Z_0 Z_1>`` of an evolved orbit state and ``t`` an item's target, each
    item adds ``4 zz (zz^2 - t)`` to its row's weight ``c``, and the
    co-state of a row is ``c Z_0 Z_1 psi_final``. A non-uniform chunk is
    refused by :attr:`ChunkParams.shared` as the sweeps are built.
    """
    check_training_set(training_set, schedule)
    n = training_set.n_qubits
    coords, rows = training_set.pair_dicke_orbits
    targets = training_set.targets
    loss = math.nan

    def costate(finals: np.ndarray) -> np.ndarray:
        nonlocal loss
        zz = orbit_zz(finals, n)  # the read-out is built after the sweep rule has admitted n
        loss = float(np.sum((witness_readout(zz, rows) - targets) ** 2))
        item_zz = zz[rows]
        weights = np.bincount(rows, 4 * item_zz * (item_zz**2 - targets), minlength=len(zz))
        return weights[:, np.newaxis] * pair_dicke_operators(n).readout * finals

    grad = adjoint_partials(coords, schedule, config.method, costate).ravel()
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite value encountered during gradient evaluation")
    return loss, grad


_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_PATIENCE = 50


def train(init: Schedule, training_set: TrainingSet, config: TrainerConfig) -> TrainResult:
    """Plain gradient descent with momentum until target_rms or max_epochs.

    Every schedule that will take a step is evaluated by :func:`gradient`,
    whose forward sweep also gives its rms; only the last schedule of the
    budget (the initial one at ``max_epochs = 0``) is evaluated forward-only
    by :func:`rms_error`. So ``max_epochs = K`` costs K+1 forward and K
    backward sweeps, and a train that meets its target early runs one
    backward sweep more than the steps it took.

    Deterministic for fixed inputs. Raises :class:`TrainingDiverged` when
    the rms exceeds 10x its initial value for 50 consecutive epochs, and
    ValueError when a step overflows a parameter.
    """

    def evaluate(schedule: Schedule, steps_left: int) -> tuple[float, np.ndarray | None]:
        if steps_left == 0:
            return rms_error(schedule, training_set, config.method), None
        loss, grad = gradient(schedule, training_set, config)
        return math.sqrt(loss / len(training_set.items)), grad

    params = schedule_parameters(init)  # refuses a non-uniform chunk before any sweep
    velocity = np.zeros_like(params)
    schedule = init
    rms, grad = evaluate(schedule, config.max_epochs)
    history = [rms]
    best_schedule, best_rms = schedule, rms
    if rms <= config.target_rms:
        return TrainResult(schedule, tuple(history), True)
    initial_rms = rms
    bad_streak = 0
    for epochs in range(1, config.max_epochs + 1):
        with np.errstate(over="ignore"):  # an overflowing step is refused below, naming rate and epoch
            velocity = config.momentum * velocity - config.learning_rate * grad
            params = params + velocity
        if not np.all(np.isfinite(params)):
            raise ValueError(f"learning rate {config.learning_rate!r} overflows a parameter at epoch {epochs}")
        schedule = schedule_with_parameters(init, params)
        rms, grad = evaluate(schedule, config.max_epochs - epochs)
        history.append(rms)
        if rms < best_rms:
            best_schedule, best_rms = schedule, rms
        if rms > _DIVERGENCE_FACTOR * initial_rms:
            bad_streak += 1
            if bad_streak >= _DIVERGENCE_PATIENCE:
                raise TrainingDiverged(
                    f"rms {rms:.3e} exceeded 10x the initial {initial_rms:.3e} "
                    f"for {bad_streak} consecutive epochs (epoch {epochs})",
                    last_good=best_schedule,
                    rms_history=tuple(history),
                )
        else:
            bad_streak = 0
        if rms <= config.target_rms:
            return TrainResult(schedule, tuple(history), True)
    return TrainResult(schedule, tuple(history), False)


def random_schedule(n: int, chunk_count: int, seed: int) -> Schedule:
    """Documented random initialization, drawn per chunk and shared across
    qubits: tunneling ~ U(2.4, 2.6), bias and coupling ~ U(-0.1, 0.1)."""
    check_training_set_size(n)  # before the C(n, 2) couplings are built
    _check_chunk_count(chunk_count)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    chunks = tuple(
        ChunkParams.uniform(n, 2.5 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        for _ in range(chunk_count)
    )
    return Schedule(n, DEFAULT_TOTAL_TIME, chunks)


def bootstrap(prev: TrainResult, n: int, config: TrainerConfig) -> TrainResult:
    """Train the n-qubit witness starting from the (n-1)-qubit solution."""
    source = prev.schedule
    if n <= source.n_qubits:
        raise ValueError(f"bootstrap target {n} must exceed the source size {source.n_qubits}")
    chunks = tuple(ChunkParams.uniform(n, *ck.shared) for ck in source.chunks)
    return train(Schedule(n, source.total_time, chunks), build_training_set(n), config)


def bootstrap_chain(n_max: int, config: TrainerConfig, start: Schedule | None = None) -> dict[int, TrainResult]:
    """Train at n=2 from ``start`` (default: :func:`random_schedule` with the
    config's chunk count and seed), then bootstrap one qubit at a time to n_max."""
    check_training_set_size(n_max)  # refuse before the first size trains, also n_max < 2
    results: dict[int, TrainResult] = {}
    init = random_schedule(2, config.chunk_count, config.seed) if start is None else start
    results[2] = train(init, build_training_set(2), config)
    for n in range(3, n_max + 1):
        results[n] = bootstrap(results[n - 1], n, config)
    return results


def rms_history_csv(result: TrainResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "rms"])
    for epoch, rms in enumerate(result.rms_history):
        writer.writerow([epoch, repr(rms)])
    return buf.getvalue()


def bootstrap_summary_csv(results: dict[int, TrainResult]) -> str:
    """One row per system size: parameters per chunk, epochs, final rms."""
    sizes = sorted(results)
    n_chunks = results[sizes[0]].schedule.n_chunks
    header = ["n_qubits", "epochs", "rms"]
    for k in range(n_chunks):
        header += [f"K_{k}", f"eps_{k}", f"zeta_{k}"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for n in sizes:
        res = results[n]
        row: list = [n, res.epochs_used, repr(res.final_rms)]
        for ck in res.schedule.chunks:
            row += [repr(value) for value in ck.shared]
        writer.writerow(row)
    return buf.getvalue()
