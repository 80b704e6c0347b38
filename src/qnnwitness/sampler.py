"""Finite-shot simulation of the witness measurement.

A shot yields the pair parity +1 with probability ``p = (1 + <ZZ>)/2``,
so a run of n shots is one binomial count ``k ~ Binomial(n, p)`` with
mean parity ``(2k - n)/n``; the witness estimate for the run is the
squared mean. Squaring makes the estimator biased upward by
``(1 - <ZZ>^2)/n``, which the statistics here expose rather than hide:
sweeps record the unsquared estimator's mean and variance alongside the
witness estimates.

Each run of a sweep is one ``sample_zz_mean`` call on its own Philox
(counter-based) stream keyed on (seed, shot_count, iteration); the call
reads the final state's norm and <ZZ> together, in one product of its
squared parts with the pair's cached read-out (``core.zz_moments``). A count's
row therefore depends on neither the other counts in the grid nor their
order: any subset of the grid can be evaluated in any order, or in
parallel, with identical results. The stream keys are derived once per
block of ``KEY_BLOCK`` iterations, as numpy array operations over the
block (:func:`_stream_keys`), and are the keys one ``SeedSequence`` per
run gives, so the streams are those.

Confidence intervals are at the fixed 95% level (``CONFIDENCE_LEVEL``)
and cover the spread of single-experiment outcomes (``mean +- z * sample
std``), not the standard error of the grand mean; the CSV carries both
the std and the std/sqrt(iterations) so either reading can be checked.
"""

from __future__ import annotations

import csv
import io
import operator
import statistics
from dataclasses import dataclass

import numpy as np

from .core import ArrayCache, bounded_zz, check_norm, zz_moments
from .hamiltonian import Schedule
from .witness import PairStateKind, evolve_dense, make_pair_state

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MAX_SHOTS = int(np.iinfo(np.int64).max)
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's 256-bit counter at 0; each stream copies it
_ZERO_COUNTER.flags.writeable = False
# per shot count; each iteration has the Philox stream of its own SeedSequence, whose key is derived once
# per block of KEY_BLOCK iterations
MAX_ITERATIONS = 100_000
KEY_BLOCK = 128  # iterations whose stream keys are derived together; a power of two, so a block never crosses 2**32
CONFIDENCE_LEVEL = 0.95
Z_SCORE = statistics.NormalDist().inv_cdf(0.5 + CONFIDENCE_LEVEL / 2.0)  # two-sided: 1.959964


def map_ordered(fn, items) -> list:
    """map() preserving input order, as a list; a function of its own so
    that the benchmark tracer can patch it by name."""
    return [fn(item) for item in items]


def _integer(value, what: str) -> int:
    """``value`` as an int if it is an integer (numpy's included), else a refusal:
    a float, even a whole one, a bool or a numeric string is no count."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ShotConfig:
    shot_counts: tuple[int, ...] = tuple(range(50, 20001, 50))
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shot_counts", tuple(_integer(c, "each shot count") for c in self.shot_counts))
        object.__setattr__(self, "iterations", _integer(self.iterations, "iterations"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not self.shot_counts:
            raise ValueError("shot_counts must be nonempty")
        if any(c < 1 for c in self.shot_counts):
            raise ValueError("shot counts must be positive")
        if any(c > _MAX_SHOTS for c in self.shot_counts):
            raise ValueError(f"shot counts must not exceed {_MAX_SHOTS}, the largest binomial draw")
        if any(b <= a for a, b in zip(self.shot_counts, self.shot_counts[1:])):
            raise ValueError("shot_counts must be strictly increasing")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must lie in 1..{MAX_ITERATIONS}, got {self.iterations}")


@dataclass(frozen=True)
class ShotStatistics:
    """Per-shot-count ensemble statistics over the sweep iterations."""

    shot_counts: tuple[int, ...]
    mean: tuple[float, ...]            # mean witness estimate
    variance: tuple[float, ...]        # sample variance of witness estimates
    ci_half_width: tuple[float, ...]   # Z_SCORE * sample std of witness estimates
    std: tuple[float, ...]
    stderr: tuple[float, ...]          # std / sqrt(iterations)
    zz_mean: tuple[float, ...]         # mean of the unsquared estimator
    zz_variance: tuple[float, ...]
    iterations: int
    seed: int

    @property
    def ci_low(self) -> tuple[float, ...]:
        return tuple(m - h for m, h in zip(self.mean, self.ci_half_width))

    @property
    def ci_high(self) -> tuple[float, ...]:
        return tuple(m + h for m, h in zip(self.mean, self.ci_half_width))


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads one: 32-bit words, least significant first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# numpy's SeedSequence (after O'Neill's randutils seed_seq_fe): a pool of
# four uint32 words mixed from the entropy by hashes whose multipliers run
# through fixed sequences, then read out through a second such sequence.
_POOL_SIZE = 4
_XSHIFT = 16
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count`` multipliers a hash chain steps through from ``init``, as a uint32 column."""
    constants = [init]
    for _ in range(count - 1):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, np.newaxis]


# enough for the pool's mixing and up to six entropy words: two per value below 2**64
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE + 2 * _POOL_SIZE + 1)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, _POOL_SIZE + 1)


def _hashmix(values: np.ndarray, first: int, rows: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values`` (one row, or ``rows`` rows)
    as ``rows`` rows, row r with the chain's constants ``first + r`` and the
    next; a new array."""
    mixed = (values ^ _MIX_CONSTANTS[first : first + rows]) * _MIX_CONSTANTS[first + 1 : first + rows + 1]
    mixed ^= mixed >> _XSHIFT
    return mixed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``; a new array."""
    mixed = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    mixed ^= mixed >> _XSHIFT
    return mixed


_KEY_STORE = ArrayCache(2**16)  # 32 blocks of keys, 2 KiB each


@_KEY_STORE
def _stream_keys(seed: int, shot_count: int, block: int) -> np.ndarray:
    """The Philox keys of the ``KEY_BLOCK`` iterations from ``block *
    KEY_BLOCK`` on, for one (seed, shot_count), as a read-only ``(KEY_BLOCK,
    2)`` uint64 array: row i is ``SeedSequence([seed, shot_count,
    iteration]).generate_state(2, np.uint64)`` for the block's i-th
    iteration, each value in 0..2**64 - 1.

    SeedSequence's algorithm as elementwise uint32 operations over the
    block: its hash constants do not depend on the data, so each step of
    its pool mixing is one operation on every iteration's pool at once.
    The iterations of a block differ in their least significant word only
    (``KEY_BLOCK`` divides 2**32), so they have as many words as each other.
    """
    head = _uint32_words(seed) + _uint32_words(shot_count)
    words = head + _uint32_words(block * KEY_BLOCK)
    entropy = np.zeros((max(len(words), _POOL_SIZE), KEY_BLOCK), dtype=np.uint32)  # zeros pad the pool
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, np.newaxis]
    entropy[len(head)] += np.arange(KEY_BLOCK, dtype=np.uint32)  # the iteration's least significant word
    pool = _hashmix(entropy[:_POOL_SIZE], 0, _POOL_SIZE)
    step = _POOL_SIZE
    for source in range(_POOL_SIZE):
        others = [row for row in range(_POOL_SIZE) if row != source]
        pool[others] = _mix(pool[others], _hashmix(pool[source], step, _POOL_SIZE - 1))
        step += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, step, _POOL_SIZE))
        step += _POOL_SIZE
    # generate_state(2, np.uint64): the pool's words hashed in turn, paired low word first
    state = (pool ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    keys = (state[0::2] | state[1::2] << np.uint64(32)).T.copy()
    keys.flags.writeable = False
    return keys


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A precomputed Philox key in the place of a seed sequence: Philox asks
    it once for ``generate_state(2, np.uint64)`` and gets the key. It cannot
    spawn, so neither can a generator built on it."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key


def rng_stream(seed: int, shot_count: int, iteration: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, shot_count, iteration) cell.

    Its key is ``SeedSequence([seed, shot_count, iteration])``'s, each taken
    mod 2**64, and its counter starts at 0, Philox's default: the stream is
    the one numpy makes from that seed sequence. The keys are derived once
    per block of ``KEY_BLOCK`` iterations (:func:`_stream_keys`, kept in a
    small store), so a run pays for the Philox and the generator alone.
    The generator's ``bit_generator.seed_seq`` is that key, not a
    ``SeedSequence``, so it cannot ``spawn``.
    """
    iteration &= _MASK64
    keys = _stream_keys(seed & _MASK64, shot_count & _MASK64, iteration // KEY_BLOCK)
    return np.random.Generator(np.random.Philox(_PhiloxKey(keys[iteration % KEY_BLOCK]), counter=_ZERO_COUNTER))


def sample_zz_mean(
    final_state: np.ndarray, pair: tuple[int, int], n_shots: int, rng: np.random.Generator
) -> float:
    """Unsquared estimator: mean parity of n_shots, from one binomial count.

    ``n_shots`` is a count as ``ShotConfig`` takes one: an integer (numpy's
    included, no bool or float) in 1.._MAX_SHOTS. The state's norm, checked
    to 1e-10, and its <Z_i Z_j> come from one product (``zz_moments``).
    """
    if type(n_shots) is not int:
        n_shots = _integer(n_shots, "n_shots")
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    if n_shots > _MAX_SHOTS:
        raise ValueError(f"n_shots must not exceed {_MAX_SHOTS}, the largest binomial draw")
    norm_sq, zz = zz_moments(final_state, *pair)
    check_norm(norm_sq)
    k = rng.binomial(n_shots, (1.0 + bounded_zz(zz)) / 2.0)
    return (2 * int(k) - n_shots) / n_shots


def sweep(
    schedule: Schedule,
    state_kind: PairStateKind,
    pair: tuple[int, int],
    config: ShotConfig,
) -> ShotStatistics:
    """Shot-count sweep of the witness estimator through the compiled circuit."""
    initial = make_pair_state(state_kind, pair, schedule.n_qubits)
    final = evolve_dense(initial[np.newaxis, :], schedule, "gates")[0]

    def stats_for(count: int) -> tuple[float, ...]:
        zbars = np.array(
            [
                sample_zz_mean(final, pair, count, rng_stream(config.seed, count, it))
                for it in range(config.iterations)
            ]
        )
        estimates = zbars**2
        if config.iterations > 1:
            var = float(np.var(estimates, ddof=1))
            zz_var = float(np.var(zbars, ddof=1))
        else:
            var = zz_var = 0.0
        std = var**0.5
        return (  # ShotStatistics's fields from mean to zz_variance, in order
            float(np.mean(estimates)),
            var,
            Z_SCORE * std,
            std,
            std / config.iterations**0.5,
            float(np.mean(zbars)),
            zz_var,
        )

    rows = map_ordered(stats_for, config.shot_counts)
    return ShotStatistics(config.shot_counts, *zip(*rows), iterations=config.iterations, seed=config.seed)


def sweep_csv(stats: ShotStatistics) -> str:
    """Plot-ready CSV; byte-stable for a given ShotStatistics."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shot_count", "mean", "variance", "ci_low", "ci_high", "std", "stderr", "zz_mean", "zz_variance"])
    columns = (stats.mean, stats.variance, stats.ci_low, stats.ci_high, stats.std, stats.stderr,
               stats.zz_mean, stats.zz_variance)  # each property read once, not once per row
    for idx, count in enumerate(stats.shot_counts):
        writer.writerow([count, *(repr(column[idx]) for column in columns)])
    return buf.getvalue()
