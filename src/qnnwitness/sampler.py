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
parallel, with identical results. A run's 128-bit Philox key is the
16-byte BLAKE2b digest of its three values, so it costs one hash call
and nothing is kept from one run to the next.

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
import struct
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .core import bounded_zz, check_norm, zz_moments
from .hamiltonian import Schedule
from .witness import PairStateKind, evolve_dense, make_pair_state

_MASK64 = (1 << 64) - 1
_MAX_SHOTS = int(np.iinfo(np.int64).max)
_CELL = struct.Struct("<3Q")  # a run's (seed, shot_count, iteration), each mod 2**64: the bytes its key hashes
_KEY = struct.Struct("<2Q")  # a 16-byte digest as Philox's two 64-bit key words
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's 256-bit counter at 0; each stream copies it
_ZERO_COUNTER.flags.writeable = False
MAX_ITERATIONS = 100_000  # per shot count; each iteration sets up its own Philox stream
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


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A precomputed Philox key, two 64-bit words, in the place of a seed
    sequence: Philox asks it once for ``generate_state(2, np.uint64)`` and
    gets the key. It cannot spawn, so neither can a generator built on it.
    Held as a tuple, not an array, it is refused by the bit generators that
    would read more words from it than it has."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> tuple[int, int]:
        return self.key


def rng_stream(seed: int, shot_count: int, iteration: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, shot_count, iteration) cell.

    Its key is the 16-byte ``blake2b`` digest of the three values, each
    taken mod 2**64 and packed as little-endian uint64 words, read as two
    little-endian uint64 words; its counter starts at 0, Philox's default.
    The key reaches Philox through :class:`_PhiloxKey`, so no seed sequence
    is built, and the generator's ``bit_generator.seed_seq`` is that key,
    which cannot ``spawn``.
    """
    digest = blake2b(_CELL.pack(seed & _MASK64, shot_count & _MASK64, iteration & _MASK64), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(_PhiloxKey(_KEY.unpack(digest)), counter=_ZERO_COUNTER))


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
