"""Ordered map over the sampler's shot counts.

Results come back in input order, so every reduction over them is
reproducible. The module stays only because the benchmark tracer in
``perfbench/spans.py`` patches ``sampler.map_ordered`` and
``trainer.map_ordered`` by name; the trainer no longer maps anything.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """map() preserving input order, as a list."""
    return [fn(item) for item in items]
