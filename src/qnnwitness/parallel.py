"""Ordered map over the trainer's partial derivatives and the sampler's shot counts.

Results come back in input order, so every reduction over them is
reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """map() preserving input order, as a list."""
    return [fn(item) for item in items]
