"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .core import MAX_VAR_INDEX
from .errors import IndexOverflow

T = TypeVar("T")
R = TypeVar("R")


def worker_cap(threads: int | None) -> int:
    """The usable worker count for a thread budget: at most one per CPU,
    and one per CPU when the budget is None."""
    cpus = os.cpu_count() or 1
    return max(1, cpus if threads is None else min(threads, cpus))


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], threads: int | None
) -> list[R]:
    """map(fn, items) with results in input order.

    At most min(worker_cap(threads), len(items)) workers run; with one, this
    is a plain loop, otherwise a thread pool is used.  Results are collected
    in order either way, so callers stay deterministic whatever the worker
    count.
    """
    workers = min(worker_cap(threads), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def indices_from_mask(mask: int) -> list[int]:
    """1-based variable indices present in a bit mask, ascending."""
    return [j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1]


def mask_from_indices(indices: Iterable[int]) -> int:
    """The bit mask of 1-based variable indices; each must lie in 1..64."""
    mask = 0
    for i in indices:
        if not 1 <= i <= MAX_VAR_INDEX:
            raise IndexOverflow(f"variable index {i} outside 1..{MAX_VAR_INDEX}")
        mask |= 1 << (i - 1)
    return mask
