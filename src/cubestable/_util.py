"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

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

