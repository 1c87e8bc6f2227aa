"""Recognition, enumeration and counting of k-functions on Q_n.

A k-function is a +/-1-valued function every vertex of which disagrees with
exactly k of its n neighbours.  Equivalently (and this equivalence is the
backbone of the whole package) its Fourier support sits entirely on level k.
Both characterizations are implemented, independently, so each can check
the other.

``F(n, k)`` counts k-functions on Q_n; ``G(n, k)`` counts them up to signed
automorphism and global sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from ._util import chunk_ranges, parallel_map, worker_cap
from .core import TruthTable, _butterfly, _check_dimension, _pack, wht
from .errors import (
    DimensionTooLarge,
    KOutOfRange,
    SearchBudgetExceeded,
    ZeroDimension,
)
from .group import canonical_form

#: Largest n for which exhaustive truth-table enumeration is offered at all.
MAX_ENUMERATE_N = 5

#: Tables per scan chunk; the scan holds a few uint64 words per table.
_SCAN_CHUNK = 1 << 20

#: Fewest tables handed to one scan worker.  At n <= 3 (at most 256 tables)
#: starting a pool costs about 0.15 ms, several times the scan itself, so
#: those scans run on the calling thread.
_MIN_PIECE = 1 << 12


def _check_k(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise KOutOfRange(f"k={k} outside 0..{n}")


def flip_count(f: TruthTable, v: int) -> int:
    """How many neighbours of v disagree with v under f."""
    if not 0 <= v < (1 << f.n):
        raise ValueError(f"vertex {v} outside Q_{f.n}")
    bits = f.bits
    mine = (bits >> v) & 1
    return sum(mine ^ ((bits >> (v ^ (1 << j))) & 1) for j in range(f.n))


@lru_cache(maxsize=None)
def _half_mask(n: int, j: int) -> int:
    """Vertices of Q_n whose bit j is clear (where x_{j+1} = +1), packed."""
    return TruthTable.character(n, 1 << j).bits ^ ((1 << (1 << n)) - 1)


def _flip_planes(bits: int | np.ndarray, n: int) -> list:
    """Per-vertex flip counts as bit planes, summed by a carry-save adder:
    plane i holds the vertices whose count has bit i set.

    ``bits`` is one packed table (an int, any n) or a uint64 array of them
    (n <= 6, one table per entry); the same shifts and masks serve both.
    """
    planes = []
    for j in range(n):
        b = 1 << j
        d = bits >> b
        d ^= bits
        d &= _half_mask(n, j)
        carry = d | (d << b)
        for i, p in enumerate(planes):
            planes[i] = p ^ carry
            carry &= p
        # Counts reach j + 1 now, which may need one more plane.
        if (j + 1).bit_length() > len(planes):
            planes.append(carry)
    return planes


def uniform_flip_count(f: TruthTable) -> int:
    """The common flip count if f is a k-function for some k, else -1.

    A table can be a k-function for at most one k, so this single scan
    answers is_k_function_direct for every k at once.
    """
    full = (1 << (1 << f.n)) - 1
    planes = _flip_planes(f.bits, f.n)
    if any(p not in (0, full) for p in planes):
        return -1
    return sum(1 << i for i, p in enumerate(planes) if p)


def is_k_function_direct(f: TruthTable, k: int) -> bool:
    """Definitional check: every vertex has exactly k disagreeing neighbours."""
    _check_k(f.n, k)
    return uniform_flip_count(f) == k


def is_k_function_spectral(f: TruthTable, k: int) -> bool:
    """Spectral check: the Fourier support of f lies entirely on level k."""
    _check_k(f.n, k)
    return wht(f).support_levels() <= {k}


def p_parameter(n: int, k: int) -> Fraction:
    """The stay probability 1 - k/n of a k-function on Q_n."""
    if n == 0:
        raise ZeroDimension("p is undefined on Q_0")
    _check_k(n, k)
    return Fraction(n - k, n)


def _scan_range(n: int, k: int, start: int, stop: int) -> list[int]:
    """Truth-table ints in [start, stop) that are k-functions, ascending."""
    tables = np.arange(start, stop, dtype=np.uint64)
    full = (1 << (1 << n)) - 1
    ok = np.ones(len(tables), dtype=bool)
    for i, p in enumerate(_flip_planes(tables, n)):
        ok &= p == (full if (k >> i) & 1 else 0)
    return tables[ok].tolist()


def enumerate_truth_tables(
    n: int, k: int, *, allow_large: bool = False, threads: int | None = None
) -> Iterator[TruthTable]:
    """All k-functions on Q_n by exhaustive scan, ascending by packed bits.

    The scan covers all 2**(2**n) tables, so n = 5 (2**32 tables, 7 min on one
    core) must be opted into with ``allow_large``; n > 5 is refused.
    For n = 5 prefer :func:`enumerate_spectral`.

    Each chunk of the scan is split among at most ``threads`` workers, one
    per CPU by default; the output never depends on the split.
    """
    _check_k(n, k)
    if n > MAX_ENUMERATE_N:
        raise DimensionTooLarge(
            f"exhaustive enumeration scans 2**(2**n) tables; n={n} > {MAX_ENUMERATE_N}"
        )
    if n == MAX_ENUMERATE_N and not allow_large:
        raise DimensionTooLarge(
            "n=5 scans 2**32 tables; pass allow_large=True to accept the cost"
        )
    total = 1 << (1 << n)
    for lo in range(0, total, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, total)
        workers = min(worker_cap(threads), (hi - lo) // _MIN_PIECE)
        found = parallel_map(
            lambda piece: _scan_range(n, k, lo + piece[0], lo + piece[1]),
            chunk_ranges(hi - lo, workers),
            threads,
        )
        for sub in found:
            for tt in sub:
                yield TruthTable(n, tt)


@lru_cache(maxsize=None)
def _level_masks(n: int, k: int) -> tuple[int, ...]:
    """Level-k subset masks in lexicographic order of their index tuples."""
    return tuple(sum(1 << j for j in c) for c in combinations(range(n), k))


def enumerate_spectral(
    n: int, k: int, *, node_budget: int = 10_000_000
) -> Iterator[TruthTable]:
    """All k-functions on Q_n found by searching level-k spectra directly.

    Any k-function (k >= 1) has coefficients x_S / 2**(k-1) with integer
    x_S summing in squares to 4**(k-1), so a depth-first search over the
    level-k masks (lexicographic order; candidate values tried from large
    magnitude to small, + before -, 0 last) covers every solution; each
    integer solution is kept iff it inverts to a +/-1-valued table.  Output
    order is the deterministic search order, independent of budget.

    Raises :class:`SearchBudgetExceeded` once more than ``node_budget``
    assignments have been tried, after yielding every function found
    before that point.
    """
    if k < 1:
        raise KOutOfRange("spectral search needs k >= 1; 0-functions are +/-1")
    _check_k(n, k)
    _check_dimension(n)
    return _spectral_hits(n, k, node_budget)


def _spectral_hits(n: int, k: int, node_budget: int) -> Iterator[TruthTable]:
    masks = list(_level_masks(n, k))
    depth = len(masks)
    xs = [0] * depth  # the integer x_S of each level-k mask, in mask order
    nodes = 0

    def visit(x: int, idx: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"spectral search for (n={n}, k={k}) exceeded {node_budget} nodes"
            )
        xs[idx] = x

    def solutions(idx: int, residual: int) -> Iterator[tuple[int, ...]]:
        if idx == depth:
            if residual == 0:
                yield tuple(xs)
            return
        top = isqrt(residual)
        # Dead branch: even all-maximal squares cannot reach the residual.
        if top * top * (depth - idx) < residual:
            return
        for mag in range(top, 0, -1):
            for x in (mag, -mag):
                visit(x, idx)
                yield from solutions(idx + 1, residual - mag * mag)
        visit(0, idx)
        yield from solutions(idx + 1, residual)

    def invert(found: list[tuple[int, ...]]) -> Iterator[TruthTable]:
        """The solutions that are +/-1 tables, in order, by one butterfly."""
        if not found:
            return
        vals = np.zeros((len(found), 1 << n), dtype=np.int64)
        # packed coeff = x * 2**(n-k+1), at most 2**n in absolute value.
        vals[:, masks] = np.array(found) << (n - k + 1)
        _butterfly(vals)
        # The butterfly applied twice multiplies by 2**n.
        for i in np.flatnonzero((np.abs(vals) == (1 << n)).all(axis=1)):
            yield TruthTable(n, _pack(vals[i] < 0))

    # Solutions are inverted a batch of about 2**17 coefficients at a time;
    # the batch found before the budget ran out is inverted before the error.
    batch = max(1, (1 << 17) >> n)
    pending: list[tuple[int, ...]] = []
    try:
        for solution in solutions(0, 4 ** (k - 1)):
            pending.append(solution)
            if len(pending) == batch:
                yield from invert(pending)
                pending = []
    except SearchBudgetExceeded:
        yield from invert(pending)
        raise
    yield from invert(pending)


@dataclass(frozen=True)
class CountRecord:
    """One cell of the F/G table, with how it was computed."""

    n: int
    k: int
    F: int
    G: int | None
    method: str


def _orbit_buckets(tables: Sequence[TruthTable]) -> dict[int, list[TruthTable]]:
    buckets: dict[int, list[TruthTable]] = {}
    for f in tables:
        rep, _ = canonical_form(f)
        buckets.setdefault(rep.bits, []).append(f)
    return buckets


def orbit_classes(tables: Sequence[TruthTable]) -> list[list[TruthTable]]:
    """Partition tables into isomorphism classes (canonical-form buckets).

    Classes come back ordered by their representative's packed bits.
    """
    buckets = _orbit_buckets(tables)
    return [buckets[key] for key in sorted(buckets)]


def _count_cell(n: int, k: int, threads: int | None) -> CountRecord:
    if n <= 4:
        tables = list(enumerate_truth_tables(n, k, threads=threads))
        return CountRecord(n, k, len(tables), len(_orbit_buckets(tables)), "truth_table")
    # n = 5: a 2**32 truth-table scan is out; count through the spectrum.
    if k == 0:
        # No disagreeing neighbours forces f constant on the connected Q_n.
        return CountRecord(n, k, 2, None, "constants")
    count = sum(1 for _ in enumerate_spectral(n, k))
    return CountRecord(n, k, count, None, "spectral")


def count_table(n_max: int, *, threads: int | None = None) -> list[CountRecord]:
    """F and G for all 0 <= k <= n <= n_max, ordered by (n, k).

    F is exact everywhere; G (class counts) is computed for n <= 4 and left
    None beyond, where orbit classification is not attempted.  ``threads``
    is the worker budget of each truth-table scan.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > MAX_ENUMERATE_N:
        raise DimensionTooLarge(
            f"count_table supports n_max <= {MAX_ENUMERATE_N}, got {n_max}"
        )
    return [
        _count_cell(n, k, threads) for n in range(n_max + 1) for k in range(n + 1)
    ]


def count_table_csv(records: Sequence[CountRecord]) -> str:
    """The table as CSV text: header n,k,F,G,method; G empty where unknown."""
    lines = ["n,k,F,G,method"]
    for r in records:
        g = "" if r.G is None else str(r.G)
        lines.append(f"{r.n},{r.k},{r.F},{g},{r.method}")
    return "\n".join(lines) + "\n"
