"""Recognition, enumeration and counting of k-functions on Q_n.

A k-function is a +/-1-valued function every vertex of which disagrees with
exactly k of its n neighbours.  Equivalently (and this equivalence is the
backbone of the whole package) its Fourier support sits entirely on level k.
Both characterizations are implemented, independently, so each can check
the other.

``F(n, k)`` counts k-functions on Q_n; ``G(n, k)`` counts them up to signed
automorphism and global sign.  :func:`count_table` takes both for n <= 6
from one breadth-first vertex search over partial truth tables, pruned as
each vertex is assigned, and one orbit sweep per class;
:func:`enumerate_spectral`, a search over level-k spectra, is the second
route to the same sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import Iterator, Sequence

import numpy as np

from .core import (
    TruthTable,
    _butterfly,
    _check_dimension,
    _disagreements,
    _pack,
    wht,
)
from .errors import (
    DimensionTooLarge,
    KOutOfRange,
    SearchBudgetExceeded,
    ZeroDimension,
)
from .group import _orbit, canonical_form

#: Largest n for which :func:`enumerate_truth_tables` lists truth tables.
MAX_ENUMERATE_N = 4

#: Default ceiling on the nodes :func:`enumerate_spectral` visits.
DEFAULT_NODE_BUDGET = 10_000_000

#: Largest n_max of :func:`count_table`, and of the vertex search behind
#: it: a partial table is one uint64, and a Q_7 table has 128 bits.
MAX_COUNT_N = 6


def _check_k(n: int, k: int) -> None:
    """Refuse a negative n as a dimension error, then a k outside 0..n."""
    if n < 0:
        raise DimensionTooLarge(f"n must be >= 0, got n={n}")
    if not 0 <= k <= n:
        raise KOutOfRange(f"k={k} outside 0..{n}")


def flip_count(f: TruthTable, v: int) -> int:
    """How many neighbours of v disagree with v under f."""
    if not 0 <= v < (1 << f.n):
        raise ValueError(f"vertex {v} outside Q_{f.n}")
    bits = f.bits
    mine = (bits >> v) & 1
    return sum(mine ^ ((bits >> (v ^ (1 << j))) & 1) for j in range(f.n))


def _flip_planes(bits: int | np.ndarray, n: int) -> list:
    """Per-vertex flip counts as bit planes, summed by a carry-save adder:
    plane i holds the vertices whose count has bit i set.

    ``bits`` is as in :func:`core._disagreements`, whose d for each
    coordinate j marks the disagreeing pairs (v, v ^ 2**j) at their lower
    end; d | d << 2**j marks both ends.
    """
    planes = []
    for j, (b, d) in enumerate(_disagreements(bits, n)):
        carry = d | (d << b)
        for i, p in enumerate(planes):
            planes[i] = p ^ carry
            carry &= p
        # Counts reach j + 1 now, which may need one more plane.
        if (j + 1).bit_length() > len(planes):
            planes.append(carry)
    return planes


def _uniform_flips(bits: int | np.ndarray, n: int) -> int | np.ndarray:
    """Per table, the flip count every vertex shares, or -1 if they differ.

    ``bits`` is as in :func:`_flip_planes`: one packed table, giving an int,
    or a uint64 array of tables (n <= 6), giving an int64 array.
    """
    full = (1 << (1 << n)) - 1
    # One True per table: a bool for an int, a bool array for an array.
    uniform, count = bits >= 0, 0
    for i, p in enumerate(_flip_planes(bits, n)):
        # A plane must be all-clear or all-set for every vertex to agree.
        uniform &= (p == 0) | (p == full)
        count |= (p == full) << i
    # count where uniform, else -1
    return (count + 1) * uniform - 1


def uniform_flip_count(f: TruthTable) -> int:
    """The common flip count if f is a k-function for some k, else -1.

    A table can be a k-function for at most one k, so this single scan
    answers is_k_function_direct for every k at once.  It counts flips on
    f restricted to its relevant coordinates (kept on ``f``, where
    :func:`wht` reads it too): a coordinate f does not depend on adds no
    disagreement at any vertex, so every count, and k, is the same.
    """
    skip, part = f._relevant_part()
    return int(_uniform_flips(part, f.n - skip.bit_count()))


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
    """Truth-table ints in [start, stop) that are k-functions, ascending.

    The exhaustive definitional route over a range of tables (n <= 6).
    """
    tables = np.arange(start, stop, dtype=np.uint64)
    return tables[_uniform_flips(tables, n) == k].tolist()


@lru_cache(maxsize=None)
def _prune_checks(n: int, k: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Entry v: v and each neighbour u < v, as (u, packed mask of u's
    neighbours among vertices 0..v, the mask's size).

    A check whose mask holds at most min(k, n - k) vertices cannot fail,
    so it is left out.
    """
    checks = []
    for v in range(1 << n):
        row = []
        for u in [v] + [v ^ (1 << j) for j in range(n) if (v >> j) & 1]:
            nbrs = [w for w in (u ^ (1 << j) for j in range(n)) if w <= v]
            if len(nbrs) > min(k, n - k):
                row.append((u, sum(1 << w for w in nbrs), len(nbrs)))
        checks.append(tuple(row))
    return tuple(checks)


def _vertex_search(n: int, k: int) -> list[int]:
    """The packed tables of all k-functions on Q_n, ascending (n <= 6).

    A breadth-first vertex search: vertices 0, 1, ... are assigned in order
    with f(0) = +1, every partial table is one uint64 and all live ones sit
    in one array.  After vertex v, v and each earlier neighbour u of v may
    have at most k disagreeing and at most n - k agreeing neighbours among
    vertices 0..v; once all of u's neighbours are assigned, the two bounds
    force exactly k.  The complements of the survivors are the k-functions
    with f(0) = -1.  The live array peaks at 203,376 tables, at (6, 3).
    """
    if n > MAX_COUNT_N:
        raise DimensionTooLarge(
            f"a Q_{n} table does not fit one uint64; n <= {MAX_COUNT_N}"
        )
    live = np.zeros(1, dtype=np.uint64)
    for v, checks in enumerate(_prune_checks(n, k)):
        if v:
            live = np.concatenate([live, live | (1 << v)])
        for u, nbrs, size in checks:
            # The neighbours that differ from u: the set bits of the mask,
            # or its clear bits when u's own bit is set.
            disagree = np.bitwise_count((live & nbrs) ^ ((live >> u) & 1) * nbrs)
            live = live[(disagree <= k) & (size - disagree <= n - k)]
    full = (1 << (1 << n)) - 1
    return np.sort(np.concatenate([live, live ^ full])).tolist()


def enumerate_truth_tables(n: int, k: int) -> Iterator[TruthTable]:
    """All k-functions on Q_n for n <= 4, ascending by packed bits, by the
    vertex search of :func:`_vertex_search`."""
    _check_k(n, k)
    if n > MAX_ENUMERATE_N:
        raise DimensionTooLarge(
            f"truth-table enumeration supports n <= {MAX_ENUMERATE_N}, got n={n}"
        )
    for bits in _vertex_search(n, k):
        yield TruthTable(n, bits)


def _level_masks(n: int, k: int) -> np.ndarray:
    """Level-k subset masks in lexicographic order of their index tuples."""
    powers = [1 << j for j in range(n)]
    return np.fromiter(map(sum, combinations(powers, k)), np.intp, comb(n, k))


#: Most entries (rows times width) of solution rows the spectral search
#: keeps for one finished subtree.  A larger subtree keeps its node count
#: only, and is walked again over its recorded children.
_SUBTREE_ENTRIES = 1 << 16


def enumerate_spectral(
    n: int, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[TruthTable]:
    """All k-functions on Q_n found by searching level-k spectra directly.

    Any k-function (k >= 1) has coefficients x_S / 2**(k-1) with integer
    x_S summing in squares to 4**(k-1), so a depth-first search over the
    level-k masks (lexicographic order; candidate values tried from large
    magnitude to small, + before -, 0 last) covers every solution; each
    integer solution is kept iff it inverts to a +/-1-valued table.  Output
    order is the deterministic search order, independent of budget.

    A subtree of the search depends only on its state (masks left,
    residual).  The first time a subtree is finished, its node count is
    recorded under that state, with its solution rows if they hold at most
    ``_SUBTREE_ENTRIES`` entries; a later visit to the state charges the
    count against the budget and takes the rows without walking it again.
    A residual of 0 leaves one chain of zeros, counted without a walk.  The
    records live for one call only.

    The budget counts nodes (assignments) as if every subtree were walked.
    Raises :class:`SearchBudgetExceeded` once more than ``node_budget``
    nodes have been tried, after yielding every function whose last node
    is within the budget.  n is checked before k, and a negative
    ``node_budget`` is a ValueError; all three before any search.
    """
    _check_dimension(n)
    if k < 1:
        raise KOutOfRange("spectral search needs k >= 1; 0-functions are +/-1")
    _check_k(n, k)
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    return _spectral_hits(n, k, node_budget)


def _spectral_hits(n: int, k: int, node_budget: int) -> Iterator[TruthTable]:
    depth = comb(n, k)
    # The narrowest signed dtypes that hold -bound - 1, so +/-bound: each x_S
    # for the rows, and _butterfly's 2**(2n) for the inversion.
    row_dtype = np.min_scalar_type(-1 - (1 << (k - 1)))
    val_dtype = np.min_scalar_type(-1 - (1 << (2 * n)))
    # (idx, residual) -> (node count, solution rows or None) of a finished
    # subtree; a row holds the x_S of masks idx.. in mask order.
    memo: dict[tuple[int, int], tuple[int, np.ndarray | None]] = {}
    no_rows = np.zeros((0, 0), row_dtype)
    zero_row = np.zeros((1, 1), row_dtype)  # broadcast over any width

    def children(r: int) -> list[int]:
        """The values tried at a node with residual r, in search order."""
        return [x for mag in range(isqrt(r), 0, -1) for x in (mag, -mag)] + [0]

    def finished(idx: int, r: int) -> tuple[int, np.ndarray | None] | None:
        """The subtree at (idx, r), if known without a walk."""
        width = depth - idx
        if r == 0:  # one chain of zeros, its solution at the end
            return width, zero_row
        top = isqrt(r)
        # Dead: even all-maximal squares cannot reach the residual.
        if top * top * width < r:
            return 0, no_rows
        return memo.get((idx, r))

    def record(idx: int, r: int) -> None:
        """Record the subtree at (idx, r), whose children are all known."""
        count, parts, total, over = 0, [], 0, False
        for x in children(r):
            size, rows = finished(idx + 1, r - x * x)
            count += 1 + size
            if rows is None:
                over = True
            elif len(rows):
                parts.append((x, rows))
                total += len(rows)
        if over or total * (depth - idx) > _SUBTREE_ENTRIES:
            memo[idx, r] = count, None
            return
        out = np.empty((total, depth - idx), row_dtype)
        i = 0
        for x, rows in parts:
            out[i : i + len(rows), 0] = x
            out[i : i + len(rows), 1:] = rows
            i += len(rows)
        memo[idx, r] = count, out

    masks: np.ndarray | None = None

    def invert(found: np.ndarray) -> Iterator[TruthTable]:
        """The solutions that are +/-1 tables, in order, by one butterfly."""
        nonlocal masks
        # f(0) = sum of x_S / 2**(k-1) must be +/-1: a cheap first filter.
        found = found[np.abs(found.sum(axis=1, dtype=np.int64)) == 1 << (k - 1)]
        if not len(found):
            return
        if masks is None:
            masks = _level_masks(n, k)
        vals = np.zeros((len(found), 1 << n), dtype=val_dtype)
        vals[:, masks] = found
        # packed coeff = x * 2**(n-k+1), at most 2**n in absolute value.
        vals <<= n - k + 1
        _butterfly(vals)
        # The butterfly applied twice multiplies by 2**n.
        top = 1 << n
        for i in np.flatnonzero(((vals == top) | (vals == -top)).all(axis=1)):
            yield TruthTable(n, _pack(vals[i] < 0))

    # Solutions are inverted a batch of about 2**17 coefficients at a time;
    # the batch found before the budget ran out is inverted before the error.
    batch = max(1, (1 << 17) >> n)
    buf: np.ndarray | None = None  # the solutions of the batch so far
    fill = 0
    nodes = 0
    # The states being walked, as (residual, recorded before, values left);
    # state i is in its child prefix[i].
    stack: list[tuple[int, bool, Iterator[int]]] = []
    prefix: list[int] = []
    r = 4 ** (k - 1)
    while True:
        # Enter the state (idx, r) below the values in prefix.
        idx = len(stack)
        known = finished(idx, r)
        if known is not None and known[1] is not None and nodes + known[0] <= node_budget:
            nodes += known[0]
            rows = known[1]
        elif r == 0:  # the chain's one solution lies past the budget
            nodes = node_budget + 1
            break
        else:
            stack.append((r, known is not None, iter(children(r))))
            prefix.append(0)
            rows = no_rows
        done = 0
        while done < len(rows):
            if buf is None:
                buf = np.empty((batch, depth), row_dtype)
            part = rows[done : done + batch - fill]
            buf[fill : fill + len(part), :idx] = prefix
            buf[fill : fill + len(part), idx:] = part
            fill += len(part)
            done += len(part)
            if fill == batch:
                yield from invert(buf)
                fill = 0
        # Move to the next node: the next child of the deepest state with
        # one left, recording each state finished on the way up.
        while stack and (x := next(stack[-1][2], None)) is None:
            r, recorded, _ = stack.pop()
            prefix.pop()
            if not recorded:
                record(len(stack), r)
        if not stack:
            break
        prefix[-1] = x
        nodes += 1
        if nodes > node_budget:
            break
        r = stack[-1][0] - x * x
    if fill:
        yield from invert(buf[:fill])
    if nodes > node_budget:
        raise SearchBudgetExceeded(
            f"spectral search for (n={n}, k={k}) exceeded {node_budget} nodes"
        )


@dataclass(frozen=True)
class CountRecord:
    """One cell of the F/G table, with how it was computed."""

    n: int
    k: int
    F: int
    G: int
    method: str


def orbit_classes(tables: Sequence[TruthTable]) -> list[list[TruthTable]]:
    """Partition tables into isomorphism classes (canonical-form buckets).

    Classes come back ordered by their representative's packed bits.
    """
    buckets: dict[int, list[TruthTable]] = {}
    for f in tables:
        buckets.setdefault(canonical_form(f)[0].bits, []).append(f)
    return [buckets[key] for key in sorted(buckets)]


def _count_cell(n: int, k: int, cell: Sequence[int]) -> CountRecord:
    """The record of cell (n, k) from all its k-functions, packed and
    ascending, as :func:`_vertex_search` lists them."""
    tables = np.array(cell, dtype=np.uint64)
    reached = np.zeros(len(tables), dtype=bool)
    classes = 0
    for i, bits in enumerate(cell):
        if not reached[i]:
            reached[np.searchsorted(tables, _orbit(TruthTable(n, bits)))] = True
            classes += 1
    return CountRecord(n, k, len(tables), classes, "truth_table")


def count_table(n_max: int) -> list[CountRecord]:
    """F and G for all 0 <= k <= n <= n_max (n_max <= 6), ordered by (n, k).

    F counts the tables of the vertex search.  G counts orbits by one sweep
    each: the first table not yet reached, taken through the whole group,
    marks its orbit in the sorted cell.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > MAX_COUNT_N:
        raise DimensionTooLarge(
            f"count_table supports n_max <= {MAX_COUNT_N}, got {n_max}"
        )
    return [
        _count_cell(n, k, _vertex_search(n, k))
        for n in range(n_max + 1)
        for k in range(n + 1)
    ]


def count_table_csv(records: Sequence[CountRecord]) -> str:
    """The table as CSV text: header n,k,F,G,method."""
    rows = (f"{r.n},{r.k},{r.F},{r.G},{r.method}" for r in records)
    return "\n".join(["n,k,F,G,method", *rows]) + "\n"
