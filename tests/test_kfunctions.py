import random
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

import cubestable as cs
from cubestable import _util, kfunctions
from cubestable.errors import (
    DimensionTooLarge,
    KOutOfRange,
    SearchBudgetExceeded,
    ZeroDimension,
)
from cubestable.core import _butterfly, _pack
from cubestable.kfunctions import count_table_csv
from cubestable.verify import _Context, run_criterion


def test_flip_count_examples(two_function_q4):
    const = cs.TruthTable.constant(3, 1)
    parity = cs.TruthTable.character(3, 0b111)
    for v in range(8):
        assert cs.flip_count(const, v) == 0
        assert cs.flip_count(parity, v) == 3
    for v in range(16):
        assert cs.flip_count(two_function_q4, v) == 2


def test_flip_count_matches_neighbour_scan():
    rng = random.Random(1)
    for _ in range(100):
        f = cs.TruthTable(4, rng.getrandbits(16))
        v = rng.randrange(16)
        direct = sum(1 for w in cs.neighbours(4, v) if f.value(w) != f.value(v))
        assert cs.flip_count(f, v) == direct


def test_direct_equals_spectral_exhaustive_n3():
    for bits in range(256):
        f = cs.TruthTable(3, bits)
        for k in range(4):
            assert cs.is_k_function_direct(f, k) == cs.is_k_function_spectral(f, k)


def test_uniform_flip_count_values():
    assert cs.uniform_flip_count(cs.TruthTable.constant(4, -1)) == 0
    assert cs.uniform_flip_count(cs.TruthTable.character(4, 0b1111)) == 4
    assert cs.uniform_flip_count(cs.TruthTable.dictator(4, 2)) == 1
    assert cs.uniform_flip_count(cs.TruthTable.character(2, 0b11)) == 2
    # an AND-like table is not any k-function
    assert cs.uniform_flip_count(cs.TruthTable(2, 0b1000)) == -1


def _reference_flip_count(f):
    """The common per-vertex flip_count of f, or -1 if the counts differ."""
    first = cs.flip_count(f, 0)
    same = all(cs.flip_count(f, v) == first for v in range(1, 1 << f.n))
    return first if same else -1


def test_flip_planes_on_int_and_array_tables():
    # The int path against the per-vertex reference, every table at n <= 3.
    for n in range(4):
        for bits in range(1 << (1 << n)):
            f = cs.TruthTable(n, bits)
            assert cs.uniform_flip_count(f) == _reference_flip_count(f)
    # The int path against the array path, every table at n = 4.
    counts = [cs.uniform_flip_count(cs.TruthTable(4, b)) for b in range(1 << 16)]
    for k in range(5):
        hits = kfunctions._scan_range(4, k, 0, 1 << 16)
        assert hits == [b for b, c in enumerate(counts) if c == k]
    # The array path against the reference at n = 5 and 6 (where a table
    # fills all 64 bits of a word), on 4,096-table windows around known
    # 2-functions: the first, a middle one and the last by packed bits.
    for n in (5, 6):
        known = sorted(f.bits for f in cs.enumerate_spectral(n, 2))
        for t in (known[0], known[len(known) // 2], known[-1]):
            lo = t - t % 4096
            window = range(lo, lo + 4096)
            ref = [_reference_flip_count(cs.TruthTable(n, b)) for b in window]
            for k in range(n + 1):
                hits = kfunctions._scan_range(n, k, lo, lo + 4096)
                assert hits == [b for b, c in zip(window, ref) if c == k]


def test_k_range_validation():
    f = cs.TruthTable.constant(2, 1)
    with pytest.raises(KOutOfRange):
        cs.is_k_function_direct(f, 3)
    with pytest.raises(KOutOfRange):
        cs.is_k_function_spectral(f, -1)


def test_p_parameter():
    assert cs.p_parameter(4, 2) == Fraction(1, 2)
    assert cs.p_parameter(4, 0) == 1
    assert cs.p_parameter(5, 2) == Fraction(3, 5)
    with pytest.raises(ZeroDimension):
        cs.p_parameter(0, 0)
    with pytest.raises(KOutOfRange):
        cs.p_parameter(3, 4)


def test_enumerate_boundary_levels(kfn):
    for n in range(5):
        zeros = kfn(n, 0)
        assert zeros == [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        full = (1 << n) - 1
        parity = cs.TruthTable.character(n, full)
        tops = kfn(n, n)
        assert set(tops) == {
            parity,
            cs.TruthTable.from_values(n, [-v for v in parity.values()]),
        }
        assert len(tops) == 2


def test_enumerate_2_1(kfn):
    assert set(kfn(2, 1)) == {
        cs.TruthTable.dictator(2, 1),
        cs.TruthTable.dictator(2, 2),
        cs.TruthTable(2, cs.TruthTable.dictator(2, 1).bits ^ 0b1111),
        cs.TruthTable(2, cs.TruthTable.dictator(2, 2).bits ^ 0b1111),
    }


def test_enumerate_ascending_and_distinct(kfn):
    for n in range(5):
        for k in range(n + 1):
            seq = [f.bits for f in kfn(n, k)]
            assert seq == sorted(seq) and len(set(seq)) == len(seq)


def test_vertex_search_matches_exhaustive_scan():
    # Same tables in the same ascending order as the scan of all 2**(2**n).
    for n in range(5):
        for k in range(n + 1):
            got = [f.bits for f in cs.enumerate_truth_tables(n, k)]
            assert got == kfunctions._scan_range(n, k, 0, 1 << (1 << n))


def test_worker_count_is_capped(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records the size and the item
        count, starts nothing."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            pools.append((self.max_workers, len(items)))
            return map(fn, items)

    monkeypatch.setattr(_util, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(_util.os, "cpu_count", lambda: 4)
    assert _util.parallel_map(abs, [-1, -2, -3, -4, -5], 10**6) == [1, 2, 3, 4, 5]
    assert _util.parallel_map(abs, [-1, -2], 10**6) == [1, 2]
    assert pools == [(4, 5), (2, 2)]
    # The enumerator runs on the calling thread.
    assert len(list(cs.enumerate_truth_tables(4, 2))) == 36
    assert pools == [(4, 5), (2, 2)]
    # Criterion 1's sweep is the one pooled step: 8 pieces on 4 workers.
    assert run_criterion(1, _Context(42, threads=10**6)).ok
    assert pools == [(4, 5), (2, 2), (4, 8)]


def test_enumerate_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        next(cs.enumerate_truth_tables(5, 2))
    with pytest.raises(DimensionTooLarge):
        next(cs.enumerate_truth_tables(6, 2))


def test_spectral_agrees_with_scan(kfn):
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert set(cs.enumerate_spectral(n, k)) == set(kfn(n, k))


def test_spectral_rejects_k0_and_budget():
    with pytest.raises(KOutOfRange):
        cs.enumerate_spectral(3, 0)
    with pytest.raises(SearchBudgetExceeded):
        list(cs.enumerate_spectral(4, 2, node_budget=5))


def test_spectral_dimension_guard_is_eager():
    for n in (27, 64):
        with pytest.raises(DimensionTooLarge):
            cs.enumerate_spectral(n, 1)


def test_negative_n_is_a_dimension_error():
    # n is checked before k, so no k is reported as out of 0..n.
    for k in (0, 1):
        with pytest.raises(DimensionTooLarge):
            cs.enumerate_spectral(-1, k)
        with pytest.raises(DimensionTooLarge):
            next(cs.enumerate_truth_tables(-1, k))
    with pytest.raises(DimensionTooLarge):
        cs.p_parameter(-1, 1)


def test_spectral_refuses_a_negative_budget(monkeypatch):
    monkeypatch.setattr(kfunctions, "_spectral_hits", unreachable)
    for budget in (-1, -5):
        with pytest.raises(ValueError, match="node budget"):
            cs.enumerate_spectral(3, 1, node_budget=budget)
    monkeypatch.undo()
    # A budget of 0 still stops the search at its first node.
    with pytest.raises(SearchBudgetExceeded):
        list(cs.enumerate_spectral(3, 1, node_budget=0))


def test_level_masks_in_lexicographic_order():
    for n in range(9):
        for k in range(n + 1):
            masks = [m for m in range(1 << n) if m.bit_count() == k]
            masks.sort(key=lambda m: tuple(j for j in range(n) if (m >> j) & 1))
            assert kfunctions._level_masks(n, k).tolist() == masks


def test_spectral_budget_stop_yields_a_prefix():
    full = [f.bits for f in cs.enumerate_spectral(4, 2)]
    prefixes = set()
    budget = 0
    while True:
        got = []
        try:
            for f in cs.enumerate_spectral(4, 2, node_budget=budget):
                got.append(f.bits)
        except SearchBudgetExceeded:
            assert got == full[: len(got)]
            prefixes.add(len(got))
            budget += 1
            continue
        assert got == full
        break
    assert len(prefixes) > 2  # the budget stops the search at many depths


def reference_spectral(n, k, node_budget):
    """The recursive level-k search the memoised one replaced, kept as its
    reference: the hits (+/-1 tables) with the node each was found at, and
    the nodes the whole search took, or None if the budget ran out.
    Python's recursion limit caps its depth.
    """
    masks = [sum(1 << j for j in c) for c in combinations(range(n), k)]
    depth = len(masks)
    xs = [0] * depth
    nodes = 0

    def visit(x, idx):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded
        xs[idx] = x

    def solutions(idx, residual):
        if idx == depth:
            if residual == 0:
                yield nodes, tuple(xs)
            return
        top = isqrt(residual)
        if top * top * (depth - idx) < residual:
            return
        for mag in range(top, 0, -1):
            for x in (mag, -mag):
                visit(x, idx)
                yield from solutions(idx + 1, residual - mag * mag)
        visit(0, idx)
        yield from solutions(idx + 1, residual)

    found = []
    try:
        found.extend(solutions(0, 4 ** (k - 1)))
        total = nodes
    except SearchBudgetExceeded:
        total = None
    vals = np.zeros((len(found), 1 << n), dtype=np.int64)
    vals[:, masks] = np.array([x for _, x in found]).reshape(len(found), depth)
    vals <<= n - k + 1
    _butterfly(vals)
    hits = [
        (found[i][0], cs.TruthTable(n, _pack(vals[i] < 0)).bits)
        for i in np.flatnonzero((np.abs(vals) == (1 << n)).all(axis=1))
    ]
    return hits, total


def spectral_run(n, k, node_budget):
    """The bits enumerate_spectral yields under the budget, and whether it
    ran out."""
    got = []
    try:
        for f in cs.enumerate_spectral(n, k, node_budget=node_budget):
            got.append(f.bits)
    except SearchBudgetExceeded:
        return got, True
    return got, False


def test_reference_spectral_budget_reading():
    # The expectations below read one 20,000-node reference run at smaller
    # budgets; that reading agrees with running the reference at each.
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        hits, total = reference_spectral(n, k, 20_000)
        for budget in (0, 1, 37, 300, 3001):
            short, short_total = reference_spectral(n, k, budget)
            assert short == [(at, b) for at, b in hits if at <= budget]
            assert (short_total is None) == (total is None or budget < total)


@pytest.mark.parametrize("cap", [None, 0])
def test_spectral_search_matches_the_recursive_reference(monkeypatch, cap):
    # The memoised search yields the reference's hits, in order, and stops
    # at the same budgets: a hit counts once its last node is within the
    # budget, so the budgets around a hit's node are the sharp ones.  Cap 0
    # keeps no rows, so every subtree with a solution is walked again over
    # its recorded children.
    if cap is not None:
        monkeypatch.setattr(kfunctions, "_SUBTREE_ENTRIES", cap)
    cells = [(n, k) for n in range(1, 6) for k in range(1, n + 1)]
    for n, k in cells + [(6, 1), (6, 2), (6, 3)]:
        hits, total = reference_spectral(n, k, 20_000)
        # Every hit of a cell with at most 16, else 16 spread evenly over
        # them, first and last included: the full set costs seconds.
        spread = [hits[i * (len(hits) - 1) // 15] for i in range(16)]
        budgets = {*range(301), 20_000}
        budgets.update(at + d for at, _ in (hits if len(hits) <= 16 else spread) for d in (-1, 0, 1))
        for budget in sorted(budgets):
            want = [b for at, b in hits if at <= budget]
            stopped = total is None or budget < total
            assert spectral_run(n, k, budget) == (want, stopped), (n, k, budget)


def test_spectral_holds_x_beyond_int8():
    # At k = 8 the one coefficient is x = +/-128, past int8.
    for n in (7, 8):
        parity = cs.TruthTable.character(n, (1 << n) - 1)
        negated = cs.TruthTable(n, parity.bits ^ ((1 << (1 << n)) - 1))
        assert list(cs.enumerate_spectral(n, n)) == [parity, negated]


def test_spectral_search_is_not_bounded_by_recursion():
    # C(14, 7) = 3432 masks: the first path is one +64 and a chain of
    # zeros, the parity of x1..x7, found at node 3432; the second needs
    # 6864 nodes.
    got = []
    with pytest.raises(SearchBudgetExceeded):
        got.extend(cs.enumerate_spectral(14, 7, node_budget=5000))
    assert got == [cs.TruthTable.character(14, 0b1111111)]


def test_spectral_budget_stops_before_building_masks(monkeypatch):
    # C(24, 12) = 2,704,156 masks; the first node spends the budget, so no
    # mask may be built.
    monkeypatch.setattr(kfunctions, "_level_masks", unreachable)
    with pytest.raises(SearchBudgetExceeded):
        list(cs.enumerate_spectral(24, 12, node_budget=1))


def test_spectral_deterministic_order():
    a = [f.bits for f in cs.enumerate_spectral(4, 2)]
    b = [f.bits for f in cs.enumerate_spectral(4, 2)]
    assert a == b


def test_balancedness_of_positive_levels(kfn):
    # All Fourier mass on level k >= 1 forces a zero mean, i.e. half the
    # table bits set.
    for n in range(1, 5):
        for k in range(1, n + 1):
            for f in kfn(n, k):
                assert f.bits.bit_count() == 1 << (n - 1)
                assert cs.wht(f).coeffs[0] == 0


def test_count_table_records(kfn):
    records = cs.count_table(4)
    by_cell = {(r.n, r.k): r for r in records}
    assert len(records) == 15
    for n in range(5):
        for k in range(n + 1):
            r = by_cell[(n, k)]
            assert r.F == len(kfn(n, k))
            assert r.method == "truth_table"
            assert r.G == len(cs.orbit_classes(kfn(n, k)))
    # fresh values, sanity-checked against each other rather than guesses:
    assert by_cell[(4, 2)].F == len(kfn(4, 2))
    assert by_cell[(4, 1)].F == by_cell[(4, 3)].F


def test_count_table_symmetry_and_sandwich():
    for r in cs.count_table(4):
        order = cs.group_order(r.n)
        assert Fraction(r.F, order) <= r.G <= r.F


def test_count_table_csv_shape():
    text = count_table_csv(cs.count_table(2))
    lines = text.strip().split("\n")
    assert lines[0] == "n,k,F,G,method"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("0,0,2,1,")


def test_count_table_n5_matches_golden():
    data = resources.files("cubestable")
    n5 = data.joinpath("data/count_table_n5.csv").read_text(encoding="ascii")
    n4 = data.joinpath("data/count_table_n4.csv").read_text(encoding="ascii")
    assert count_table_csv(cs.count_table(5)) == n5
    assert n5.splitlines(keepends=True)[:16] == n4.splitlines(keepends=True)


def test_vertex_search_matches_spectral_search_at_n5():
    # Two independent routes to the same sets at every level; levels 3 and
    # 4 are also the complements of the spectral search's levels 2 and 1.
    for k in range(1, 5):
        spectral = {f.bits for f in cs.enumerate_spectral(5, k)}
        assert set(kfunctions._vertex_search(5, k)) == spectral
        if k < 3:
            assert set(kfunctions._vertex_search(5, 5 - k)) == {
                cs.complement(cs.TruthTable(5, bits)).bits for bits in spectral
            }


def test_count_table_n6_matches_golden():
    data = resources.files("cubestable")
    n6 = data.joinpath("data/count_table_n6.csv").read_text(encoding="ascii")
    n5 = data.joinpath("data/count_table_n5.csv").read_text(encoding="ascii")
    assert count_table_csv(cs.count_table(6)) == n6
    assert n6.splitlines(keepends=True)[:22] == n5.splitlines(keepends=True)


def test_vertex_search_matches_spectral_search_at_n6():
    # Levels 1, 2 by the spectral search and levels 4, 5 as the parity
    # complements of its sets.  Completeness at level 3 still has one
    # route, until the restriction join (see ROADMAP) lands: here every
    # table is checked by definition, and the parity map must send the set
    # to itself.
    parity = cs.TruthTable.character(6, 0b111111).bits
    for k in (1, 2):
        spectral = {f.bits for f in cs.enumerate_spectral(6, k)}
        assert set(kfunctions._vertex_search(6, k)) == spectral
        assert set(kfunctions._vertex_search(6, 6 - k)) == {
            bits ^ parity for bits in spectral
        }
    level3 = kfunctions._vertex_search(6, 3)
    assert len(level3) == 19600
    assert (kfunctions._uniform_flips(np.array(level3, np.uint64), 6) == 3).all()
    assert {bits ^ parity for bits in level3} == set(level3)


def unreachable(*args):
    raise AssertionError("the guard let the work start")


def test_vertex_search_refuses_n7_before_allocating(monkeypatch):
    # A Q_7 table does not fit one uint64; the search must stop before it
    # builds its checks or its live array.
    monkeypatch.setattr(kfunctions, "_prune_checks", unreachable)
    for k in (1, 3):
        with pytest.raises(DimensionTooLarge):
            kfunctions._vertex_search(7, k)


def test_count_table_guard(monkeypatch):
    monkeypatch.setattr(kfunctions, "_count_cell", unreachable)
    with pytest.raises(DimensionTooLarge):
        cs.count_table(7)
    with pytest.raises(ValueError):
        cs.count_table(-1)
