import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

import cubestable as cs
from cubestable import scenery
from cubestable.errors import (
    BudgetExceeded,
    KOutOfRange,
    ShapeMismatch,
    ZeroDimension,
)
from cubestable.scenery import SceneryDistribution, _exact_sceneries


def walk_scenery(f, L):
    """The law by brute force: every start vertex and every one of the n**L
    coordinate sequences, each walk weighted 1 / (2**n * n**L)."""
    n = f.n
    counts = Counter()
    for start in range(1 << n):
        for path in product(range(n), repeat=L):
            v = start
            word = [f.value(v)]
            for j in path:
                v ^= 1 << j
                word.append(f.value(v))
            counts[tuple(word)] += 1
    return {w: Fraction(c, (1 << n) * n**L) for w, c in counts.items()}


def test_constant_scenery():
    d = cs.exact_scenery(cs.TruthTable.constant(2, 1), 3)
    assert d.probs == {(1, 1, 1, 1): Fraction(1)}
    assert d.probability((1, -1, 1, 1)) == 0


def test_parity_scenery_alternates():
    d = cs.exact_scenery(cs.TruthTable.character(3, 0b111), 4)
    assert d.probs == {
        (1, -1, 1, -1, 1): Fraction(1, 2),
        (-1, 1, -1, 1, -1): Fraction(1, 2),
    }


def test_exact_matches_walk_enumeration():
    tables = []
    for n in range(1, 4):
        tables += [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        tables += [cs.TruthTable.dictator(n, i) for i in range(1, n + 1)]
        tables += [cs.TruthTable.character(n, m) for m in range(1, 1 << n)]
    rng = random.Random(11)
    # Random tables are mostly not k-functions, so many words have
    # probability zero and their rows must be dropped, not reported.
    tables += [cs.TruthTable(n, rng.getrandbits(1 << n)) for n in (1, 2, 3) * 8]
    for f in tables:
        for L in range(5):
            assert cs.exact_scenery(f, L).probs == walk_scenery(f, L), (f, L)


def test_exact_scenery_at_the_cell_ceiling():
    # 2**8 x 2**12 cells; the constant's one word has weight 2**8 * 8**11
    # = 2**41 before it is reduced.
    d = cs.exact_scenery(cs.TruthTable.constant(8, 1), 11)
    assert d.probs == {(1,) * 12: 1}
    assert d.total() == 1
    # Every walk on the full parity reads an alternating word.
    alternating = tuple((-1) ** i for i in range(12))
    flipped = tuple(-a for a in alternating)
    d = cs.exact_scenery(cs.TruthTable.character(8, 0xFF), 11)
    assert d.probs == {alternating: Fraction(1, 2), flipped: Fraction(1, 2)}
    f = cs.TruthTable(7, random.Random(12).getrandbits(1 << 7))
    d = cs.exact_scenery(f, 12)
    assert d.total() == 1
    assert len(d.probs) > 1000


def test_shared_law_on_q5():
    # All 140 2-functions on Q_5 and their complements, the 140 3-functions.
    twos = list(cs.enumerate_spectral(5, 2))
    assert len(twos) == 140
    laws = {k: cs.markov_scenery(5, k, 8) for k in (2, 3)}
    threes = [cs.complement(f) for f in twos]
    for f, g in zip(twos, threes):
        assert cs.uniform_flip_count(g) == 3
        assert cs.exact_scenery(f, 8) == laws[2]
        assert cs.exact_scenery(g, 8) == laws[3]
    # The same on every vertex, where exact_scenery takes the product on
    # the level sets: 32 tables a batch fill the cell ceiling at n = 5 and
    # L = 8.
    for k, tables in ((2, twos), (3, threes)):
        for i in range(0, len(tables), 32):
            batch = _exact_sceneries(tables[i : i + 32], 8)
            assert all(law == laws[k] for law in batch)


def test_exact_and_markov_laws_have_equal_fields():
    # Norms 2**n * n**L (the walk) and 2 * n**L (the closed form) reduce to
    # the same value, so equal laws are equal field by field.
    for n, k, L in [(5, 2, 8), (4, 1, 5), (3, 3, 4), (5, 5, 0)]:
        f = next(cs.enumerate_spectral(n, k))
        e = cs.exact_scenery(f, L)
        m = cs.markov_scenery(n, k, L)
        assert (e.n, e.L, e.norm, e.weights) == (m.n, m.L, m.norm, m.weights)
        assert e.codes.tolist() == m.codes.tolist() == sorted(m.codes.tolist())
        assert e.total() == 1 and e == m
    # Weights 2**c * 3**(L-c) share no factor with each other or 2 * 5**L.
    assert cs.markov_scenery(5, 2, 8).norm == 2 * 5**8
    assert not cs.markov_scenery(5, 2, 8).codes.flags.writeable


def test_markov_with_no_chance_to_stay():
    # k = n: every step changes the sign, so only the two alternating words.
    for n in (1, 3, 6):
        for L in (0, 1, 4):
            d = cs.markov_scenery(n, n, L)
            up = tuple((-1) ** i for i in range(L + 1))
            assert d.probs == {up: Fraction(1, 2), tuple(-s for s in up): Fraction(1, 2)}
            assert (d.weights, d.norm) == ((1, 1), 2)
            assert d == cs.exact_scenery(cs.TruthTable.character(n, (1 << n) - 1), L)


def test_mapping_built_law_equals_the_dp_law():
    # Denominators 9, 12, 18 and 36 over the DP's norm 2**3 * 3**3.
    d = cs.exact_scenery(cs.TruthTable(3, 0b00010111), 3)
    assert {p.denominator for p in d.probs.values()} == {9, 12, 18, 36}
    built = SceneryDistribution(3, 3, dict(reversed(d.probs.items())))
    assert built.codes.tolist() == d.codes.tolist()
    assert (built.weights, built.norm) == (d.weights, d.norm) and d.norm == 36
    assert built == d
    assert built != SceneryDistribution(4, 3, d.probs)
    # The same weights and norm on different words.
    half = Fraction(1, 2)
    a = SceneryDistribution(2, 1, {(1, 1): half, (1, -1): half})
    b = SceneryDistribution(2, 1, {(1, 1): half, (-1, 1): half})
    assert a != b and not cs.distributions_equal(a, b)


def test_markov_hand_values():
    d = cs.markov_scenery(2, 2, 1)
    assert d.probs == {(1, -1): Fraction(1, 2), (-1, 1): Fraction(1, 2)}
    d = cs.markov_scenery(4, 2, 1)
    assert set(d.probs.values()) == {Fraction(1, 4)} and len(d.probs) == 4
    assert cs.markov_scenery(4, 1, 2).probability((1, 1, 1)) == Fraction(9, 32)


def test_chain_law_past_int64():
    # The product keeps int64 weights only while the start weight times
    # n**L fits, and a law taken in Python ints is narrowed when its
    # weights fit once reduced: int64 throughout for 2**34 * 5**12 < 2**63;
    # Python ints narrowed at the end for 2**40 (largest weight about
    # 2**59); Python ints kept for 2**46 and for 40**12 (largest weights
    # 2**46 * 3**12 and 39**12, both past 2**63).  Each law is checked
    # against one built from Fractions.
    for n, k, L, plus, minus, dtype in [
        (5, 2, 12, 2**34 + 1, 3, np.int64),
        (5, 2, 12, 2**40 + 1, 3, np.int64),
        (5, 2, 12, 3, 2**46 + 1, object),
        (40, 1, 12, 1, 1, object),
    ]:
        probs = {}
        for word in product((1, -1), repeat=L + 1):
            weight = plus if word[0] == 1 else minus
            for a, b in zip(word, word[1:]):
                weight *= k if a != b else n - k
            probs[word] = Fraction(weight, (plus + minus) * n**L)
        law = scenery._chain_law(n, k, L, plus, minus)
        _same_fields(law, SceneryDistribution(n, L, probs))
        assert law._w.dtype == dtype
    assert scenery._chain_law(40, 1, 12, 1, 1) == cs.markov_scenery(40, 1, 12)


def test_exact_matches_markov_small_grid(kfn):
    for n in range(1, 4):
        for k in range(1, n + 1):
            want = cs.markov_scenery(n, k, 3)
            for f in kfn(n, k):
                assert cs.distributions_equal(cs.exact_scenery(f, 3), want)
            for law in _exact_sceneries(kfn(n, k), 3):
                assert cs.distributions_equal(law, want)


def test_exact_matches_markov_q4_samples(kfn):
    want = cs.markov_scenery(4, 2, 4)
    rng = random.Random(5)
    sample = rng.sample(kfn(4, 2), 6)
    for f in sample:
        assert cs.distributions_equal(cs.exact_scenery(f, 4), want)
    for law in _exact_sceneries(sample, 4):
        assert cs.distributions_equal(law, want)


def test_total_probability_any_table():
    rng = random.Random(9)
    for _ in range(10):
        f = cs.TruthTable(3, rng.getrandbits(8))
        assert cs.exact_scenery(f, 3).total() == 1
    assert cs.markov_scenery(5, 2, 6).total() == 1


def test_sign_and_reversal_symmetry():
    d = cs.markov_scenery(4, 3, 4)
    for w, p in d.probs.items():
        assert d.probability(tuple(-s for s in w)) == p
        assert d.probability(w[::-1]) == p


def test_one_and_two_functions_distinguishable(two_function_q4):
    d1 = cs.exact_scenery(cs.TruthTable.dictator(4, 1), 2)
    d2 = cs.exact_scenery(two_function_q4, 2)
    assert not cs.distributions_equal(d1, d2)
    assert d1.probability((1, 1, 1)) == Fraction(9, 32)
    assert d2.probability((1, 1, 1)) == Fraction(1, 8)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        cs.distributions_equal(cs.markov_scenery(2, 1, 1), cs.markov_scenery(3, 1, 1))
    with pytest.raises(ShapeMismatch):
        cs.distributions_equal(cs.markov_scenery(3, 1, 1), cs.markov_scenery(3, 1, 2))


def test_argument_guards():
    with pytest.raises(ZeroDimension):
        cs.exact_scenery(cs.TruthTable.constant(0, 1), 1)
    with pytest.raises(ZeroDimension):
        cs.markov_scenery(0, 0, 1)
    with pytest.raises(KOutOfRange):
        cs.markov_scenery(3, 0, 2)
    with pytest.raises(KOutOfRange):
        cs.markov_scenery(3, 4, 1)
    with pytest.raises(ValueError):
        cs.exact_scenery(cs.TruthTable.constant(2, 1), -1)
    with pytest.raises(BudgetExceeded):
        cs.exact_scenery(cs.TruthTable.constant(2, 1), 13)
    with pytest.raises(BudgetExceeded):
        cs.markov_scenery(3, 1, 13)


def test_exact_scenery_cell_ceiling(monkeypatch):
    allowed = cs.exact_scenery(cs.TruthTable.constant(4, 1), 12)
    assert allowed.probs == {(1,) * 13: 1}

    # exact_scenery scans the flip counts with _uniform_flips and the DP on
    # vertices unpacks each table with _unpack, so refusing both proves the
    # ceiling holds before the table is scanned or densified.
    def refuse(*args):
        raise AssertionError("a table was scanned or unpacked past the ceiling")

    monkeypatch.setattr(scenery, "_uniform_flips", refuse)
    monkeypatch.setattr(scenery, "_unpack", refuse)
    with pytest.raises(BudgetExceeded):
        cs.exact_scenery(cs.TruthTable.constant(20, 1), 0)


def _same_fields(a, b):
    assert (a.n, a.L, a.norm, a.weights) == (b.n, b.L, b.norm, b.weights)
    assert np.array_equal(a.codes, b.codes)
    assert (a.codes.dtype, a._w.dtype) == (b.codes.dtype, b._w.dtype)


def test_level_set_dp_equals_vertex_dp(kfn, monkeypatch):
    # exact_scenery takes a k-function's law as a product on its two level
    # sets and _exact_sceneries walks its vertices: the laws agree field by
    # field, weight dtype included, at every L up to 8, and on every
    # k-function on Q_5 also at L = 10, a step count the session requests.
    tables = [f for n in range(1, 5) for k in range(n + 1) for f in kfn(n, k)]
    fives = [f for k in range(1, 5) for f in cs.enumerate_spectral(5, k)]
    assert len(fives) == 300
    by_n = {}
    for f in tables + fives:
        by_n.setdefault(f.n, []).append(f)
    for n, group in by_n.items():
        for L in [*range(9), 10] if n == 5 else range(9):
            # Batches fill the cell ceiling, 2**(n + L + 1) cells a table.
            batch = scenery.MAX_DP_CELLS >> (n + L + 1)
            vertex_laws = []
            for i in range(0, len(group), batch):
                vertex_laws += _exact_sceneries(group[i : i + batch], L)
            with monkeypatch.context() as m:
                # No table is unpacked, so none takes the vertex route.
                m.setattr(scenery, "_unpack", None)
                cell_laws = [cs.exact_scenery(f, L) for f in group]
            for a, b in zip(cell_laws, vertex_laws):
                _same_fields(a, b)


@pytest.mark.parametrize("n, L", [(2, 7), (2, 8), (4, 3), (4, 7), (4, 8), (8, 11)])
def test_level_set_dp_holds_a_whole_cell(n, L):
    # A constant's one word carries all 2**n * n**L walks, and each of the
    # parity's two words 2**(n - 1) * n**L: past n**L, where a dtype sized
    # by n**L alone would wrap at (2, 7), (4, 3) and (4, 7).
    plus, minus = (1,) * (L + 1), (-1,) * (L + 1)
    alternating = tuple((-1) ** i for i in range(L + 1))
    flipped = tuple(-a for a in alternating)
    half = Fraction(1, 2)
    cases = [
        (cs.TruthTable.constant(n, 1), {plus: 1}),
        (cs.TruthTable.constant(n, -1), {minus: 1}),
        (cs.TruthTable.character(n, (1 << n) - 1), {alternating: half, flipped: half}),
    ]
    for f, expected in cases:
        # One table a batch: at (8, 11) one fills the cell ceiling.
        (law,) = _exact_sceneries([f], L)
        one = cs.exact_scenery(f, L)
        assert one.probs == expected
        _same_fields(one, law)


def test_batched_dp_gives_each_table_its_own_law(kfn):
    rng = random.Random(13)
    for n, twos in ((4, kfn(4, 2)), (5, list(islice(cs.enumerate_spectral(5, 2), 4)))):
        batch = [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        batch += [cs.TruthTable.dictator(n, i) for i in (1, n)] + twos[:4]
        batch += [cs.TruthTable(n, rng.getrandbits(1 << n)) for _ in range(4)]
        for L in (3, 6):
            laws = _exact_sceneries(batch, L)
            assert len(laws) == len(batch)
            for f, law in zip(batch, laws):
                one = cs.exact_scenery(f, L)
                assert (law.n, law.L, law.norm, law.weights) == (
                    one.n, one.L, one.norm, one.weights
                )
                assert np.array_equal(law.codes, one.codes)
                if L == 3:
                    assert law.probs == walk_scenery(f, L)
            # The all-+1 word (code 0) is live in the +1 constant and zero
            # in the -1 constant, and the +1 constant reads no other word.
            assert laws[0].codes.tolist() == [0]
            assert 0 not in laws[1].codes and len(laws[2].codes) > 1
    assert _exact_sceneries([], 4) == []


def test_batched_dp_at_zero_one_and_two_steps(kfn):
    # The last letter is summed, not split into a doubled state, at every L;
    # at L = 0 there is no step at all.
    rng = random.Random(15)
    for n in (1, 2, 3, 4):
        batch = [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        batch += [cs.TruthTable.dictator(n, n), cs.TruthTable.character(n, (1 << n) - 1)]
        batch += [cs.TruthTable(n, rng.getrandbits(1 << n)) for _ in range(4)]
        batch += kfn(n, 1)[:2]
        for L in (0, 1, 2):
            laws = _exact_sceneries(batch, L)
            for f, law in zip(batch, laws):
                assert law.probs == walk_scenery(f, L), (f, L)
                assert law == cs.exact_scenery(f, L)
                assert law.codes.dtype == np.int64
                assert law.codes.tolist() == sorted(law.codes.tolist())


@pytest.mark.parametrize("n, L", [(2, 7), (2, 8), (4, 4), (4, 8), (8, 5)])
def test_dp_state_holds_n_to_the_L(n, L):
    # Every walk into a vertex of a constant table or of the full parity
    # reads one word, so a state entry reaches n**L: here 128, 256, 32768
    # or 65536, where one narrower dtype would wrap.
    plus, minus = (1,) * (L + 1), (-1,) * (L + 1)
    alternating = tuple((-1) ** i for i in range(L + 1))
    flipped = tuple(-a for a in alternating)
    half = Fraction(1, 2)
    cases = [
        (cs.TruthTable.constant(n, 1), {plus: 1}),
        (cs.TruthTable.constant(n, -1), {minus: 1}),
        (cs.TruthTable.character(n, (1 << n) - 1), {alternating: half, flipped: half}),
    ]
    laws = _exact_sceneries([f for f, _ in cases], L)
    for (f, expected), law in zip(cases, laws):
        assert cs.exact_scenery(f, L).probs == law.probs == expected
        assert law.total() == 1
    if n == 2:
        assert laws[2].probs == walk_scenery(cases[2][0], L)


def test_batched_dp_guards(monkeypatch, kfn):
    twos = kfn(4, 2)
    # Lowered to criterion 10's 36 x 2**4 vertices x 2**7 words, the
    # ceiling holds that batch exactly.
    monkeypatch.setattr(scenery, "MAX_DP_CELLS", 36 << 11)
    assert len(_exact_sceneries(twos, 6)) == 36

    def refuse(*args):
        raise AssertionError("a table was unpacked past a guard")

    monkeypatch.setattr(scenery, "_unpack", refuse)
    for batch, L in ((twos + twos[:1], 6), (twos, 7)):
        with pytest.raises(BudgetExceeded):
            _exact_sceneries(batch, L)
    mixed = [cs.TruthTable.constant(4, 1), cs.TruthTable.constant(5, 1)]
    with pytest.raises(ShapeMismatch):
        _exact_sceneries(mixed, 2)
    # At the real ceiling of 2**20 cells, 540 tables at n = 4 and L = 6 are
    # 540 x 2**11 cells.
    monkeypatch.setattr(scenery, "MAX_DP_CELLS", 1 << 20)
    with pytest.raises(BudgetExceeded):
        _exact_sceneries(twos * 15, 6)


def test_distribution_validation():
    with pytest.raises(ValueError):
        SceneryDistribution(2, 1, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SceneryDistribution(2, 1, {(1, 1, 1): Fraction(1)})
    d = SceneryDistribution(2, 1, {(1, 1): Fraction(1), (1, -1): Fraction(0)})
    assert (1, -1) not in d.probs


def test_distribution_rejects_negative_probability():
    with pytest.raises(ValueError):
        SceneryDistribution(2, 1, {(1, 1): Fraction(3, 2), (1, -1): Fraction(-1, 2)})


def test_distribution_step_bound_is_the_code_width():
    # Codes are int64, so a hand-built law may have up to 62 steps, past
    # the DPs' 12-step ceiling.
    d = SceneryDistribution(1, 13, {(1,) * 14: Fraction(1)})
    assert d.probability((1,) * 14) == 1
    word = (-1,) + (1,) * 62
    d = SceneryDistribution(1, 62, {word: Fraction(1, 3), (1,) * 63: Fraction(2, 3)})
    assert d.codes.tolist() == [0, 1 << 62]
    assert d.probability(word) == Fraction(1, 3)
    for L in (-1, 63):
        with pytest.raises(ValueError):
            SceneryDistribution(1, L, {})


def test_probability_looks_up_one_word():
    d = cs.markov_scenery(5, 2, 6)
    for w, p in d.probs.items():
        assert d.probability(list(w)) == p
    assert d.probability((1,) * 6) == 0
    assert d.probability((1, 0, 1, 1, 1, 1, 1)) == 0
    assert cs.markov_scenery(3, 3, 2).probability((1, 1, 1)) == 0
