import random
from fractions import Fraction

import pytest

import cubestable as cs
from cubestable.errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOverflow,
    KOutOfRange,
    NotBoolean,
    NotKFunction,
    SupportOverlap,
)


def test_lift_dictators_q1():
    h = cs.lift_pair(cs.TruthTable.dictator(1, 1), cs.TruthTable.dictator(1, 1))
    assert isinstance(h, cs.TruthTable)
    assert h.n == 3
    # ((f+f)/2) x_2 + 0 = x_1 x_2
    assert h == cs.TruthTable.character(3, 0b011)


def test_lift_dictators_q2_spectrum(two_function_q4):
    s = cs.wht(two_function_q4)
    assert {m: s.coeffs[m] for m in s.support()} == {5: 8, 6: 8, 9: 8, 10: -8}
    assert cs.uniform_flip_count(two_function_q4) == 2


def test_lift_quadrant_restrictions(kfn):
    ones = kfn(2, 1)
    for f in ones:
        for g in ones:
            h = cs.lift_pair(f, g)
            for v in range(4):
                assert h.value(v) == f.value(v)          # x3=+1, x4=+1
                assert h.value(v | 4) == -g.value(v)     # x3=-1, x4=+1
                assert h.value(v | 8) == g.value(v)      # x3=+1, x4=-1
                assert h.value(v | 12) == -f.value(v)    # x3=-1, x4=-1


def test_lift_injective_on_ordered_pairs(kfn):
    ones = kfn(2, 1)
    lifted = {cs.lift_pair(f, g) for f in ones for g in ones}
    assert len(lifted) == len(ones) ** 2 == 16
    for h in lifted:
        assert cs.uniform_flip_count(h) == 2


def test_lift_errors():
    with pytest.raises(DimensionMismatch):
        cs.lift_pair(cs.TruthTable.dictator(2, 1), cs.TruthTable.dictator(3, 1))
    with pytest.raises(NotKFunction):
        cs.lift_pair(cs.TruthTable(2, 0b1000), cs.TruthTable.dictator(2, 1))
    with pytest.raises(NotKFunction):
        # a 1-function and a 2-function do not lift together
        cs.lift_pair(cs.TruthTable.dictator(2, 1), cs.TruthTable.character(2, 0b11))
    with pytest.raises(TypeError):
        cs.lift_pair(cs.TruthTable.dictator(2, 1), cs.SparsePolynomial.variable(1))


def test_lift_sparse_matches_dense(two_function_q4):
    h = cs.lift_pair(cs.SparsePolynomial.variable(1), cs.SparsePolynomial.variable(2))
    assert isinstance(h, cs.SparsePolynomial)
    assert h.terms == cs.sparse_from_truth_table(two_function_q4).terms


def test_lift_sparse_fresh_indices():
    p = cs.SparsePolynomial.variable(2)
    q = cs.SparsePolynomial.variable(3)
    h = cs.lift_pair(p, q)
    # highest index in use is 3, so the fresh pair is x4, x5
    assert h.relevant_mask() == 0b11110
    assert h.support_levels() == {2}


def _lift_by_operators(f, g):
    """The sparse lift as the polynomial operators write it."""
    fresh = max(f.relevant_mask().bit_length(), g.relevant_mask().bit_length())
    a = cs.SparsePolynomial.variable(fresh + 1)
    b = cs.SparsePolynomial.variable(fresh + 2)
    return ((f + g) * a + (f - g) * b).scaled(1, 1)


def test_lift_sparse_matches_the_operator_form(kfn):
    rng = random.Random(29)
    # Sparse k-functions by level: Q_4 and Q_5 ones, characters among them
    # (coefficient 1), and max_relevant_construct's (1/2 at k = 2, 1/4 at
    # k = 3), so pairs on one level can have unequal denominators.
    by_level = {}
    for n, k in [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)]:
        tables = kfn(n, k) if n == 4 else cs.enumerate_spectral(n, k)
        by_level.setdefault(k, []).extend(map(cs.sparse_from_truth_table, tables))
    for k in (2, 3):
        by_level[k].append(cs.max_relevant_construct(k))
    pairs = []
    for k, fs in sorted(by_level.items()):
        for _ in range(60):
            f = cs.disjoint_copy(rng.choice(fs), rng.randrange(4))
            g = cs.disjoint_copy(rng.choice(fs), rng.randrange(4))
            pairs.append((f, -g if rng.random() < 0.5 else g))
        f = rng.choice(fs)
        pairs += [(f, f), (f, -f)]
    overlapping = unequal = 0
    for f, g in pairs:
        assert cs.lift_pair(f, g) == _lift_by_operators(f, g)
        shared = f.terms.keys() & g.terms.keys()
        overlapping += bool(shared)
        unequal += any(f.terms[m][1] != g.terms[m][1] for m in shared)
    assert overlapping and unequal
    # g = f cancels every x_b term and g = -f every x_a term.
    f = by_level[3][-1]
    fresh = f.relevant_mask().bit_length()
    assert cs.lift_pair(f, f).relevant_mask() >> fresh == 0b01
    assert cs.lift_pair(f, -f).relevant_mask() >> fresh == 0b10


def test_lift_sparse_at_the_variable_ceiling(two_function_q4):
    base = cs.sparse_from_truth_table(two_function_q4)
    low = cs.disjoint_copy(base, 50)
    top = cs.disjoint_copy(base, 58)  # x_59..x_62
    for g, fresh in [(low, 0b11), (top, 0b01), (-top, 0b10)]:
        h = cs.lift_pair(top, g)
        assert h == _lift_by_operators(top, g)
        assert h.relevant_mask() >> 62 == fresh  # x_63 and x_64
    over = cs.disjoint_copy(base, 59)  # x_60..x_63: x_65 is past the ceiling
    for f, g in [(over, low), (low, over), (over, over), (over, -over)]:
        with pytest.raises(IndexOverflow):
            cs.lift_pair(f, g)


def test_lift_sparse_errors():
    x1 = cs.SparsePolynomial.variable(1)
    with pytest.raises(NotKFunction):
        cs.lift_pair(x1, (x1 + cs.SparsePolynomial.variable(2)).scaled(1, 1))
    with pytest.raises(NotKFunction):
        cs.lift_pair(x1, x1 * cs.SparsePolynomial.variable(2))


def test_complement_involution_and_flip_counts():
    for bits in range(256):
        f = cs.TruthTable(3, bits)
        c = cs.complement(f)
        assert cs.complement(c) == f
        for v in range(8):
            assert cs.flip_count(c, v) == 3 - cs.flip_count(f, v)


def test_complement_bijection_between_levels(kfn):
    for n in range(1, 5):
        for k in range(n + 1):
            assert {cs.complement(f) for f in kfn(n, k)} == set(kfn(n, n - k))


def test_complement_respects_isomorphism(kfn):
    # complement sends whole classes to whole classes, so G(n,k) = G(n,n-k)
    for f in kfn(3, 1):
        for g in kfn(3, 1):
            before = cs.are_isomorphic(f, g) is not None
            after = cs.are_isomorphic(cs.complement(f), cs.complement(g)) is not None
            assert before == after


def test_disjoint_copy():
    base = cs.lift_pair(cs.SparsePolynomial.variable(1), cs.SparsePolynomial.variable(2))
    moved = cs.disjoint_copy(base, 4)
    assert moved.relevant_mask() == base.relevant_mask() << 4
    assert moved.coefficient(5 << 4) == base.coefficient(5) == Fraction(1, 2)
    with pytest.raises(ValueError):
        cs.disjoint_copy(base, -1)
    with pytest.raises(IndexOverflow):
        cs.disjoint_copy(cs.SparsePolynomial.variable(60), 10)


def test_compose_outer_with_dictator_slots(two_function_q4):
    base = cs.sparse_from_truth_table(two_function_q4)
    inners = [cs.SparsePolynomial.variable(i) for i in (1, 2, 3, 4)]
    assert cs.compose_outer(base, inners).terms == base.terms


def test_compose_outer_evaluates_pointwise(two_function_q4):
    base = cs.sparse_from_truth_table(two_function_q4)
    inners = [cs.disjoint_copy(base, 4 * i) for i in range(4)]
    h = cs.compose_outer(base, inners)
    rng = random.Random(3)
    for _ in range(50):
        point = {i: rng.choice((-1, 1)) for i in range(1, 17)}
        inner_vals = {
            slot: cs.evaluate_sparse(g, point)
            for slot, g in zip((1, 2, 3, 4), inners)
        }
        assert cs.evaluate_sparse(h, point) == cs.evaluate_sparse(
            base, {s: int(v) for s, v in inner_vals.items()}
        )


def test_compose_outer_errors(two_function_q4):
    base = cs.sparse_from_truth_table(two_function_q4)
    x1 = cs.SparsePolynomial.variable(1)
    with pytest.raises(ArityMismatch):
        cs.compose_outer(base, [x1, x1])
    with pytest.raises(SupportOverlap):
        cs.compose_outer(base, [x1, x1, cs.SparsePolynomial.variable(2),
                                cs.SparsePolynomial.variable(3)])
    with pytest.raises(NotBoolean):
        cs.compose_outer(
            base,
            [x1, cs.SparsePolynomial.variable(2),
             cs.SparsePolynomial.variable(3),
             cs.SparsePolynomial.constant(2)],
        )


def test_cover_checks(two_function_q4):
    base = cs.sparse_from_truth_table(two_function_q4)
    assert cs.is_cover(base, {1, 2})
    assert cs.is_cover(base, {3, 4})
    assert not cs.is_cover(base, {1})
    assert cs.cover_check(base, 1) is None
    assert cs.cover_check(base, 2) == frozenset({1, 2})
    with pytest.raises(ValueError):
        cs.cover_check(base, -1)


def test_cover_check_edge_cases():
    # A constant term has the empty mask, which no index hits.
    assert cs.cover_check(cs.SparsePolynomial.constant(1), 0) is None
    # An empty support is vacuously covered by the empty set.
    assert cs.cover_check(cs.SparsePolynomial.zero(), 0) == frozenset()


def test_max_relevant_chain():
    for k, want in zip(range(1, 6), (1, 4, 10, 22, 46)):
        p = cs.max_relevant_construct(k)
        assert len(p.terms) == 4 ** (k - 1)
        assert p.relevant_mask().bit_count() == want == 3 * 2 ** (k - 1) - 2
        assert p.support_levels() == {k}
        assert p.parseval_sum() == 1
    for bad in (0, 6):
        with pytest.raises(KOutOfRange):
            cs.max_relevant_construct(bad)


def test_max_relevant_evaluates_boolean():
    rng = random.Random(11)
    for k in (2, 3, 4):
        p = cs.max_relevant_construct(k)
        vars_ = [i + 1 for i in range(p.relevant_mask().bit_length())]
        for _ in range(25):
            point = {i: rng.choice((-1, 1)) for i in vars_}
            assert cs.evaluate_sparse(p, point) in (-1, 1)


def test_uncoverable4_certificate():
    h = cs.uncoverable4()
    assert len(h.terms) == 64
    assert h.support_levels() == {4}
    rel = [i + 1 for i in range(16) if h.relevant_mask() >> i & 1]
    assert len(rel) == 16
    assert set(h.terms.values()) == {(1, 3), (-1, 3)}
    for i in rel:
        hit = sum(1 for m in h.terms if m >> (i - 1) & 1)
        assert hit == 16
    assert cs.cover_check(h, 2) is None
