"""Explicit k-function builders.

* :func:`lift_pair` turns two k-functions on Q_n into a (k+1)-function on
  Q_{n+2} (CLI recipe name: ``lemma7``).
* :func:`complement` multiplies by the full parity character, swapping
  k-functions with (n-k)-functions.
* :func:`disjoint_copy` + :func:`compose_outer` substitute Boolean
  functions on disjoint variables into an outer Boolean function.
* :func:`max_relevant_construct` iterates lift_pair on disjoint copies,
  growing 3*2**(k-1) - 2 relevant indices at level k.
* :func:`uncoverable4` builds the 64-term 4-function on 16 variables whose
  Fourier support no two indices cover.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    MAX_DENSE_N,
    SparsePolynomial,
    TruthTable,
    indices_from_mask,
    mask_from_indices,
    sparse_from_truth_table,
)
from .errors import (
    DimensionMismatch,
    KOutOfRange,
    NotBoolean,
    NotKFunction,
    SupportOverlap,
    ArityMismatch,
    VerificationFailed,
)
from .kfunctions import uniform_flip_count


def _sparse_level(p: SparsePolynomial) -> int:
    """The single Fourier level of p, after cheap k-function checks.

    Requires all support masks on one level and sum of squared coefficients
    exactly 1; these are necessary (not sufficient) for p to be a Boolean
    k-function, which remains the caller's contract for sparse inputs.
    """
    levels = p.support_levels()
    if len(levels) != 1:
        raise NotKFunction(f"support spans levels {sorted(levels)}, not one")
    if p.parseval_sum() != 1:
        raise NotKFunction(
            f"sum of squared coefficients is {p.parseval_sum()}, not 1"
        )
    return next(iter(levels))


def _lift_dense(f: TruthTable, g: TruthTable) -> TruthTable | SparsePolynomial:
    if f.n != g.n:
        raise DimensionMismatch(f"inputs on Q_{f.n} and Q_{g.n}")
    k = uniform_flip_count(f)
    if k < 0:
        raise NotKFunction("first input is not a k-function for any k")
    if uniform_flip_count(g) != k:
        raise NotKFunction(
            f"second input is not a {k}-function like the first"
        )
    n = f.n
    if n + 2 > MAX_DENSE_N:
        return _lift_sparse(sparse_from_truth_table(f), sparse_from_truth_table(g))
    size = 1 << n
    full = (1 << size) - 1
    # Quadrants by the two new coordinates (x_{n+1}, x_{n+2}):
    # (+1,+1) -> f, (-1,+1) -> -g, (+1,-1) -> g, (-1,-1) -> -f.
    bits = (
        f.bits
        | ((g.bits ^ full) << size)
        | (g.bits << (2 * size))
        | ((f.bits ^ full) << (3 * size))
    )
    h = TruthTable(n + 2, bits)
    if uniform_flip_count(h) != k + 1:
        raise VerificationFailed("lifted table failed its flip-count check")
    return h


def _lift_sparse(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    kf = _sparse_level(f)
    kg = _sparse_level(g)
    if kf != kg:
        raise NotKFunction(f"inputs sit on different levels {kf} and {kg}")
    fresh = max(f.relevant_mask().bit_length(), g.relevant_mask().bit_length())
    # Raises IndexOverflow past variable 64, even when every x_b term cancels.
    b = mask_from_indices((fresh + 2,))
    a = b >> 1
    # h = ((f + g) * x_a + (f - g) * x_b) / 2 in one pass over the masks of
    # f and g: each pair of coefficients over its common denominator, and
    # the constructor puts every halved sum and difference in lowest terms.
    terms: dict[int, tuple[int, int]] = {}
    for mask in f.terms.keys() | g.terms.keys():
        nf, df = f.terms.get(mask, (0, 0))
        ng, dg = g.terms.get(mask, (0, 0))
        d = max(df, dg)
        nf <<= d - df
        ng <<= d - dg
        if nf != -ng:
            terms[mask | a] = (nf + ng, d + 1)
        if nf != ng:
            terms[mask | b] = (nf - ng, d + 1)
    return SparsePolynomial(terms)


def lift_pair(
    f: TruthTable | SparsePolynomial, g: TruthTable | SparsePolynomial
) -> TruthTable | SparsePolynomial:
    """Combine two k-functions into a (k+1)-function on two more variables.

    h = ((f+g)/2) * x_a + ((f-g)/2) * x_b where x_a, x_b are the two fresh
    coordinates (n+1, n+2 for tables; the two smallest unused indices for
    sparse inputs).  Restricting (x_a, x_b) to (+1,+1), (+1,-1), (-1,+1),
    (-1,-1) recovers f, g, -g, -f in turn, which is why distinct ordered
    input pairs always produce distinct outputs.

    Dense inputs give a dense output (sparse only past the dense ceiling);
    sparse inputs give a sparse output.
    """
    if isinstance(f, TruthTable) and isinstance(g, TruthTable):
        return _lift_dense(f, g)
    if isinstance(f, SparsePolynomial) and isinstance(g, SparsePolynomial):
        return _lift_sparse(f, g)
    raise TypeError("inputs must both be TruthTable or both SparsePolynomial")


def complement(f: TruthTable) -> TruthTable:
    """The pointwise product of f with the full parity character chi_[n].

    An involution mapping k-functions to (n-k)-functions bijectively.
    """
    return TruthTable(f.n, f.bits ^ TruthTable.character(f.n, (1 << f.n) - 1).bits)


def disjoint_copy(p: SparsePolynomial, offset: int) -> SparsePolynomial:
    """p with every variable index increased by offset."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    # The SparsePolynomial constructor raises IndexOverflow past variable 64.
    return SparsePolynomial(
        {mask << offset: term for mask, term in p.terms.items()}
    )


def compose_outer(
    outer: SparsePolynomial, inners: Sequence[SparsePolynomial]
) -> SparsePolynomial:
    """Substitute inners for the outer's relevant variables, in index order.

    The i-th inner replaces the i-th smallest relevant variable of the
    outer.  Inners must have pairwise disjoint supports and be +/-1-valued
    (the latter is the caller's contract; sum-of-squares = 1 is checked as
    a cheap necessary condition).
    """
    slots = indices_from_mask(outer.relevant_mask())
    if len(inners) != len(slots):
        raise ArityMismatch(
            f"outer has {len(slots)} relevant variables, got {len(inners)} inners"
        )
    seen = 0
    for g in inners:
        gm = g.relevant_mask()
        if seen & gm:
            raise SupportOverlap("inner supports are not pairwise disjoint")
        seen |= gm
        if g.parseval_sum() != 1:
            raise NotBoolean(
                "inner fails the sum-of-squares = 1 necessary condition"
            )
    by_slot = dict(zip(slots, inners))
    acc = SparsePolynomial.zero()
    for mask, (num, a) in outer.terms.items():
        prod = SparsePolynomial({0: (num, a)})
        for i in indices_from_mask(mask):
            prod = prod * by_slot[i]
        acc = acc + prod
    return acc


def is_cover(h: SparsePolynomial, indices: Iterable[int]) -> bool:
    """Does every support mask of h contain one of the given indices?

    Vacuously true when the support is empty; a constant term (mask 0) is
    hit by no index, so anything containing it is uncoverable.
    """
    cmask = mask_from_indices(indices)
    return all(mask & cmask for mask in h.terms)


def cover_check(h: SparsePolynomial, size: int) -> frozenset[int] | None:
    """A size-element set of relevant indices hitting every support mask.

    Candidates are searched in ascending lexicographic order over the
    relevant indices and the first cover found is returned, so the result
    is deterministic; None if no cover of that size exists.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    rel = indices_from_mask(h.relevant_mask())
    for combo in combinations(rel, size):
        if is_cover(h, combo):
            return frozenset(combo)
    return None


def _validate_level(p: SparsePolynomial, k: int, relevant: int, terms: int) -> None:
    if p.support_levels() != {k}:
        raise VerificationFailed(f"support not confined to level {k}")
    if len(p.terms) != terms:
        raise VerificationFailed(f"expected {terms} terms, got {len(p.terms)}")
    if len(indices_from_mask(p.relevant_mask())) != relevant:
        raise VerificationFailed(f"expected {relevant} relevant indices")
    if p.parseval_sum() != 1:
        raise VerificationFailed("sum of squared coefficients is not 1")
    want = {(1, k - 1), (-1, k - 1)} if k > 1 else {(1, 0), (-1, 0)}
    if not set(p.terms.values()) <= want:
        raise VerificationFailed(f"coefficients are not all +/-1/2**{k - 1}")


def max_relevant_construct(k: int) -> SparsePolynomial:
    """A k-function with 3*2**(k-1) - 2 relevant indices, the most this
    package can certify.

    Built by repeatedly lifting the previous level's function with a
    disjoint copy of itself; each round doubles the variables in use and
    adds two fresh ones.  k = 5 already needs 46 variables, and k = 6 would
    need 94, past the 64-variable sparse ceiling, hence the range limit.
    """
    if not 1 <= k <= 5:
        raise KOutOfRange(f"k={k} outside 1..5 (k=6 needs 94 > 64 variables)")
    p = SparsePolynomial.variable(1)
    for _ in range(k - 1):
        width = p.relevant_mask().bit_length()
        p = lift_pair(p, disjoint_copy(p, width))
    assert isinstance(p, SparsePolynomial)
    _validate_level(p, k, relevant=3 * 2 ** (k - 1) - 2, terms=4 ** (k - 1))
    return p


def uncoverable4() -> SparsePolynomial:
    """The 64-term 4-function on 16 variables with no 2-index cover.

    Substitutes four disjoint copies of the 4-variable 2-function
    (x1 x3 + x2 x3 + x1 x4 - x2 x4)/2 into itself.  Every one of its 16
    relevant indices lies in exactly 16 support masks, so no two indices
    can hit all 64.
    """
    base = lift_pair(SparsePolynomial.variable(1), SparsePolynomial.variable(2))
    assert isinstance(base, SparsePolynomial)
    inners = [disjoint_copy(base, 4 * i) for i in range(4)]
    return compose_outer(base, inners)
