"""Exact counting of integer vectors with a prescribed sum of squares.

S(q, t) = #{x in Z^t : x_1**2 + ... + x_t**2 = q} (the number-theoretic
r_t(q)).  Two independent implementations — a sweep over t with each
column S(0..q, t) packed into one integer, and a raw scan — plus the
bound checks that sandwich S(q, t) and the resulting upper bound on the
k-function count F(n, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, PreconditionViolated, VerificationFailed

#: Default ceiling on the q*t recurrence table.
DEFAULT_MEMO_LIMIT = 10_000_000

#: Default ceiling on the (2*isqrt(q)+1)**t brute-force scan.
DEFAULT_SCAN_LIMIT = 100_000_000


@dataclass(frozen=True)
class SosResult:
    q: int
    t: int
    count: int


def _check_args(q: int, t: int) -> None:
    if q < 0 or t < 0:
        raise ValueError(f"q and t must be >= 0, got ({q}, {t})")


def _check_memo_limit(memo_limit: int) -> None:
    if memo_limit < 0:
        raise ValueError(f"memo limit must be >= 0, got {memo_limit}")


def _columns(
    q: int, t: int, memo_limit: int, slots: Sequence[int]
) -> Iterator[list[int]]:
    """``[S(r, t') for r in slots]`` for t' = 0, 1, ..., t; every r <= q.

    Each column ``S(r, t')`` for r <= q is one packed integer, slot r at
    bits ``r*w`` and up (Kronecker substitution).  Column t' + 1 sums
    S(r - x**2, t') over |x| <= sqrt(r): the x = 0 term is the column
    itself, and the pair +/-x is the column shifted up by x**2 slots and
    doubled.  Slots past q are masked off.  The width w bounds S(r, t')
    at every r <= q and t' <= t, so the sweep at (q, t) serves every
    smaller cell from its slots.  The budget is on q*t: past
    ``memo_limit`` the first step raises :class:`BudgetExceeded` before
    anything else is computed, and a negative ``memo_limit`` is a
    ValueError there.
    """
    _check_memo_limit(memo_limit)
    if q * t > memo_limit:
        # No q*t in the message: past 4,300 digits str() of it raises.
        raise BudgetExceeded(f"q*t exceeds memo limit {memo_limit}")
    m = isqrt(q)
    # No slot r <= q carries into the next.  Every x counted in S(r, t')
    # with t' <= t lies in [-m, m]**t', and as |x_i| <= x_i**2 it has
    # sum |x_i| <= q: at most C(t, j) supports of size j, 2**j signs and
    # C(q, j) positive parts summing to at most q, and by Vandermonde
    # sum_j C(t, j) C(q, j) = C(q + t, q).  So
    #     S(r, t') <= min((2m + 1)**t, 2**min(q, t) * C(q + t, q)),
    # the first bound the smaller for large q, the second for large t, and
    # both are below 2**w: the first is at most 2**(t * bit_length(2m + 1))
    # and the second is below 2**(its bit length).  Each sum below adds
    # only non-negative terms of one S(r, t' + 1), so no partial sum in
    # such a slot exceeds that bound either.  Slots past q may overflow,
    # but carries only move up and the mask drops them.
    w = 1 + min(
        t * (2 * m + 1).bit_length(), (comb(q + t, q) << min(q, t)).bit_length()
    )
    slot = (1 << w) - 1
    keep = (1 << ((q + 1) * w)) - 1
    row = 1  # S(0, 0) = 1, every other S(r, 0) = 0
    yield [row >> r * w & slot for r in slots]
    for _ in range(t):
        row = (row + sum(row << (x * x * w + 1) for x in range(1, m + 1))) & keep
        yield [row >> r * w & slot for r in slots]


def sos_count(q: int, t: int, *, memo_limit: int = DEFAULT_MEMO_LIMIT) -> SosResult:
    """S(q, t) by the recurrence S(q, t) = sum over |x| <= sqrt(q) of
    S(q - x**2, t - 1), grown column by column in t (:func:`_columns`).

    Past ``memo_limit`` on q*t the call is refused with
    :class:`BudgetExceeded`.
    """
    _check_args(q, t)
    for (count,) in _columns(q, t, memo_limit, [q]):
        pass
    return SosResult(q, t, count)


def sos_bruteforce(
    q: int, t: int, *, scan_limit: int = DEFAULT_SCAN_LIMIT
) -> SosResult:
    """S(q, t) by scanning every x in [-isqrt(q), isqrt(q)]**t.

    An independent oracle for :func:`sos_count`; refuses scans larger than
    ``scan_limit`` points.
    """
    _check_args(q, t)
    m = isqrt(q)
    # For m >= 1, (2m + 1)**t > 2**t, which exceeds scan_limit once t
    # passes its bit length: refuse a long scan without building the power.
    if (m and t > scan_limit.bit_length()) or (2 * m + 1) ** t > scan_limit:
        raise BudgetExceeded(
            f"({2 * m + 1})**{t} points exceed scan limit {scan_limit}"
        )

    def scan(remaining: int, residual: int) -> int:
        if residual == 0:
            return 1  # only zeros remain
        if remaining == 0:
            return 0
        total = scan(remaining - 1, residual)  # x = 0
        for x in range(1, m + 1):
            if x * x > residual:
                break
            total += 2 * scan(remaining - 1, residual - x * x)
        return total

    return SosResult(q, t, scan(t, q))


@dataclass(frozen=True)
class BoundsReport:
    """S(q, t) against its sandwich: C(t,q)*2**q below, C(t,q)*S(q,q) and
    C(t,q)*(2*sqrt(q)+1)**q above.  ``upper_value`` is the exact floor of
    the irrational bound; since S is an integer, S <= floor(bound) is
    equivalent to S <= bound, so all comparisons are integer-exact.
    """

    q: int
    t: int
    count: int
    lower: int
    upper_subset: int
    upper_value: int
    ok: bool


def _surd_power(q: int) -> tuple[int, int]:
    """(a, b) with (2*sqrt(q) + 1)**q = a + b*sqrt(q), by the binomial
    expansion: even powers of 2*sqrt(q) go to a, odd ones to b."""
    a = sum(comb(q, j) * (1 << j) * q ** (j // 2) for j in range(0, q + 1, 2))
    b = sum(comb(q, j) * (1 << j) * q ** (j // 2) for j in range(1, q + 1, 2))
    return a, b


def _bounds_reports(
    qs: Iterable[int], ts: Iterable[int], memo_limit: int = DEFAULT_MEMO_LIMIT
) -> Iterator[tuple[int, int, int, int, int, int, bool]]:
    """The fields of :class:`BoundsReport`, as a tuple, for each distinct q
    in ``qs`` and each distinct t >= q in ``ts``: q-major, both ascending.

    One pass of the recurrence, at the largest q up to the largest t,
    serves every cell: its slot q at column t is S(q, t), and at column q
    the diagonal S(q, q).  (2*sqrt(q) + 1)**q is expanded once per q, and
    binomials and surd floors are computed only at the requested cells.
    Past ``memo_limit`` the first step raises :class:`BudgetExceeded`
    before any column is built.
    """
    qs = sorted(set(qs))
    ts = sorted(set(ts))
    keep = set(qs) | set(ts)
    columns = {
        t: column
        for t, column in enumerate(
            _columns(max(qs, default=0), max(ts, default=0), memo_limit, qs)
        )
        if t in keep
    }
    for i, q in enumerate(qs):
        cells = [t for t in ts if t >= q]
        if not cells:
            break
        diagonal = columns[q][i]
        a, b = _surd_power(q)
        bbq = b * b * q
        for t in cells:
            count = columns[t][i]
            c = comb(t, q)
            lower = c << q
            upper_subset = c * diagonal
            upper_value = c * a + isqrt(c * c * bbq)
            ok = lower <= count <= upper_subset and count <= upper_value
            yield q, t, count, lower, upper_subset, upper_value, ok


def check_bounds(
    q: int, t: int, *, memo_limit: int = DEFAULT_MEMO_LIMIT
) -> BoundsReport:
    """Evaluate the sandwich on S(q, t); requires t >= q."""
    _check_args(q, t)
    if t < q:
        raise PreconditionViolated(f"bounds need t >= q, got t={t} < q={q}")
    (fields,) = _bounds_reports([q], [t], memo_limit)
    return BoundsReport(*fields)


def f_upper_bound(
    n: int,
    k: int,
    *,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
    check_enumerable: bool = True,
) -> int:
    """S(4**(k-1), C(n, k)): an upper bound on the k-function count F(n, k).

    Every k-function's spectrum is an integer vector x on the C(n, k)
    level-k masks with sum x**2 = 4**(k-1), and distinct functions give
    distinct vectors.  When F(n, k) is itself enumerable (n <= 4) the
    inequality is re-checked against the enumerator unless
    ``check_enumerable`` is disabled.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    _check_memo_limit(memo_limit)
    # q = 4**(k-1) alone is over the limit; refuse a huge k before 4**(k-1).
    if k - 1 > memo_limit.bit_length() or 4 ** (k - 1) > memo_limit:
        raise BudgetExceeded(f"q = 4**{k - 1} exceeds memo limit {memo_limit}")
    bound = sos_count(4 ** (k - 1), comb(n, k), memo_limit=memo_limit).count
    if check_enumerable and n <= 4:
        from .kfunctions import enumerate_truth_tables

        f_exact = sum(1 for _ in enumerate_truth_tables(n, k))
        if f_exact > bound:
            raise VerificationFailed(
                f"enumerated F({n},{k}) = {f_exact} exceeds bound {bound}"
            )
    return bound
