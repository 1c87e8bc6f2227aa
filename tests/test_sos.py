from math import comb, isqrt

import pytest

import cubestable as cs
from cubestable import sos
from cubestable.errors import BudgetExceeded, PreconditionViolated
from cubestable.sos import BoundsReport, _bounds_reports


def test_small_closed_forms():
    assert cs.sos_count(0, 100).count == 1
    assert cs.sos_count(0, 0).count == 1
    assert cs.sos_count(5, 0).count == 0
    # q = 1: one +/-1 in one of t slots
    for t in range(1, 9):
        assert cs.sos_count(1, t).count == 2 * t
    assert cs.sos_count(2, 2).count == 4
    assert cs.sos_count(9, 1).count == 2
    assert cs.sos_count(3, 2).count == 0
    assert cs.sos_count(4, 6).count == 252


def test_recurrence_matches_bruteforce_grid():
    for q in range(9):
        for t in range(7):
            assert cs.sos_count(q, t).count == cs.sos_bruteforce(q, t).count


def test_monotone_in_t():
    for q in range(6):
        prev = 0
        for t in range(1, 10):
            cur = cs.sos_count(q, t).count
            assert cur >= prev
            prev = cur


def test_argument_validation():
    with pytest.raises(ValueError):
        cs.sos_count(-1, 3)
    with pytest.raises(ValueError):
        cs.sos_bruteforce(2, -1)


def test_budgets():
    with pytest.raises(BudgetExceeded):
        cs.sos_count(1000, 1000, memo_limit=10)
    with pytest.raises(BudgetExceeded):
        # q*t has more than the 4,300 digits str() accepts.
        cs.sos_count(10**4000, 10**400)
    with pytest.raises(BudgetExceeded):
        cs.sos_bruteforce(100, 30)


def test_bruteforce_refuses_a_long_scan_before_counting_its_points():
    # 3**(10**9) has about 1.6e9 bits; the refusal must not build it.
    with pytest.raises(BudgetExceeded, match=r"\(3\)\*\*1000000000 points exceed"):
        cs.sos_bruteforce(1, 10**9)
    limit = sos.DEFAULT_SCAN_LIMIT
    t = limit.bit_length()
    with pytest.raises(BudgetExceeded):
        cs.sos_bruteforce(1, t + 1)
    # Just under the shortcut, the exact comparison still decides.
    assert 3**16 <= limit < 3**17 < 2**t
    assert cs.sos_bruteforce(1, 16).count == 32
    with pytest.raises(BudgetExceeded):
        cs.sos_bruteforce(1, 17)


def test_bruteforce_zero_vector_scan_is_shallow():
    # q = 0 scans the one point 0, however long it is, without recursing
    # once per coordinate.
    assert cs.sos_bruteforce(0, 5000).count == 1 == cs.sos_count(0, 5000).count


def test_negative_memo_limit_is_refused(monkeypatch):
    # Refused before any column, by every entry point, as a bad argument
    # rather than as a budget q*t exceeds.
    monkeypatch.setattr(sos, "comb", None)
    for call in (
        lambda m: cs.sos_count(4, 3, memo_limit=m),
        lambda m: cs.check_bounds(4, 4, memo_limit=m),
        lambda m: cs.f_upper_bound(4, 2, memo_limit=m),
    ):
        for limit in (-1, -10**6):
            with pytest.raises(ValueError, match="memo limit") as info:
                call(limit)
            assert not isinstance(info.value, BudgetExceeded)
    monkeypatch.undo()
    # A limit of 0 keeps its meaning: only q*t = 0 fits.
    assert cs.sos_count(0, 5, memo_limit=0).count == 1
    with pytest.raises(BudgetExceeded):
        cs.sos_count(4, 3, memo_limit=0)


def test_floor_surd_power():
    # upper_value = floor(C(t, q) * (2 sqrt(q) + 1)**q) against float
    # arithmetic where floats are trustworthy, plus hand values at t = q:
    # q=0 -> 1, q=1 -> floor(3) = 3,
    # q=2 -> floor((2 sqrt 2 + 1)^2) = floor(9 + 4 sqrt 2) = 14.
    assert [cs.check_bounds(q, q).upper_value for q in (0, 1, 2)] == [1, 3, 14]
    for q in range(1, 8):
        for t in (q, q + 1):
            exact = cs.check_bounds(q, t).upper_value
            approx = comb(t, q) * (2 * q**0.5 + 1) ** q
            assert abs(exact - approx) < 1e-6 * approx + 1


def test_check_bounds_examples():
    r = cs.check_bounds(1, 5)
    assert (r.lower, r.count, r.upper_subset) == (10, 10, 10)
    assert r.ok
    r = cs.check_bounds(4, 6)
    assert (r.lower, r.count, r.upper_subset) == (240, 252, 360)
    assert r.count <= r.upper_value
    assert r.ok
    r = cs.check_bounds(0, 3)
    assert (r.lower, r.count, r.upper_subset, r.upper_value) == (1, 1, 1, 1)
    assert r.ok


def test_check_bounds_sweep():
    for q in range(17):
        for t in range(q, 65):
            r = cs.check_bounds(q, t)
            assert r.ok, (q, t)
            assert r.lower == comb(t, q) * 2**q
            # S(q, q) read off the one recurrence pass, against its own call.
            assert r.count == cs.sos_count(q, t).count
            assert r.upper_subset == comb(t, q) * cs.sos_count(q, q).count


def _reports(qs, ts, **kwargs):
    return [BoundsReport(*fields) for fields in _bounds_reports(qs, ts, **kwargs)]


def test_bounds_reports_sweep_matches_check_bounds():
    for q in range(17):
        ts = range(q, 65)
        assert _reports([q], ts) == [cs.check_bounds(q, t) for t in ts]
    # Only the requested cells are reported, once each, t >= q, ascending.
    assert [r.t for r in _reports([3], [40, 3, 7, 7])] == [3, 7, 40]
    assert [(r.q, r.t) for r in _reports([5, 3, 5], [40, 4, 3, 1])] == [
        (3, 3), (3, 4), (3, 40), (5, 40)
    ]
    assert _reports([3], []) == []
    assert _reports([], [3]) == []


def test_bounds_reports_budget_before_any_column(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started past the budget")

    # isqrt builds every column after the first, comb every report.
    monkeypatch.setattr("cubestable.sos.isqrt", refuse)
    monkeypatch.setattr("cubestable.sos.comb", refuse)
    with pytest.raises(BudgetExceeded):
        next(_bounds_reports([10], range(10, 101), memo_limit=999))
    # The multi-q sweep's budget is on its largest q times its largest t.
    with pytest.raises(BudgetExceeded):
        next(_bounds_reports(range(17), range(65), memo_limit=16 * 64 - 1))
    with pytest.raises(BudgetExceeded):
        cs.check_bounds(10, 100, memo_limit=999)


def test_check_bounds_precondition():
    with pytest.raises(PreconditionViolated):
        cs.check_bounds(4, 3)


def test_f_upper_bound_values(kfn):
    # S(1, n) = 2n bounds the 1-functions (exactly 2n of them for n <= 4)
    assert cs.f_upper_bound(4, 1) == 8 == len(kfn(4, 1))
    assert cs.f_upper_bound(2, 1) == 4 == len(kfn(2, 1))
    assert cs.f_upper_bound(4, 2) == cs.sos_count(4, 6).count == 252


def test_f_upper_bound_dominates_enumeration(kfn):
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert len(kfn(n, k)) <= cs.f_upper_bound(n, k)


def test_f_upper_bound_validation():
    with pytest.raises(ValueError):
        cs.f_upper_bound(3, 0)
    with pytest.raises(ValueError):
        cs.f_upper_bound(2, 3)


def test_isqrt_edge_in_surd_floor():
    # perfect-square surd parts must not round up
    for q in (4, 9, 16):
        got = cs.check_bounds(q, q).upper_value
        root = isqrt(q)
        assert got == (2 * root + 1) ** q


def _reference_columns(q, t):
    """The list-of-rows recurrence: ``row[r] = S(r, t')`` for t' = 0..t."""
    row = [1] + [0] * q
    yield row
    for _ in range(t):
        row = [
            row[r] + 2 * sum(row[r - x * x] for x in range(1, isqrt(r) + 1))
            for r in range(q + 1)
        ]
        yield row


def _reference_reports(q, t_max):
    """Every report for t = q..t_max, from the reference columns and the
    binomial expansion of (2*sqrt(q) + 1)**q redone at each t."""
    for t, row in enumerate(_reference_columns(q, t_max)):
        if t == q:
            diagonal = row[q]
        if t < q:
            continue
        c = comb(t, q)
        a = sum(comb(q, j) * 2**j * q ** (j // 2) for j in range(0, q + 1, 2))
        b = sum(comb(q, j) * 2**j * q ** (j // 2) for j in range(1, q + 1, 2))
        count, lower, subset = row[q], c * 2**q, c * diagonal
        value = c * a + isqrt(c * b * c * b * q)
        ok = lower <= count <= subset and count <= value
        yield BoundsReport(q, t, count, lower, subset, value, ok)


def test_packed_sweep_matches_reference_recurrence():
    for q in range(41):
        want = [row[q] for row in _reference_columns(q, 40)]
        assert [cs.sos_count(q, t).count for t in range(41)] == want, q
        assert _reports([q], range(q, 41)) == list(_reference_reports(q, 40)), q


@pytest.mark.parametrize("q, t", [(0, 0), (16, 64), (1, 300), (0, 300), (300, 1)])
def test_packed_sweep_matches_reference_at_the_edges(q, t):
    # (16, 64) is c08's largest cell, where slots are fullest; (1, 300) has
    # the widest slots the bound allows next to a single neighbour.
    assert cs.sos_count(q, t).count == list(_reference_columns(q, t))[-1][q]
    if t >= q:
        assert _reports([q], range(q, t + 1)) == list(_reference_reports(q, t))


def test_multi_q_sweep_matches_reference():
    # Every q read from the q = 16 sweep, in slots wider than q's own
    # sweep uses, against the reference at every cell criterion 8 reads.
    want = [r for q in range(17) for r in _reference_reports(q, 64)]
    assert _reports(range(17), range(65)) == want
