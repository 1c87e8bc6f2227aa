"""The self-check suite behind the ``verify`` CLI subcommand.

Twelve checks, each a single JSON line {"criterion", "name", "status",
"detail"}.  Criteria 1..11 run twice, with criterion 1's sweep over all
tables of Q_4 under worker budgets 1 and 8, and the final criterion
compares the two renders byte for byte.  Wall-clock ceilings are enforced
on the three slow checks but timings are only ever printed on failure,
keeping the pass output deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable

import numpy as np

from ._util import parallel_map
from .constructions import (
    complement,
    cover_check,
    lift_pair,
    max_relevant_construct,
    uncoverable4,
)
from .core import (
    TruthTable,
    _butterfly,
    _sparse_numerators,
    _unpack,
    indices_from_mask,
)
from .group import group_order
from .kfunctions import (
    CountRecord,
    _count_cell,
    _uniform_flips,
    count_table_csv,
    enumerate_truth_tables,
    uniform_flip_count,
)
from .scenery import (
    _exact_sceneries,
    distributions_equal,
    exact_scenery,
    markov_scenery,
)
from .serialize import dumps
from .sos import _bounds_reports, f_upper_bound, sos_bruteforce, sos_count

GOLDEN_TABLE_RESOURCE = "data/count_table_n4.csv"

#: Wall-clock ceilings (seconds) for the slow criteria.
_TIME_LIMITS = {1: 5.0, 6: 1.0, 10: 10.0}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str


def render_line(r: CriterionResult) -> str:
    return dumps(
        {
            "criterion": r.number,
            "name": r.name,
            "status": "PASS" if r.ok else "FAIL",
            "detail": r.detail,
        }
    )


class _Context:
    """One pass's shared results, so criteria do not redo each other's work.

    ``kfn`` lists each cell's k-functions once per pass, and ``table``
    builds the count records for n <= 4 from those lists, so a pass runs
    each of the 15 vertex searches once.  A new context starts empty: the
    second pass recomputes everything.

    ``threads`` is the worker budget of criterion 1's sweep over all tables
    of Q_4, the one parallel step of a pass.
    """

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.threads = threads
        self._kfn: dict[tuple[int, int], list[TruthTable]] = {}
        self._table: list[CountRecord] | None = None

    def kfn(self, n: int, k: int) -> list[TruthTable]:
        if (n, k) not in self._kfn:
            self._kfn[(n, k)] = list(enumerate_truth_tables(n, k))
        return self._kfn[(n, k)]

    def table(self) -> list[CountRecord]:
        """``count_table(4)``, from this pass's cells."""
        if self._table is None:
            self._table = [
                _count_cell(n, k, [f.bits for f in self.kfn(n, k)])
                for n in range(5)
                for k in range(n + 1)
            ]
        return self._table


def _c1_equivalence(ctx: _Context) -> tuple[bool, str]:
    total = 1 << 16
    # Eight pieces: half the pool hand-offs of 2**12 tables, which the
    # pooled pass repays, though a piece's freed 128 KiB arrays pass
    # glibc's trim threshold, so each sweep faults in about 512 pages.
    piece = 1 << 13
    # Bit S of outside[k] is set iff the mask S lies off level k.
    outside = [
        np.uint16(sum(1 << S for S in range(16) if S.bit_count() != k))
        for k in range(5)
    ]

    def scan(lo: int) -> int:
        tables = np.arange(lo, lo + piece, dtype=np.uint64)
        # Spectral route: one butterfly over the whole piece in int8, which
        # holds every value of a +/-1 butterfly on Q_4 (at most 2**4), so
        # each array is at most 128 KiB.  Each table's support becomes a
        # 16-bit mask, and the level k that holds it gives the route's
        # answer, or -1.
        spectra = _unpack(tables, 4).view(np.int8)
        spectra *= -2
        spectra += 1
        _butterfly(spectra)
        # Packing the flattened rows of 16 gives two bytes per table.
        support = np.packbits(spectra != 0, bitorder="little").view("<u2")
        spectral = np.full(piece, -1)
        for k in range(5):
            spectral[(support & outside[k]) == 0] = k
        # Definitional route: each table's uniform flip count, or -1.
        return int((_uniform_flips(tables, 4) != spectral).sum())

    # The pieces are the one step of a pass that runs on ``ctx.threads``.
    mismatches = sum(parallel_map(scan, range(0, total, piece), ctx.threads))
    if mismatches:
        return False, f"{mismatches} of 65536 tables disagree between routes"
    return True, "all 65536 tables on Q_4 agree for every k in 0..4"


def _c2_boundaries(ctx: _Context) -> tuple[bool, str]:
    bad = []
    for r in ctx.table():
        if r.k in (0, r.n) and (r.F != 2 or r.G != 1):
            bad.append((r.n, r.k, r.F, r.G))
    if bad:
        return False, f"boundary cells off: {bad}"
    return True, "F(n,0)=F(n,n)=2 and G(n,0)=G(n,n)=1 for all n<=4"


def _c3_symmetry(ctx: _Context) -> tuple[bool, str]:
    cells = 0
    for n in range(5):
        for k in range(n + 1):
            left = ctx.kfn(n, k)
            right = ctx.kfn(n, n - k)
            if len(left) != len(right):
                return False, f"F({n},{k})={len(left)} != F({n},{n-k})={len(right)}"
            if {complement(f) for f in left} != set(right):
                return False, f"complement image of ({n},{k}) misses ({n},{n-k})"
            cells += 1
    return True, f"F(n,k)=F(n,n-k) with complement bijection on {cells} cells"


def _c4_sandwich(ctx: _Context) -> tuple[bool, str]:
    for r in ctx.table():
        order = group_order(r.n)
        if not (Fraction(r.F, order) <= r.G <= r.F):
            return False, f"sandwich fails at (n,k)=({r.n},{r.k}): F={r.F}, G={r.G}"
    return True, "F/(2**(n+1) n!) <= G <= F on all 15 records"


def _c5_squaring(ctx: _Context) -> tuple[bool, str]:
    ones = ctx.kfn(2, 1)
    twos = ctx.kfn(4, 2)
    f42, f21 = len(twos), len(ones)
    if f42 < f21 * f21 or f42 < 16:
        return False, f"F(4,2)={f42} below required 16"
    lifted = [lift_pair(f, g) for f in ones for g in ones]
    distinct = len(set(lifted))
    all_two = all(
        isinstance(h, TruthTable) and uniform_flip_count(h) == 2 for h in lifted
    )
    if distinct != 16 or not all_two:
        return False, f"lifts: {distinct}/16 distinct, all 2-functions: {all_two}"
    return True, f"F(4,2)={f42} >= F(2,1)**2 = 16; 16 lifted pairs distinct 2-functions"


def _c6_uncoverable(ctx: _Context) -> tuple[bool, str]:
    h = uncoverable4()
    problems = []
    if len(h.terms) != 64:
        problems.append(f"{len(h.terms)} terms")
    if set(h.terms.values()) != {(1, 3), (-1, 3)}:
        problems.append("coefficients not +/-1/8")
    rel = indices_from_mask(h.relevant_mask())
    if rel != list(range(1, 17)):
        problems.append(f"relevant indices {rel}")
    per_index = {i: sum(1 for m in h.terms if m >> (i - 1) & 1) for i in rel}
    if set(per_index.values()) != {16}:
        problems.append(f"per-index mask counts {sorted(set(per_index.values()))}")
    cover = cover_check(h, 2)
    if cover is not None:
        problems.append(f"2-cover {sorted(cover)} exists")
    if problems:
        return False, "; ".join(problems)
    return True, "64 terms, all +/-1/8, 16 indices in 16 masks each, no 2-cover"


def _draw_46_bits(seed: int, count: int) -> np.ndarray:
    """``[random.Random(seed).getrandbits(46) for _ in range(count)]`` as a
    uint64 array, from one call to the same generator.

    CPython's ``getrandbits(46)`` takes two 32-bit outputs: the first is the
    low word, and the second, shifted right by 18, the high 14 bits.  One
    ``getrandbits(64 * count)`` takes the same 2 * count outputs in order,
    each a whole 32-bit word, least significant first.
    """
    bits = random.Random(seed).getrandbits(64 * count)
    words = np.frombuffer(bits.to_bytes(8 * count, "little"), "<u4").astype(np.uint64)
    return words[0::2] | (words[1::2] >> 18 << 32)


def _c7_max_relevant(ctx: _Context) -> tuple[bool, str]:
    targets = {1: 1, 2: 4, 3: 10, 4: 22, 5: 46}
    for k, want in targets.items():
        p = max_relevant_construct(k)
        rel = p.relevant_mask().bit_count()
        if rel != want:
            return False, f"k={k}: {rel} relevant indices, wanted {want}"
        if len(p.terms) != 4 ** (k - 1) or p.parseval_sum() != 1:
            return False, f"k={k}: support {len(p.terms)}, parseval {p.parseval_sum()}"
    # The loop's last polynomial is k = 5's, already validated above.
    p5 = p
    samples = 10_000
    # Bit j of a point set means x_{j+1} = -1, so the points are uniform on
    # {+/-1}**46; p5's 46 relevant indices must all lie in 1..46.
    points = _draw_46_bits(ctx.seed, samples)
    top, values = _sparse_numerators(p5, points)
    if p5.relevant_mask() >> 46 or not set(values) <= {1 << top, -1 << top}:
        return False, f"non-Boolean value at sampled point (seed {ctx.seed})"
    return True, (
        "relevant counts (1,4,10,22,46); supports 4**(k-1); "
        f"{samples} seeded evaluations at k=5 all +/-1"
    )


def _c8_sos(ctx: _Context) -> tuple[bool, str]:
    agree = 0
    for q in range(9):
        for t in range(7):
            if sos_count(q, t).count != sos_bruteforce(q, t).count:
                return False, f"oracles disagree at (q,t)=({q},{t})"
            agree += 1
    bounds = 0
    # One recurrence pass at q = 16 reports every q <= 16 and t = q..64.
    for q, t, *_, ok in _bounds_reports(range(17), range(65)):
        if not ok:
            return False, f"bounds fail at (q,t)=({q},{t})"
        bounds += 1
    return True, f"oracles agree on {agree} cells; bounds hold on {bounds} cells"


def _c9_upper_bound(ctx: _Context) -> tuple[bool, str]:
    for n in range(1, 5):
        for k in range(1, n + 1):
            f_exact = len(ctx.kfn(n, k))
            bound = f_upper_bound(n, k, check_enumerable=False)
            if f_exact > bound:
                return False, f"F({n},{k})={f_exact} exceeds bound {bound}"
    tight_f = len(ctx.kfn(4, 1))
    tight_s = f_upper_bound(4, 1, check_enumerable=False)
    if not tight_f == tight_s == 8:
        return False, f"(4,1) not tight: F={tight_f}, S={tight_s}"
    return True, "F(n,k) <= S(4**(k-1), C(n,k)) for 1<=k<=n<=4; tight at (4,1)=8"


def _c10_scenery(ctx: _Context) -> tuple[bool, str]:
    twos = ctx.kfn(4, 2)
    ref = markov_scenery(4, 2, 6)
    # One DP over all 36 tables, on their vertices: 36 * 2**4 * 2**7 =
    # 73,728 cells.  exact_scenery's product on the level sets would take
    # the lumping onto them for granted, and that is what this checks.
    same = sum(1 for law in _exact_sceneries(twos, 6) if distributions_equal(law, ref))
    if same != len(twos):
        return False, f"only {same}/{len(twos)} sceneries match the closed form"
    one = exact_scenery(ctx.kfn(4, 1)[0], 2)
    two = exact_scenery(twos[0], 2)
    if distributions_equal(one, two):
        return False, "a 1-function and a 2-function share the L=2 law"
    return True, (
        f"all {len(twos)} 2-functions share the L=6 law = closed form; "
        "1- vs 2-function laws differ at L=2"
    )


def _golden_table_text() -> str:
    return (
        resources.files("cubestable")
        .joinpath(GOLDEN_TABLE_RESOURCE)
        .read_text(encoding="ascii")
    )


def _c11_monotonic_golden(ctx: _Context) -> tuple[bool, str]:
    records = ctx.table()
    g1 = [r.G for r in records if r.k == 1]
    if any(a > b for a, b in zip(g1, g1[1:])):
        return False, f"G(n,1) not non-decreasing: {g1}"
    g0 = {r.G for r in records if r.k == 0}
    if g0 != {1}:
        return False, f"G(n,0) not constant 1: {sorted(g0)}"
    fresh = count_table_csv(records)
    golden = _golden_table_text()
    if fresh != golden:
        return False, "freshly computed table differs from the recorded golden"
    return True, f"G(n,1)={g1} non-decreasing; G(n,0)=1; table matches golden"


_CRITERIA: list[tuple[int, str, Callable[[_Context], tuple[bool, str]]]] = [
    (1, "definitional-spectral equivalence", _c1_equivalence),
    (2, "boundary counts", _c2_boundaries),
    (3, "level symmetry", _c3_symmetry),
    (4, "class-count sandwich", _c4_sandwich),
    (5, "pair-lift squaring", _c5_squaring),
    (6, "uncoverable 4-function", _c6_uncoverable),
    (7, "max-relevant chain", _c7_max_relevant),
    (8, "sum-of-squares oracles and bounds", _c8_sos),
    (9, "count upper bound", _c9_upper_bound),
    (10, "scenery indistinguishability", _c10_scenery),
    (11, "class monotonicity and golden table", _c11_monotonic_golden),
]


def run_criterion(number: int, ctx: _Context) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num != number:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # a crashed criterion is a failed criterion
            return CriterionResult(num, name, False, f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        limit = _TIME_LIMITS.get(num)
        if ok and limit is not None and elapsed > limit:
            ok = False
            detail = f"{detail} (runtime {elapsed:.2f}s exceeds {limit:.0f}s limit)"
        return CriterionResult(num, name, ok, detail)
    raise ValueError(f"no criterion {number}")


def run_criteria(seed: int, threads: int) -> list[CriterionResult]:
    """Criteria 1..11 in order with criterion 1's sweep under one worker
    budget, stopping at the first failure."""
    ctx = _Context(seed, threads)
    results = []
    for num, _, _ in _CRITERIA:
        r = run_criterion(num, ctx)
        results.append(r)
        if not r.ok:
            break
    return results


def run_verify(seed: int) -> tuple[str, int]:
    """The full 12-criterion report and its exit code.

    Criteria 1..11 run with criterion 1's sweep on one worker; if all pass
    they run again with that sweep on up to 8 workers, and criterion 12
    compares the two rendered reports byte for byte.
    """
    first = run_criteria(seed, threads=1)
    lines = [render_line(r) for r in first]
    failed = [r for r in first if not r.ok]
    if not failed:
        second = run_criteria(seed, threads=8)
        identical = [render_line(r) for r in second] == lines
        detail = (
            "reports under worker budgets 1 and 8 are byte-identical"
            if identical
            else "reports differ between worker budgets 1 and 8"
        )
        r12 = CriterionResult(12, "thread determinism", identical, detail)
        lines.append(render_line(r12))
        if not identical:
            failed.append(r12)
    summary = {
        "status": "PASS" if not failed else "FAIL",
        "passed": len([1 for ln in lines if '"status":"PASS"' in ln]),
        "failed": len(failed),
    }
    lines.append(dumps(summary))
    return "\n".join(lines) + "\n", 0 if not failed else 1
