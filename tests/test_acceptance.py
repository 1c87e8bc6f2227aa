"""One test per acceptance criterion, one rendered pass/fail line each.

Criteria 1..11 run through :mod:`cubestable.verify` on a shared context so
enumeration caches are reused; criterion 12 runs the CLI's ``verify`` once,
which itself runs criterion 1's sweep under worker budgets 1 and 8 and
compares the two passes byte for byte.
"""

import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from cubestable import cli, kfunctions, verify
from cubestable.core import SparsePolynomial
from cubestable.verify import _Context, render_line, run_criterion

SEED = 42

#: SHA-256 of the full ``verify --seed 42`` stdout.
VERIFY_SHA256 = "67734fb14c44e2ee6431198f0c9fd1923e9f23ab13322939bb1520ddf20ab2ad"


@pytest.fixture(scope="module")
def ctx():
    return _Context(seed=SEED, threads=1)


def _check(number, ctx):
    result = run_criterion(number, ctx)
    line = render_line(result)
    print(line)
    assert result.ok, line


def test_criterion_01_definitional_spectral_equivalence(ctx):
    _check(1, ctx)


def _skipping_butterfly(a):
    """The butterfly without its first stage (the pairs one entry apart)."""
    h = 2
    while h < a.shape[-1]:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        x[...], y[...] = x + y, x - y
        h *= 2


def _off_by_one_flips(bits, n):
    return kfunctions._uniform_flips(bits, n) + 1


@pytest.mark.parametrize(
    "name, wrong",
    [("_butterfly", _skipping_butterfly), ("_uniform_flips", _off_by_one_flips)],
)
def test_criterion_01_fails_on_a_wrong_route(monkeypatch, name, wrong):
    monkeypatch.setattr(verify, name, wrong)
    result = run_criterion(1, _Context(SEED, threads=1))
    assert not result.ok
    count, rest = result.detail.split(" ", 1)
    assert int(count) > 0 and rest == "of 65536 tables disagree between routes"


def test_criterion_02_boundary_counts(ctx):
    _check(2, ctx)


def test_criterion_03_level_symmetry(ctx):
    _check(3, ctx)


def test_criterion_04_class_count_sandwich(ctx):
    _check(4, ctx)


def test_criterion_05_pair_lift_squaring(ctx):
    _check(5, ctx)


def test_criterion_06_uncoverable_4_function(ctx):
    _check(6, ctx)


def test_criterion_07_max_relevant_chain(ctx):
    _check(7, ctx)


def test_criterion_07_fails_on_a_non_boolean_chain(monkeypatch):
    lines = {render_line(run_criterion(7, _Context(s, threads=1))) for s in (1, 2)}
    assert len(lines) == 1 and '"status":"PASS"' in lines.pop()
    build = verify.max_relevant_construct

    def flipped(k):
        # One sign flip keeps Parseval and the support, but the values are
        # now +/-1 +/- 1/8.
        p = build(k)
        if k < 5:
            return p
        terms = dict(p.terms)
        mask, (num, a) = next(iter(terms.items()))
        terms[mask] = (-num, a)
        return SparsePolynomial(terms)

    monkeypatch.setattr(verify, "max_relevant_construct", flipped)
    result = run_criterion(7, _Context(SEED, threads=1))
    assert not result.ok
    assert f"seed {SEED}" in result.detail


@pytest.mark.parametrize("seed", [0, 42, -5, 2**70])
def test_criterion_07_points_are_the_getrandbits_stream(seed):
    rng = random.Random(seed)
    want = [rng.getrandbits(46) for _ in range(10_000)]
    got = verify._draw_46_bits(seed, 10_000)
    assert got.dtype == np.uint64
    assert got.tolist() == want


def test_one_pass_runs_each_vertex_search_once(monkeypatch):
    calls = Counter()
    search = kfunctions._vertex_search

    def counted(n, k):
        calls[n, k] += 1
        return search(n, k)

    monkeypatch.setattr(kfunctions, "_vertex_search", counted)
    cells = [(n, k) for n in range(5) for k in range(n + 1)]
    ctx = _Context(SEED, threads=1)
    for number, _, _ in verify._CRITERIA:
        assert run_criterion(number, ctx).ok
    assert calls == Counter(cells)
    # Nothing is kept between passes: the next one searches again.
    assert all(r.ok for r in verify.run_criteria(SEED, threads=8))
    assert calls == Counter(cells * 2)
    monkeypatch.undo()
    assert ctx.table() == kfunctions.count_table(4)


def test_criterion_08_sum_of_squares_oracles_and_bounds(ctx):
    _check(8, ctx)


def test_criterion_08_names_the_failing_cell(monkeypatch):
    sweep = verify._bounds_reports
    # The first failure in q-major order is named: (3, 40) before (5, 9).
    for failing, named in [({(5, 9)}, "(5,9)"), ({(5, 9), (3, 40)}, "(3,40)")]:

        def broken(qs, ts):
            for q, t, *bounds, ok in sweep(qs, ts):
                yield q, t, *bounds, ok and (q, t) not in failing

        monkeypatch.setattr(verify, "_bounds_reports", broken)
        result = run_criterion(8, _Context(SEED, threads=1))
        assert not result.ok
        assert f"(q,t)={named}" in result.detail


def test_criterion_09_count_upper_bound(ctx):
    _check(9, ctx)


def test_criterion_10_scenery_indistinguishability(ctx):
    _check(10, ctx)


def test_criterion_11_class_monotonicity_and_golden_table(ctx):
    _check(11, ctx)


def test_criterion_12_thread_determinism(capsys):
    code = cli.main(["verify", "--seed", str(SEED)])
    out = capsys.readouterr().out
    assert code == 0, out
    # The whole report is pinned byte for byte.
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256
    line = out.splitlines()[11]
    print(line)
    assert json.loads(line) == {
        "criterion": 12,
        "name": "thread determinism",
        "status": "PASS",
        "detail": "reports under worker budgets 1 and 8 are byte-identical",
    }
