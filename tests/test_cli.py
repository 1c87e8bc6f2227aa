import json
import random
import time
from importlib import resources

import numpy as np
import pytest

import cubestable as cs
from cubestable import _util, cli, core, kfunctions, serialize


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_function(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.function_to_json(obj)) + "\n")
    return str(path)


def test_enumerate_jsonl_matches_library(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--k", "1", "--emit", "jsonl"])
    assert code == 0
    got = [serialize.function_from_json(json.loads(line)) for line in out.splitlines()]
    assert got == list(cs.enumerate_truth_tables(3, 1))


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "3", "--k", "1"])
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 1, "method": "table", "F": "6"}


def test_enumerate_methods_agree(capsys):
    code, table_out, _ = run(capsys, ["enumerate", "--n", "4", "--k", "2"])
    assert code == 0
    code, spectral_out, _ = run(
        capsys, ["enumerate", "--n", "4", "--k", "2", "--method", "spectral"]
    )
    assert code == 0
    assert json.loads(table_out)["F"] == json.loads(spectral_out)["F"]


def test_enumerate_thread_budget_is_invisible(capsys, monkeypatch):
    argv = ["enumerate", "--n", "4", "--k", "2", "--emit", "jsonl"]
    outs = []
    for cpus in (1, 4):
        monkeypatch.setattr(_util.os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    for flag in ("--threads", "2"), ("--allow-large",):
        code, out, _ = run(capsys, argv + list(flag))
        assert (code, out) == (2, "")


def test_threads_env_default(capsys, monkeypatch):
    # The scan's default is one worker per CPU; the former CUBESTABLE_THREADS
    # variable moves neither the worker count nor the output.
    monkeypatch.setattr(_util.os, "cpu_count", lambda: 4)
    outs = []
    for env in ("1", "8"):
        monkeypatch.setenv("CUBESTABLE_THREADS", env)
        assert _util.worker_cap(None) == 4
        code, out, _ = run(capsys, ["table", "--n-max", "3"])
        assert code == 0
        outs.append(out)
    monkeypatch.setattr(_util.os, "cpu_count", lambda: 1)
    code, out, _ = run(capsys, ["table", "--n-max", "3"])
    assert code == 0
    outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "2"])
    assert code == 0
    assert out == cs.count_table_csv(cs.count_table(2))


def test_table_n5_matches_golden(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "5"])
    assert code == 0
    golden = resources.files("cubestable").joinpath("data/count_table_n5.csv")
    assert out == golden.read_text(encoding="ascii")


def test_table_n6_matches_golden(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "6"])
    assert code == 0
    golden = resources.files("cubestable").joinpath("data/count_table_n6.csv")
    assert out == golden.read_text(encoding="ascii")


def test_table_refuses_n7_before_counting(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(kfunctions, "_count_cell", unreachable)
    code, out, err = run(capsys, ["table", "--n-max", "7"])
    assert (code, out) == (2, "")
    assert "n_max <= 6" in err


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "1", "--out", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == [
        {"n": 0, "k": 0, "F": "2", "G": "1", "method": "truth_table"},
        {"n": 1, "k": 0, "F": "2", "G": "1", "method": "truth_table"},
        {"n": 1, "k": 1, "F": "2", "G": "1", "method": "truth_table"},
    ]


def test_canon(capsys, tmp_path):
    f = cs.TruthTable.dictator(3, 2)
    path = write_function(tmp_path, "f.json", f)
    code, out, _ = run(capsys, ["canon", "--f", path])
    assert code == 0
    doc = json.loads(out)
    rep, _ = cs.canonical_form(f)
    assert doc["canonical"] == serialize.function_to_json(rep)
    witness = serialize.witness_from_json(doc["witness"])
    assert cs.apply(witness, f) == rep


def test_isomorphic_true_with_witness(capsys, tmp_path):
    f = cs.TruthTable.dictator(4, 1)
    g = cs.TruthTable.dictator(4, 3)
    pf = write_function(tmp_path, "f.json", f)
    pg = write_function(tmp_path, "g.json", g)
    code, out, _ = run(capsys, ["isomorphic", "--f", pf, "--g", pg])
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    witness = serialize.witness_from_json(doc["witness"])
    assert cs.apply(witness, g) == f


def test_isomorphic_false(capsys, tmp_path, two_function_q4):
    pf = write_function(tmp_path, "f.json", cs.TruthTable.character(4, 0b0011))
    pg = write_function(tmp_path, "g.json", two_function_q4)
    code, out, _ = run(capsys, ["isomorphic", "--f", pf, "--g", pg])
    assert code == 0
    assert json.loads(out) == {"isomorphic": False, "witness": None}


def test_isomorphic_pads_dimensions(capsys, tmp_path):
    pf = write_function(tmp_path, "f.json", cs.TruthTable.dictator(2, 1))
    pg = write_function(tmp_path, "g.json", cs.TruthTable.dictator(4, 4))
    code, out, _ = run(capsys, ["isomorphic", "--f", pf, "--g", pg])
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_canon_and_isomorphic_refuse_large_n_before_densifying(capsys, tmp_path):
    # Densifying x_1 on Q_26 would take seconds and more than 1 GB.
    doc = {"n": 26, "encoding": "sparse", "terms": [{"vars": [1], "num": 1, "log2_den": 0}]}
    big = tmp_path / "x1_q26.json"
    big.write_text(json.dumps(doc) + "\n")
    small = write_function(tmp_path, "f.json", cs.TruthTable.dictator(3, 1))
    for argv in (
        ["canon", "--f", str(big)],
        ["isomorphic", "--f", small, "--g", str(big)],
        ["isomorphic", "--f", str(big), "--g", small],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "DimensionTooLarge",
            "message": "canonical_form scans 2**(n+1) n! maps; n=26 exceeds 7",
        }


def test_scenery_refuses_large_n_before_densifying(capsys, tmp_path, monkeypatch):
    # Densifying x_1 on Q_26 would take seconds and more than 1 GB; on
    # Q_(2**64) even the count of 2**n vertex-word cells would not fit.
    small = write_function(tmp_path, "f.json", cs.TruthTable.dictator(3, 1))

    def refuse(*args):
        raise AssertionError("spectrum_from_sparse called")

    monkeypatch.setattr(cli, "spectrum_from_sparse", refuse)
    for n in (26, 2**64):
        doc = {"n": n, "encoding": "sparse", "terms": [{"vars": [1], "num": 1, "log2_den": 0}]}
        big = tmp_path / f"x1_q{n}.json"
        big.write_text(json.dumps(doc) + "\n")
        for argv in (
            ["scenery", "--f", str(big), "--steps", "1"],
            ["scenery", "--f", small, "--steps", "1", "--compare", str(big)],
        ):
            code, out, err = run(capsys, argv)
            assert code == 3 and out == ""
            assert json.loads(err) == {
                "error": "BudgetExceeded",
                "message": f"2**{n} vertices x 2**2 words exceeds the 1048576-cell ceiling",
            }


def test_construct_lemma7(capsys, tmp_path):
    x1 = cs.SparsePolynomial.variable(1)
    x2 = cs.SparsePolynomial.variable(2)
    pf = write_function(tmp_path, "f.json", x1)
    pg = write_function(tmp_path, "g.json", x2)
    code, out, _ = run(
        capsys, ["construct", "--recipe", "lemma7", "--f", pf, "--g", pg, "--verify"]
    )
    assert code == 0
    first, second = out.splitlines()
    assert serialize.function_from_json(json.loads(first)).terms == cs.lift_pair(x1, x2).terms
    cert = json.loads(second)
    assert cert == {
        "check": "spectral-level", "ok": True, "k": 2, "terms": 4, "relevant": 4,
    }


def test_construct_verify_failure_exits_1(capsys, tmp_path, monkeypatch):
    # A certificate that fails: the function and the certificate still
    # reach stdout, then one JSON error line on stderr and exit code 1.
    failed = {"check": "spectral-level", "ok": False, "k": None, "terms": 4, "relevant": 4}
    monkeypatch.setattr(cli, "_spectral_certificate", lambda h: dict(failed))
    x1 = cs.SparsePolynomial.variable(1)
    x2 = cs.SparsePolynomial.variable(2)
    pf = write_function(tmp_path, "f.json", x1)
    pg = write_function(tmp_path, "g.json", x2)
    code, out, err = run(
        capsys, ["construct", "--recipe", "lemma7", "--f", pf, "--g", pg, "--verify"]
    )
    assert code == 1
    first, second = out.splitlines()
    assert serialize.function_from_json(json.loads(first)).terms == cs.lift_pair(x1, x2).terms
    assert json.loads(second) == failed
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "error": "VerificationFailed",
        "message": "constructed function failed validation",
    }


def independent_certificate(h: cs.TruthTable) -> dict:
    """The spectral-level certificate from h's table alone: a WHT taken one
    tensor axis at a time, and relevance by flipping each coordinate."""
    signs = np.array(h.values())
    a = signs.reshape((2,) * h.n)
    for axis in range(h.n):
        lo, hi = a.take([0], axis), a.take([1], axis)
        a = np.concatenate([lo + hi, lo - hi], axis=axis)
    coeffs = a.reshape(-1)
    support = np.flatnonzero(coeffs).tolist()
    levels = {m.bit_count() for m in support}
    vertices = np.arange(1 << h.n)
    relevant = sum(
        bool((signs != signs[vertices ^ (1 << j)]).any()) for j in range(h.n)
    )
    ok = len(levels) == 1 and int((coeffs * coeffs).sum()) == 4**h.n
    return {
        "check": "spectral-level",
        "ok": ok,
        "k": levels.pop() if len(levels) == 1 else None,
        "terms": len(support),
        "relevant": relevant,
    }


def test_construct_lemma7_verify_on_q16(capsys, tmp_path):
    # 2-functions on Q_5 with four relevant variables, padded to Q_14.
    twos = [
        f for f in cs.enumerate_spectral(5, 2) if len(cs.relevant_indices(cs.wht(f))) == 4
    ]
    pf = write_function(tmp_path, "f.json", cs.pad_to(twos[0], 14))
    pg = write_function(tmp_path, "g.json", cs.pad_to(twos[-1], 14))
    code, out, _ = run(
        capsys, ["construct", "--recipe", "lemma7", "--f", pf, "--g", pg, "--verify"]
    )
    assert code == 0
    first, second = out.splitlines()
    h = serialize.function_from_json(json.loads(first))
    assert isinstance(h, cs.TruthTable) and h.n == 16
    cert = json.loads(second)
    assert cert == independent_certificate(h)
    assert cert["ok"] is True and cert["k"] == 3 == cs.uniform_flip_count(h)


@pytest.mark.parametrize("n", (14, 16, 18))
def test_lift_and_certificate_on_the_restriction(n, scatter):
    # lift_pair checks f, g and h by flip counts on their restrictions, and
    # the certificate transforms h's restriction; both against h's full
    # table.  The inputs are Q_4 and Q_5 k-functions, padded to Q_{n-2} and
    # scattered.
    rng = random.Random(n)
    for k in (1, 2, 3):
        pool = list(cs.enumerate_spectral(4, k)) + list(cs.enumerate_spectral(5, k))[:40]
        for _ in range(2):
            h = cs.lift_pair(*(scatter(rng.choice(pool), n - 2, rng) for _ in range(2)))
            assert kfunctions._uniform_flips(h.bits, n) == k + 1
            assert cli._spectral_certificate(h) == independent_certificate(h)


def full_scan_certificate(h: cs.TruthTable) -> dict:
    """The reference route for a table's certificate: the butterfly over all
    n coordinates of h's +/-1 values, not skipping the constant ones as
    ``wht`` does, and one scan of all 2**n coefficients, with the masks
    themselves."""
    a = 1 - 2 * core._unpack(h.bits, h.n).astype(np.int64)
    core._butterfly(a)
    masks = np.flatnonzero(a)
    levels = frozenset(np.flatnonzero(np.bincount(np.bitwise_count(masks))).tolist())
    return {
        "check": "spectral-level",
        "ok": len(levels) == 1,
        "k": next(iter(levels)) if len(levels) == 1 else None,
        "terms": len(masks),
        "relevant": int(np.bitwise_or.reduce(masks)).bit_count(),
    }


def test_certificate_scan_within_the_relevant_coordinates():
    rng = random.Random(21)
    twos = list(cs.enumerate_spectral(5, 2))
    small = [twos[7], cs.complement(twos[99]), cs.TruthTable(5, rng.getrandbits(32))]
    small.append(cs.TruthTable(4, rng.getrandbits(16)))
    tables = []
    for n in range(10, 19, 2):
        # Padded: the relevant coordinates are spread over Q_n by a random
        # signed automorphism, so they are not the lowest ones.
        for f in small:
            g = cs.pad_to(f, n)
            perm = list(range(n))
            rng.shuffle(perm)
            a = cs.SignedAutomorphism(n, 1, rng.getrandbits(n), tuple(perm))
            tables.append(cs.apply(a, g))
        pair = cs.pad_to(twos[3], n - 2), cs.pad_to(twos[40], n - 2)
        tables.append(cs.lift_pair(*pair))
    # Tables that depend on every coordinate: random, and the full parity.
    for n in (10, 12, 14):
        tables.append(cs.TruthTable(n, rng.getrandbits(1 << n)))
        tables.append(cs.TruthTable.character(n, (1 << n) - 1))
    tables += [cs.TruthTable.constant(12, 1), cs.TruthTable.constant(3, -1)]
    for h in tables:
        cert = cli._spectral_certificate(h)
        assert json.dumps(cert) == json.dumps(full_scan_certificate(h)), h.n
    assert {cli._spectral_certificate(h)["ok"] for h in tables} == {True, False}


def test_construct_uncoverable4(capsys):
    code, out, _ = run(capsys, ["construct", "--recipe", "uncoverable4", "--verify"])
    assert code == 0
    doc, cert = (json.loads(line) for line in out.splitlines())
    assert len(doc["terms"]) == 64
    assert cert["ok"] is True
    assert cert["k"] == 4
    assert cert["relevant"] == 16
    assert cert["cover2"] is None


def test_construct_max_relevant(capsys):
    code, out, _ = run(
        capsys, ["construct", "--recipe", "max-relevant", "--k", "3", "--verify"]
    )
    assert code == 0
    _, cert = (json.loads(line) for line in out.splitlines())
    assert (cert["k"], cert["terms"], cert["relevant"]) == (3, 16, 10)


def test_construct_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["construct", "--recipe", "lemma7"])
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"
    code, _, err = run(capsys, ["construct", "--recipe", "max-relevant"])
    assert code == 2


def test_sos_count(capsys):
    code, out, _ = run(capsys, ["sos", "--q", "0", "--t", "7"])
    assert code == 0
    assert json.loads(out) == {"q": 0, "t": 7, "count": "1"}
    code, out, _ = run(capsys, ["sos", "--q", "4", "--t", "6"])
    assert json.loads(out)["count"] == "252"


def test_sos_check_bounds(capsys):
    code, out, _ = run(capsys, ["sos", "--q", "4", "--t", "6", "--check-bounds"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert (doc["lower"], doc["count"], doc["upper_subset"]) == ("240", "252", "360")


def test_sos_f_bound(capsys):
    code, out, _ = run(capsys, ["sos", "--f-bound", "--n", "4", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {"n": 4, "k": 2, "bound": "252"}


def test_sos_usage_error(capsys):
    code, _, err = run(capsys, ["sos", "--q", "3"])
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_scenery_compare(capsys, tmp_path, two_function_q4):
    pf = write_function(tmp_path, "f.json", two_function_q4)
    pg = write_function(tmp_path, "g.json", cs.TruthTable.dictator(4, 1))
    code, out, _ = run(capsys, ["scenery", "--f", pf, "--steps", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 2
    assert doc["probs"]["+++"] == "1/8"
    code, out, _ = run(
        capsys, ["scenery", "--f", pf, "--steps", "2", "--compare", pg]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is False
    assert doc["compare_probs"]["+++"] == "9/32"
    # two distinct 2-functions share the law exactly
    other = cs.lift_pair(cs.TruthTable.dictator(2, 2), cs.TruthTable.dictator(2, 1))
    ph = write_function(tmp_path, "h.json", other)
    code, out, _ = run(capsys, ["scenery", "--f", pf, "--steps", "2", "--compare", ph])
    assert json.loads(out)["equal"] is True


def test_scenery_compare_on_q5(capsys, tmp_path):
    ones = list(cs.enumerate_spectral(5, 1))
    twos = list(cs.enumerate_spectral(5, 2))
    files = {
        "a": write_function(tmp_path, "a.json", twos[0]),
        "b": write_function(tmp_path, "b.json", twos[-1]),
        "one": write_function(tmp_path, "one.json", ones[0]),
        # The full parities of Q_4 and Q_5 read the same words with the
        # same probabilities; only n tells their laws apart.
        "p4": write_function(tmp_path, "p4.json", cs.TruthTable.character(4, 0b1111)),
        "p5": write_function(tmp_path, "p5.json", cs.TruthTable.character(5, 0b11111)),
    }
    for f, g, equal in [("a", "b", True), ("one", "a", False), ("p4", "p5", False)]:
        code, out, _ = run(
            capsys, ["scenery", "--f", files[f], "--steps", "6", "--compare", files[g]]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is equal, (f, g)
    assert doc["probs"] == doc["compare_probs"] == {"+-+-+-+": "1/2", "-+-+-+-": "1/2"}


def test_scenery_compare_prints_canonical_json(capsys, tmp_path):
    # x_1 declared on Q_3 is the dictator on Q_3, a 1-function like x_2.
    sparse = tmp_path / "x1.json"
    term = {"vars": [1], "num": 1, "log2_den": 0}
    sparse.write_text(json.dumps({"n": 3, "encoding": "sparse", "terms": [term]}) + "\n")
    twos = list(cs.enumerate_spectral(4, 2))
    tables = {
        "x1": cs.TruthTable.dictator(3, 1),
        "x2": cs.TruthTable.dictator(3, 2),
        "parity": cs.TruthTable.character(3, 0b111),
        "a": twos[0],
        "b": twos[-1],
        "one": cs.TruthTable.dictator(4, 3),
    }
    files = {
        name: write_function(tmp_path, f"{name}.json", f) for name, f in tables.items()
    }
    files["x1"] = str(sparse)

    def probs(name, L):
        law = cs.exact_scenery(tables[name], L)
        return {
            serialize.word_to_str(w): f"{p.numerator}/{p.denominator}"
            for w, p in law.probs.items()
        }

    cases = [
        ("a", "b", 3, True),
        ("one", "a", 3, False),
        ("x2", "x1", 4, True),
        ("parity", "x1", 4, False),
        ("x1", "x2", 0, True),
    ]
    for f, g, L, equal in cases:
        code, out, _ = run(
            capsys, ["scenery", "--f", files[f], "--steps", str(L), "--compare", files[g]]
        )
        assert code == 0
        want = {"L": L, "probs": probs(f, L), "compare_probs": probs(g, L), "equal": equal}
        assert out == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


def test_sparse_file_keeps_its_declared_n(capsys, tmp_path):
    # x_1 declared on Q_3 is the dictator on Q_3, not a function on Q_1.
    doc = {
        "n": 3,
        "encoding": "sparse",
        "terms": [{"vars": [1], "num": 1, "log2_den": 0}],
    }
    sparse = tmp_path / "x1.json"
    sparse.write_text(json.dumps(doc) + "\n")
    dense = write_function(tmp_path, "d.json", cs.TruthTable.dictator(3, 1))
    code, out, _ = run(capsys, ["scenery", "--f", str(sparse), "--steps", "1"])
    assert code == 0
    assert json.loads(out)["probs"]["+-"] == "1/6"
    assert run(capsys, ["scenery", "--f", dense, "--steps", "1"])[1] == out
    code, out, _ = run(capsys, ["canon", "--f", str(sparse)])
    assert code == 0
    assert json.loads(out)["canonical"]["n"] == 3


def test_budget_exit_codes(capsys, tmp_path, two_function_q4):
    pf = write_function(tmp_path, "f.json", two_function_q4)
    code, _, err = run(capsys, ["scenery", "--f", pf, "--steps", "13"])
    assert code == 3
    assert json.loads(err)["error"] == "BudgetExceeded"
    code, _, err = run(
        capsys,
        ["enumerate", "--n", "4", "--k", "2", "--method", "spectral",
         "--budget-nodes", "5"],
    )
    assert code == 3


def test_spectral_search_deeper_than_the_recursion_limit(capsys):
    # C(14, 7) = 3432 masks, more than Python's default recursion limit:
    # the search prints the one parity within its budget, then exits 3.
    code, out, err = run(
        capsys,
        ["enumerate", "--n", "14", "--k", "7", "--method", "spectral",
         "--budget-nodes", "5000", "--emit", "jsonl"],
    )
    assert code == 3
    assert json.loads(err)["error"] == "SearchBudgetExceeded"
    (line,) = out.splitlines()
    parity = cs.TruthTable.character(14, 0b1111111)
    assert serialize.function_from_json(json.loads(line)) == parity


def test_input_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, ["enumerate", "--n", "9", "--k", "1"])
    assert code == 2
    assert json.loads(err)["error"] == "DimensionTooLarge"
    code, _, err = run(
        capsys,
        ["enumerate", "--n", "27", "--k", "1", "--method", "spectral",
         "--budget-nodes", "1"],
    )
    assert code == 2
    assert json.loads(err)["error"] == "DimensionTooLarge"
    code, _, err = run(
        capsys,
        ["canon", "--f", write_function(tmp_path, "q8.json", cs.TruthTable(8, 0))],
    )
    assert code == 2
    assert json.loads(err)["error"] == "DimensionTooLarge"
    code, _, err = run(capsys, ["canon", "--f", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["canon", "--f", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"
    # 1.5 * x_1 must not be truncated to x_1.
    bad.write_text(json.dumps({"encoding": "sparse", "n": 1, "terms": [
        {"vars": [1], "num": 1.5, "log2_den": 0}]}))
    code, _, err = run(capsys, ["canon", "--f", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"
    # Refused from k alone, before 4**(k-1) or C(n, k) is computed.
    start = time.perf_counter()
    code, _, err = run(
        capsys, ["sos", "--f-bound", "--n", "1000000", "--k", "500000"]
    )
    assert code == 3 and time.perf_counter() - start < 1
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (["enumerate", "--n", "3", "--k", "1", "--method", "spectral",
          "--budget-nodes", "-5"], "ValueError", "node budget must be >= 0, got -5"),
        (["sos", "--q", "4", "--t", "3", "--budget-memo", "-1"],
         "ValueError", "memo limit must be >= 0, got -1"),
        (["sos", "--f-bound", "--n", "4", "--k", "2", "--budget-memo", "-1"],
         "ValueError", "memo limit must be >= 0, got -1"),
        (["enumerate", "--n", "-1", "--k", "1", "--method", "spectral"],
         "DimensionTooLarge", None),
        (["enumerate", "--n", "-1", "--k", "0"], "DimensionTooLarge", None),
    ],
)
def test_negative_budgets_and_dimensions_are_usage_errors(capsys, argv, error, message):
    # Exit 2, an input error, not 3 (a budget spent) or a complaint about k.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error"] == error
    if message is not None:
        assert report["message"] == message


def test_usage_exit_code_from_argparse(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_cached_parser_keeps_calls_independent(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["enumerate", "--n", "4"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--k", "2", "--emit", "jsonl"])
    assert code == 0 and len(out.splitlines()) == 36
    # No --emit now: the count line, not the previous call's jsonl.
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {"n": 4, "k": 2, "method": "table", "F": "36"}
    path = write_function(tmp_path, "f.json", cs.TruthTable(5, 0x9C3A_61F0))
    first = run(capsys, ["canon", "--f", path])
    assert first[0] == 0 and run(capsys, ["canon", "--f", path]) == first
