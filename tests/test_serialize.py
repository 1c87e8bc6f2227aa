import json
import random
from fractions import Fraction

import numpy as np
import pytest

import cubestable as cs
from cubestable import serialize
from cubestable.core import mask_from_indices
from cubestable.errors import DimensionTooLarge, IndexOverflow
from cubestable.scenery import SceneryDistribution


def test_truth_table_roundtrip():
    rng = random.Random(2)
    for n in (0, 1, 2, 3, 4, 6):
        for _ in range(5):
            f = cs.TruthTable(n, rng.getrandbits(1 << n))
            doc = serialize.function_to_json(f)
            assert doc["encoding"] == "truth_table_hex"
            assert len(doc["truth_table"]) == -(-(1 << n) // 4)
            assert serialize.function_from_json(doc) == f


def test_truth_table_hex_layout(two_function_q4):
    doc = serialize.function_to_json(two_function_q4)
    text = doc["truth_table"]
    # digit i carries vertices 4i..4i+3, least significant first
    bits = two_function_q4.bits
    for i, ch in enumerate(text):
        assert int(ch, 16) == (bits >> (4 * i)) & 0xF


def test_sparse_roundtrip(two_function_q4):
    p = cs.sparse_from_truth_table(two_function_q4)
    doc = serialize.function_to_json(p)
    assert doc["encoding"] == "sparse"
    assert doc["n"] == 4
    assert [t["vars"] for t in doc["terms"]] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    q = serialize.function_from_json(doc)
    assert isinstance(q, cs.SparsePolynomial)
    assert q.terms == p.terms


def test_sparse_terms_sorted_canonically():
    p = cs.max_relevant_construct(3)
    doc = serialize.function_to_json(p)
    vars_ = [tuple(t["vars"]) for t in doc["terms"]]
    assert vars_ == sorted(vars_)


def test_function_from_json_rejects_malformed():
    bad = [
        "not a dict",
        {"encoding": "nope"},
        {"encoding": "truth_table_hex", "n": "2", "truth_table": "f"},
        {"encoding": "truth_table_hex", "n": 2, "truth_table": "ff"},
        {"encoding": "truth_table_hex", "n": 2, "truth_table": "g"},
        {"encoding": "sparse", "terms": "x"},
        {"encoding": "sparse", "terms": [{"vars": [1, 1], "num": 1, "log2_den": 0}]},
        {"encoding": "sparse", "terms": [{"vars": [1], "num": 1}]},
        {
            "encoding": "sparse",
            "terms": [
                {"vars": [1], "num": 1, "log2_den": 0},
                {"vars": [1], "num": -1, "log2_den": 0},
            ],
        },
        {"encoding": "truth_table_hex", "n": True, "truth_table": "1"},
        {"encoding": "truth_table_hex", "n": 2.0, "truth_table": "f"},
    ]
    # Numbers that are not JSON integers, where int() would truncate or
    # coerce them.
    for term in [
        {"vars": [1], "num": 1.5, "log2_den": 0},
        {"vars": [1], "num": 0.5, "log2_den": 0},
        {"vars": [1], "num": 1, "log2_den": 0.9},
        {"vars": [1], "num": "1", "log2_den": 0},
        {"vars": [1], "num": True, "log2_den": 0},
        {"vars": [1.0], "num": 1, "log2_den": 0},
        {"vars": [True], "num": 1, "log2_den": 0},
        {"vars": "1", "num": 1, "log2_den": 0},
    ]:
        bad.append({"encoding": "sparse", "terms": [term]})
    # A sparse n must be a JSON integer covering every variable named.
    term = {"vars": [1, 3], "num": 1, "log2_den": 0}
    for n in ("abc", 2, -1, None):
        bad.append({"encoding": "sparse", "n": n, "terms": [term]})
    for doc in bad:
        with pytest.raises(ValueError):
            serialize.function_from_json(doc)


def test_truth_table_takes_only_ascii_hex_digits():
    # int(text, 16) reads each of these as 0x11: an underscore, padding
    # whitespace, a trailing sign after whitespace, a full-width digit.
    for n, text in ((4, "1_10"), (4, " 11 "), (4, "11+ "), (3, "１1")):
        doc = {"encoding": "truth_table_hex", "n": n, "truth_table": text}
        with pytest.raises(ValueError, match="not valid hex"):
            serialize.function_from_json(doc)
    # Either case is hex; the first digit holds vertices 0..3.
    for text in ("a0C0", "A0c0"):
        doc = {"encoding": "truth_table_hex", "n": 4, "truth_table": text}
        assert serialize.function_from_json(doc) == cs.TruthTable(4, 0x0C0A)


def test_function_from_json_bounds_before_allocating():
    for n in (27, -1):
        doc = {"encoding": "truth_table_hex", "n": n, "truth_table": "0"}
        with pytest.raises(DimensionTooLarge):
            serialize.function_from_json(doc)
    for i in (0, 65):
        with pytest.raises(IndexOverflow):
            mask_from_indices([1, i])
        doc = {"encoding": "sparse", "terms": [{"vars": [i], "num": 1, "log2_den": 0}]}
        with pytest.raises(IndexOverflow):
            serialize.function_from_json(doc)


def test_witness_roundtrip():
    rng = random.Random(4)
    for a in rng.sample(list(cs.group_elements(3)), 20):
        doc = serialize.witness_to_json(a)
        assert sorted(doc["sigma"]) == [1, 2, 3]
        assert len(doc["alpha"]) == 3
        back = serialize.witness_from_json(doc)
        assert back == a


def test_witness_from_json_rejects_malformed():
    good = {"epsilon": 1, "alpha": "010", "sigma": [2, 1, 3]}
    for doc in [
        {},
        {**good, "alpha": "01"},
        {**good, "alpha": "012"},
        {**good, "alpha": 5},
        # Numbers that are not JSON integers, where int() would truncate or
        # coerce them.
        {**good, "epsilon": 1.5},
        {**good, "epsilon": "1"},
        {**good, "epsilon": True},
        {"epsilon": 1, "alpha": "00", "sigma": [1.9, 2.2]},
        {"epsilon": 1, "alpha": "00", "sigma": ["1", "2"]},
        {"epsilon": 1, "alpha": "00", "sigma": "12"},
    ]:
        with pytest.raises(ValueError):
            serialize.witness_from_json(doc)


def test_word_strings():
    assert serialize.word_to_str((1, -1, -1, 1)) == "+--+"
    assert serialize.word_from_str("+--+") == (1, -1, -1, 1)
    assert serialize.word_from_str("") == ()
    with pytest.raises(ValueError):
        serialize.word_from_str("+0-")


def test_scenery_roundtrip():
    d = cs.markov_scenery(4, 1, 2)
    doc = json.loads(serialize.scenery_text(d))
    assert doc["L"] == 2
    assert doc["probs"]["+++"] == "9/32"
    assert list(doc["probs"]) == sorted(doc["probs"])
    back = serialize.scenery_from_json(doc, 4)
    assert cs.distributions_equal(back, d)


def reference_scenery_json(dist):
    """Reference formatter: one word and one Fraction at a time, then
    sorted."""
    probs = {
        serialize.word_to_str(w): f"{p.numerator}/{p.denominator}"
        for w, p in dist.probs.items()
    }
    return {"L": dist.L, "probs": dict(sorted(probs.items()))}


def test_scenery_json_matches_reference_formatter():
    cases = []
    for n in range(1, 6):
        tables = [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        tables += [cs.TruthTable.dictator(n, i) for i in range(1, n + 1)]
        tables += [cs.TruthTable.character(n, m) for m in range(1, 1 << n)]
        cases += [(f, L) for f in tables for L in (0, 1, 5, 8)]
    rng = random.Random(13)
    # Random tables are mostly not k-functions: zero-probability words drop.
    for _ in range(40):
        n = rng.randint(1, 5)
        cases.append((cs.TruthTable(n, rng.getrandbits(1 << n)), rng.randint(0, 7)))
    # The 3-functions as complements of the 2-functions: the (5, 3) search
    # alone takes seconds.
    kfunctions = [f for k in (1, 2, 4) for f in cs.enumerate_spectral(5, k)]
    kfunctions += [cs.complement(f) for f in cs.enumerate_spectral(5, 2)]
    cases += [(f, 10) for f in rng.sample(kfunctions, 20)]
    cases.append((cs.TruthTable.constant(8, 1), 11))
    cases.append((cs.TruthTable(7, rng.getrandbits(1 << 7)), 12))
    # The -1 vertices all of even weight: no two are neighbours, so no word
    # reads "--" and those words are dropped.
    even = sum(1 << v for v in range(128) if v.bit_count() % 2 == 0)
    cases.append((cs.TruthTable(7, rng.getrandbits(1 << 7) & even), 12))
    laws = [cs.exact_scenery(f, L) for f, L in cases]
    assert 0 < len(laws[-1].weights) < 1 << 13
    laws += [cs.markov_scenery(n, k, L) for n in (1, 4, 30) for k in (1, n) for L in (0, 3)]
    # At L = 62 every code bit is used, and a norm past int64 makes the
    # constructor hold its weights as Python ints.
    rng62 = random.Random(62)
    words = [tuple(rng62.choice((1, -1)) for _ in range(63)) for _ in range(5)]
    words += [(1,) * 63, (-1,) * 63]
    probs = {w: Fraction(i + 1, 3**50) for i, w in enumerate(words)}
    probs[words[0]] = 1 - Fraction(27, 3**50)
    hand = SceneryDistribution(9, 62, probs)
    assert hand.norm > 1 << 63 and hand.total() == 1
    laws += [hand, SceneryDistribution(3, 2, {})]
    refs = [reference_scenery_json(d) for d in laws]
    for d, ref in zip(laws, refs):
        text = serialize.scenery_text(d)
        assert text == serialize.dumps(ref)
        assert list(json.loads(text)["probs"]) == sorted(ref["probs"])
    # Each law beside the next, and the last beside the first.
    pairs = zip(laws, refs, laws[1:] + laws[:1], refs[1:] + refs[:1])
    for d, ref, other, other_ref in pairs:
        want = {**ref, "compare_probs": other_ref["probs"], "equal": d == other}
        assert serialize.scenery_text(d, other) == serialize.dumps(want)


def test_scenery_writer_at_the_weight_dtype_boundary():
    # The writer reads a law's weight array as it is: int64 up to the DP's
    # largest weights, Python ints past int64.  Each line must equal the
    # reference formatter's.
    rng = random.Random(41)
    # Under the two DP ceilings the largest norm is 2**8 * 8**11 = 2**41,
    # before the weights' common factor is divided out.
    dp = cs.exact_scenery(cs.TruthTable(8, rng.getrandbits(1 << 8)), 11)
    assert (1 << 41) % dp.norm == 0 and dp.norm >= 1 << 40
    assert dp._w.dtype == np.int64
    # The closed form's largest weight (n - 1)**12 at k = 1: 38**12 < 2**63,
    # 39**12 > 2**63.
    fits, past = cs.markov_scenery(39, 1, 12), cs.markov_scenery(40, 1, 12)
    assert fits._w.dtype == np.int64 and max(fits.weights) == 38**12
    assert past._w.dtype == object and max(past.weights) == 39**12
    # L = 62 uses every code bit; a norm of 3**50 is past int64.
    words = [tuple(rng.choice((1, -1)) for _ in range(63)) for _ in range(5)]
    probs = {w: Fraction(i + 1, 3**50) for i, w in enumerate(words)}
    probs[(-1,) * 63] = 1 - Fraction(15, 3**50)
    hand = SceneryDistribution(9, 62, probs)
    assert hand._w.dtype == object and hand.norm == 3**50
    for d in (dp, fits, past, hand):
        assert serialize.scenery_text(d) == serialize.dumps(reference_scenery_json(d))
        assert type(d.weights) is tuple and {type(w) for w in d.weights} == {int}
        assert not d._w.flags.writeable
    # markov_scenery builds its weights as Python ints; once they are
    # narrowed to int64 its law equals the DP's field by field.
    f = next(cs.enumerate_spectral(5, 2))
    law, chain = cs.exact_scenery(f, 10), cs.markov_scenery(5, 2, 10)
    assert law._w.dtype == chain._w.dtype == np.int64
    assert law == chain and law.weights == chain.weights
    assert serialize.scenery_text(law, chain) == serialize.scenery_text(chain, law)


def test_scenery_text_exact_bytes():
    # A constant's one word has probability 1.
    law = cs.exact_scenery(cs.TruthTable.constant(3, 1), 0)
    assert serialize.scenery_text(law) == '{"L":0,"probs":{"+":"1/1"}}'
    assert serialize.scenery_text(SceneryDistribution(3, 2, {})) == '{"L":2,"probs":{}}'
    law = cs.markov_scenery(2, 1, 1)
    assert serialize.scenery_text(law, law) == (
        '{"L":1,"compare_probs":{"++":"1/4","+-":"1/4","-+":"1/4","--":"1/4"},'
        '"equal":true,"probs":{"++":"1/4","+-":"1/4","-+":"1/4","--":"1/4"}}'
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"L": 1, "probs": {"++": "1/0"}},
        {"L": True, "probs": {"+-": "1/1"}},
        {"L": 1.9, "probs": {"+-": "1/1"}},
        {"L": 1, "probs": {"+-": "-1/2", "-+": "3/2"}},
        {"L": 1, "probs": {"+-": " 1/2", "-+": "1/2"}},
        {"L": 63, "probs": {}},
        {"L": 1, "probs": {"++": "1/2"}},
        {"L": 1, "probs": {}},
    ],
    ids=[
        "zero_denominator",
        "bool_L",
        "float_L",
        "negative",
        "whitespace",
        "long_L",
        "sums_to_half",
        "empty",
    ],
)
def test_scenery_from_json_refuses(doc):
    with pytest.raises(ValueError):
        serialize.scenery_from_json(doc, 2)


def test_dumps_is_canonical():
    assert serialize.dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_scenery_probs_exact():
    d = cs.exact_scenery(cs.TruthTable.dictator(2, 1), 1)
    doc = json.loads(serialize.scenery_text(d))
    assert doc["probs"] == {"++": "1/4", "+-": "1/4", "-+": "1/4", "--": "1/4"}
    assert serialize.scenery_from_json(doc, 2).probability((1, 1)) == Fraction(1, 4)
