"""The JSON interchange format for functions, witnesses and sceneries.

Function objects look like one of::

    {"n": 4, "encoding": "truth_table_hex", "truth_table": "a3c5"}
    {"n": 4, "encoding": "sparse",
     "terms": [{"vars": [1, 3], "num": 1, "log2_den": 1}, ...]}

The truth-table hex string has exactly ceil(2**n / 4) digits in
little-endian order: the first digit holds vertices 0..3, and within a
digit vertex v contributes bit (v mod 4).  Sparse terms are sorted by their
variable tuples, so serialization is canonical; a sparse n is at least the
largest variable index any term names.  Every number in a function or
witness document must be a JSON integer.

Witnesses serialize as {"epsilon": +/-1, "alpha": "01...", "sigma": [ints]}
where alpha's j-th character (0-based) is "1" iff coordinate x_{j+1} is
negated, and sigma lists the 1-based source coordinate for each output
coordinate.

Scenery laws serialize as one line of canonical JSON, the bytes::

    {"L":2,"probs":{"+++":"9/32","++-":"3/32",...}}

for a 1-function on Q_4: one "+"/"-" string per word of positive
probability, in ascending order, each with its reduced probability as
"<digits>/<digits>".  With a second law to compare, the line has the keys
"L", "compare_probs", "equal" (true or false) and "probs", in that order.
Reading one back needs a JSON-integer L, such strings with a positive
denominator, and probabilities that sum to 1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

import numpy as np

from .core import (
    SparsePolynomial,
    TruthTable,
    _check_dimension,
    indices_from_mask,
    mask_from_indices,
)
from .group import SignedAutomorphism
from .scenery import SceneryDistribution, Word

TRUTH_TABLE_ENCODING = "truth_table_hex"
SPARSE_ENCODING = "sparse"

_HEX = re.compile(r"[0-9a-fA-F]+")


def _hex_digits(n: int) -> int:
    return -(-(1 << n) // 4)


def function_to_json(obj: TruthTable | SparsePolynomial) -> dict[str, Any]:
    if isinstance(obj, TruthTable):
        digits = _hex_digits(obj.n)
        big = f"{obj.bits:0{digits}x}"
        return {
            "n": obj.n,
            "encoding": TRUTH_TABLE_ENCODING,
            "truth_table": big[::-1],
        }
    if isinstance(obj, SparsePolynomial):
        terms = [
            {
                "vars": indices_from_mask(mask),
                "num": num,
                "log2_den": log2_den,
            }
            for mask, (num, log2_den) in obj.terms.items()
        ]
        # Masks are distinct, so this order is total.
        terms.sort(key=lambda t: tuple(t["vars"]))
        return {
            "n": obj.relevant_mask().bit_length(),
            "encoding": SPARSE_ENCODING,
            "terms": terms,
        }
    raise TypeError(f"cannot serialize {type(obj)!r}")


def function_from_json(doc: dict[str, Any]) -> TruthTable | SparsePolynomial:
    if not isinstance(doc, dict):
        raise ValueError("function document must be a JSON object")
    encoding = doc.get("encoding")
    if encoding == TRUTH_TABLE_ENCODING:
        n = doc.get("n")
        # type(), not isinstance(): JSON true is a bool, and bool is an int.
        if type(n) is not int:
            raise ValueError("truth-table document needs an integer n")
        _check_dimension(n)
        text = doc.get("truth_table")
        if not isinstance(text, str) or len(text) != _hex_digits(n):
            raise ValueError(
                f"truth_table must be a {_hex_digits(n)}-digit hex string for n={n}"
            )
        # int(text, 16) alone would also take "_", surrounding whitespace,
        # a sign and non-ASCII digits.
        if not _HEX.fullmatch(text):
            raise ValueError("truth_table is not valid hex")
        return TruthTable(n, int(text[::-1], 16))
    if encoding == SPARSE_ENCODING:
        raw = doc.get("terms")
        if not isinstance(raw, list):
            raise ValueError("sparse document needs a terms list")
        terms: dict[int, tuple[int, int]] = {}
        for entry in raw:
            try:
                fields = entry["num"], entry["log2_den"], *entry["vars"]
            except (TypeError, KeyError):
                raise ValueError(f"malformed sparse term {entry!r}") from None
            if any(type(x) is not int for x in fields):
                raise ValueError(f"non-integer number in sparse term {entry!r}")
            mask = mask_from_indices(entry["vars"])
            pair = (entry["num"], entry["log2_den"])
            if len(set(entry["vars"])) != len(entry["vars"]):
                raise ValueError(f"duplicate variables in term {entry!r}")
            if mask in terms:
                raise ValueError(f"duplicate term for variables {entry['vars']}")
            terms[mask] = pair
        n = doc.get("n")
        if type(n) is not int or n < 0:
            raise ValueError("sparse document needs an integer n >= 0")
        # The largest mask has the highest variable of all the terms.
        if max(terms, default=0).bit_length() > n:
            raise ValueError(f"a term names a variable beyond x_{n}")
        return SparsePolynomial(terms)
    raise ValueError(f"unknown encoding {encoding!r}")


def witness_to_json(a: SignedAutomorphism) -> dict[str, Any]:
    alpha = "".join("1" if (a.alpha >> j) & 1 else "0" for j in range(a.n))
    return {
        "epsilon": a.epsilon,
        "alpha": alpha,
        "sigma": [s + 1 for s in a.sigma],
    }


def witness_from_json(doc: dict[str, Any]) -> SignedAutomorphism:
    try:
        epsilon = doc["epsilon"]
        alpha_text = doc["alpha"]
        sigma_list = doc["sigma"]
    except (TypeError, KeyError):
        raise ValueError("witness document needs epsilon, alpha, sigma") from None
    # type(), not isinstance(): JSON true is a bool, and bool is an int.
    if type(epsilon) is not int:
        raise ValueError(f"epsilon must be an integer, got {epsilon!r}")
    if not isinstance(sigma_list, list) or any(type(s) is not int for s in sigma_list):
        raise ValueError("sigma must be a list of integers")
    n = len(sigma_list)
    if not isinstance(alpha_text, str) or len(alpha_text) != n:
        raise ValueError(f"alpha must be a {n}-character bit string")
    if set(alpha_text) - {"0", "1"}:
        raise ValueError("alpha must contain only 0 and 1")
    alpha = 0
    for j, ch in enumerate(alpha_text):
        if ch == "1":
            alpha |= 1 << j
    sigma = tuple(s - 1 for s in sigma_list)
    return SignedAutomorphism(n, epsilon, alpha, sigma)


_LETTER_TEXT = {1: "+", -1: "-"}


def word_to_str(word: Word) -> str:
    return "".join(map(_LETTER_TEXT.__getitem__, word))


def word_from_str(text: str) -> Word:
    out = []
    for ch in text:
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"word characters must be + or -, got {ch!r}")
    return tuple(out)


def _probs_text(dist: SceneryDistribution) -> str:
    """The law's ``probs`` object as canonical JSON, one uint8 row per word.

    Row r holds '"', the word's letters, '":"', its ratio padded with zero
    bytes to the widest ratio, and '",'.  The letters come from one unpack
    of the codes into uint8, and the ratios from the weight array as it is
    (int64, or Python ints past it): ``np.unique`` gives each word's
    weight class, and each distinct ratio is formatted once.  The codes
    ascend, so the words come out in sorted order."""
    if not len(dist.codes):
        return "{}"
    distinct, classes = dist._weight_classes()
    ratios = (Fraction(w, dist.norm) for w in distinct.tolist())
    # numpy's S dtype pads every ratio with zero bytes to the widest.
    table = np.array([f"{p.numerator}/{p.denominator}" for p in ratios], dtype="S")
    table = table.view(np.uint8).reshape(len(distinct), -1)
    letters = dist.L + 1
    rows = np.empty((len(classes), letters + table.shape[1] + 6), np.uint8)
    rows[:, 0] = ord('"')
    # "+" is 43 and "-" is 45.
    rows[:, 1 : letters + 1] = 43 + 2 * dist._minus_bits()
    rows[:, letters + 1 : letters + 4] = np.frombuffer(b'":"', np.uint8)
    rows[:, letters + 4 : -2] = table[classes]
    rows[:, -2:] = np.frombuffer(b'",', np.uint8)
    # Drop the padding and the last comma.
    return "{" + rows.tobytes().replace(b"\0", b"")[:-1].decode("ascii") + "}"


def scenery_text(
    dist: SceneryDistribution, compare: SceneryDistribution | None = None
) -> str:
    """The line ``scenery`` prints for ``dist``, and with ``compare`` the
    line of ``scenery --compare``: the bytes ``dumps`` gives for
    {"L", "probs"}, or for {"L", "compare_probs", "equal", "probs"}."""
    probs = _probs_text(dist)
    if compare is None:
        return f'{{"L":{dist.L},"probs":{probs}}}'
    equal = "true" if dist == compare else "false"
    return (
        f'{{"L":{dist.L},"compare_probs":{_probs_text(compare)},'
        f'"equal":{equal},"probs":{probs}}}'
    )


_RATIO = re.compile(r"([0-9]+)/([0-9]+)")


def scenery_from_json(doc: dict[str, Any], n: int) -> SceneryDistribution:
    if not isinstance(doc, dict):
        raise ValueError("scenery document must be a JSON object")
    L = doc.get("L")
    # type(), not isinstance(): JSON true is a bool, and bool is an int.
    if type(L) is not int:
        raise ValueError(f"scenery L must be an integer, got {L!r}")
    raw = doc.get("probs")
    if not isinstance(raw, dict):
        raise ValueError("scenery document needs a probs object")
    probs: dict[Word, Fraction] = {}
    for text, frac in raw.items():
        match = _RATIO.fullmatch(frac) if isinstance(frac, str) else None
        if match is None or int(match[2]) == 0:
            raise ValueError(
                f"probability of {text!r} must be <digits>/<digits> with a "
                f"positive denominator, got {frac!r}"
            )
        probs[word_from_str(text)] = Fraction(int(match[1]), int(match[2]))
    dist = SceneryDistribution(n, L, probs)
    if dist.total() != 1:
        raise ValueError(f"scenery probabilities sum to {dist.total()}, not 1")
    return dist


def dumps(doc: Any) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
