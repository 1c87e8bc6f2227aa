import random
from functools import lru_cache
from itertools import combinations, islice, permutations

import numpy as np
import pytest

import cubestable as cs
from cubestable import kfunctions
from cubestable.core import _pack, _unpack
from cubestable.errors import DimensionMismatch, DimensionTooLarge, ShrinkNotAllowed
from cubestable.group import (
    _image_weights,
    _orbit,
    _packed_images,
    _permutation_tables,
    _permute_mask,
)


def random_element(rng: random.Random, n: int) -> cs.SignedAutomorphism:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return cs.SignedAutomorphism(
        n, rng.choice((1, -1)), rng.getrandbits(n), tuple(sigma)
    )


def test_group_order_and_enumeration():
    for n in range(4):
        els = list(cs.group_elements(n))
        assert len(els) == cs.group_order(n) == (1 << (n + 1)) * _fact(n)
        assert len(set(els)) == len(els)


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_apply_identity_and_sign():
    f = cs.TruthTable(3, 0b10110100)
    assert cs.apply(cs.SignedAutomorphism.identity(3), f) == f
    neg = cs.SignedAutomorphism(3, -1, 0, (0, 1, 2))
    assert cs.apply(neg, cs.TruthTable.constant(3, 1)) == cs.TruthTable.constant(3, -1)


def test_apply_swap_on_dictator():
    swap = cs.SignedAutomorphism(2, 1, 0, (1, 0))
    assert cs.apply(swap, cs.TruthTable.dictator(2, 1)) == cs.TruthTable.dictator(2, 2)


def test_apply_coordinate_flip():
    # Negating x1 turns the dictator x1 into -x1.
    flip = cs.SignedAutomorphism(2, 1, 0b01, (0, 1))
    x1 = cs.TruthTable.dictator(2, 1)
    assert cs.apply(flip, x1).values() == [-v for v in x1.values()]


def test_compose_law_exhaustive_n2():
    tables = [cs.TruthTable(2, b) for b in (0b0110, 0b1010, 0b0001)]
    els = list(cs.group_elements(2))
    for a in els:
        for b in els:
            c = cs.compose(a, b)
            for f in tables:
                assert cs.apply(c, f) == cs.apply(a, cs.apply(b, f))


def test_compose_law_randomized_n3():
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        a, b = random_element(rng, 3), random_element(rng, 3)
        c = cs.compose(a, b)
        f = cs.TruthTable(3, rng.getrandbits(8))
        assert cs.apply(c, f) == cs.apply(a, cs.apply(b, f))


def test_inverse():
    rng = random.Random(31337)
    for n in (1, 2, 3, 4):
        ident = cs.SignedAutomorphism.identity(n)
        for _ in range(25):
            a = random_element(rng, n)
            assert cs.compose(a, cs.inverse(a)) == ident
            assert cs.compose(cs.inverse(a), a) == ident


def test_dimension_mismatch():
    a = cs.SignedAutomorphism.identity(2)
    with pytest.raises(DimensionMismatch):
        cs.apply(a, cs.TruthTable.constant(3, 1))
    with pytest.raises(DimensionMismatch):
        cs.compose(a, cs.SignedAutomorphism.identity(3))


def test_canonical_constants_merge():
    plus = cs.TruthTable.constant(3, 1)
    minus = cs.TruthTable.constant(3, -1)
    assert cs.canonical_form(plus)[0] == cs.canonical_form(minus)[0]


def test_canonical_dictators_merge():
    x1 = cs.TruthTable.dictator(2, 1)
    x2 = cs.TruthTable.dictator(2, 2)
    neg = cs.apply(cs.SignedAutomorphism(2, -1, 0, (0, 1)), x1)
    forms = {cs.canonical_form(f)[0] for f in (x1, x2, neg)}
    assert len(forms) == 1


def test_canonical_distinguishes_levels():
    # x1 x2 and x1 sit in different orbits on Q_2; parity never merges with
    # a constant under the signed group alone.
    assert (
        cs.canonical_form(cs.TruthTable.character(2, 0b11))[0]
        != cs.canonical_form(cs.TruthTable.dictator(2, 1))[0]
    )
    for n in (1, 2, 3):
        parity = cs.TruthTable.character(n, (1 << n) - 1)
        assert cs.canonical_form(parity)[0] != cs.canonical_form(cs.TruthTable.constant(n, 1))[0]


def test_canonical_invariant_under_group_exhaustive_n2():
    rng = random.Random(8)
    for _ in range(10):
        f = cs.TruthTable(2, rng.getrandbits(4))
        rep = cs.canonical_form(f)[0]
        for a in cs.group_elements(2):
            assert cs.canonical_form(cs.apply(a, f))[0] == rep


def test_canonical_invariant_randomized_n3():
    rng = random.Random(9)
    for _ in range(10):
        f = cs.TruthTable(3, rng.getrandbits(8))
        rep = cs.canonical_form(f)[0]
        for _ in range(10):
            assert cs.canonical_form(cs.apply(random_element(rng, 3), f))[0] == rep


def test_canonical_witness_reaches_representative():
    rng = random.Random(10)
    for _ in range(30):
        f = cs.TruthTable(3, rng.getrandbits(8))
        rep, wit = cs.canonical_form(f)
        assert cs.apply(wit, f) == rep


def test_canonical_witness_is_first_minimiser_in_group_order():
    # canon prints the witness, so the tie-break between elements reaching
    # the representative is part of the output: the first in group order.
    rng = random.Random(14)
    tables = [cs.TruthTable(n, b) for n in range(3) for b in range(1 << (1 << n))]
    tables += [cs.TruthTable(3, rng.getrandbits(8)) for _ in range(10)]
    tables += [cs.TruthTable(4, rng.getrandbits(16)) for _ in range(4)]
    for f in tables:
        # The value sequence ordered with +1 < -1.
        first = min(
            cs.group_elements(f.n),
            key=lambda a: [-v for v in cs.apply(a, f).values()],
        )
        assert cs.canonical_form(f)[1] == first


def loop_canonical_form(f: cs.TruthTable) -> tuple[cs.TruthTable, cs.SignedAutomorphism]:
    """Reference: one gather per sigma, then one min over its 2**n keys and
    their complements.

    Row alpha of the gather is the image under (sigma, alpha).  Its packed
    bytes, vertex 0 the most significant bit, are its key: byte strings of
    one length compare as the big-endian integers they spell.  The least
    complement is that of the greatest key.  The first minimiser wins:
    sigma in permutations order, then alpha ascending, then epsilon = +1
    before -1.
    """
    n = f.n
    size = 1 << n
    full = (1 << size) - 1
    width = -(-size // 8)
    # packbits pads a row of fewer than 8 vertices with low zero bits.
    pad = 8 * width - size
    vals = _unpack(f.bits, n)
    vertices = np.arange(size)
    alphas = vertices[:, None]
    best = None
    for sigma in permutations(range(n)):
        rows = np.packbits(vals[_permute_mask(sigma, vertices) ^ alphas], axis=1)
        # One bytes object per row.
        keys = rows.view(f"V{width}").ravel().tolist()
        low, high = min(keys), max(keys)
        # (key, alpha, 0 for epsilon = +1 and 1 for -1)
        cand = min(
            (int.from_bytes(low, "big") >> pad, keys.index(low), 0),
            (full ^ (int.from_bytes(high, "big") >> pad), keys.index(high), 1),
        )
        if best is None or cand[0] < best[0][0]:
            best = cand, sigma
    (key, alpha, minus), sigma = best
    rep = cs.TruthTable(n, _pack(_unpack(key, n)[::-1]))
    return rep, cs.SignedAutomorphism(n, -1 if minus else 1, alpha, sigma)


def test_canonical_form_matches_loop_reference():
    rng = random.Random(15)
    tables = [cs.TruthTable(n, rng.getrandbits(1 << n)) for n in (5, 5, 5, 5, 6, 6, 6)]
    for n in (5, 6):
        tables += [cs.TruthTable.constant(n, 1), cs.TruthTable.constant(n, -1)]
        tables += [cs.TruthTable.dictator(n, i) for i in (1, n)]
        tables += [cs.TruthTable.character(n, (1 << n) - 1)]
    # Large stabilisers: many elements reach the representative.  Times the
    # parity, the 1- and 2-functions give 4- and 3-functions.
    parity = cs.TruthTable.character(5, 0b11111).bits
    for k in (1, 2):
        for f in islice(cs.enumerate_spectral(5, k), 8):
            tables += [f, cs.TruthTable(5, f.bits ^ parity)]
    tables.append(cs.TruthTable(7, rng.getrandbits(128)))
    for f in tables:
        assert cs.canonical_form(f) == loop_canonical_form(f), f


def test_canonical_form_blocks_keep_the_first_minimiser(monkeypatch, kfn):
    # One permutation per block, so minimisers tie across blocks as they
    # can at n = 7.
    monkeypatch.setattr("cubestable.group._CANONICAL_BLOCK", 1)
    tables = [cs.TruthTable.constant(4, 1), cs.TruthTable.dictator(5, 3)]
    tables += kfn(4, 1)[:4] + kfn(4, 2)[:8] + kfn(4, 3)[:4]
    tables.append(cs.TruthTable(5, random.Random(16).getrandbits(32)))
    for f in tables:
        assert cs.canonical_form(f) == loop_canonical_form(f), f


def reference_words(g: cs.TruthTable, perm: np.ndarray) -> np.ndarray:
    """_packed_images from Python ints: column s * 2**n + alpha holds the
    image of g read through perm[s] ^ alpha, normalised to start +1, as one
    integer with vertex 0 its most significant bit, split into 64-bit
    words least significant first."""
    size = 1 << g.n
    vals = _unpack(g.bits, g.n).tolist()
    out = []
    for p in perm.tolist():
        for alpha in range(size):
            key = int("".join(str(vals[u ^ alpha] ^ vals[alpha]) for u in p), 2)
            out.append([(key >> w) & ((1 << 64) - 1) for w in range(0, size, 64)])
    return np.array(out, dtype=np.uint64).T


def test_canonical_form_exact_at_the_word_boundary():
    # f(0) = +1 and every other vertex -1: images starting +1, -1, ... set
    # every bit of a chunk but its first, so the product's sums reach
    # 2**31 - 1 and 2**32 - 1 in its chunks and 2**63 - 1 and 2**64 - 1 in
    # merged words.  The least key has one bit set, so the packed images
    # and the orbit are checked beside the canonical forms.
    for n in (5, 6, 7):
        size = 1 << n
        full = (1 << size) - 1
        f = cs.TruthTable(n, full ^ 1)
        tables = [f, cs.TruthTable(n, 1)]
        for alpha in (1, size - 1):
            tables.append(cs.apply(cs.SignedAutomorphism(n, 1, alpha, tuple(range(n))), f))
        perm = _permutation_tables(n)[1][:4]
        for g in tables:
            assert cs.canonical_form(g) == loop_canonical_form(g), g
            got = _packed_images(_unpack(g.bits, n), _image_weights(perm))
            assert (got == reference_words(g, perm)).all(), g
        if n <= 6:
            # The orbit: every table with exactly one -1 or exactly one +1.
            ones = {1 << v for v in range(size)}
            assert set(_orbit(f).tolist()) == ones | {full ^ b for b in ones}


def test_canonical_form_is_the_least_orbit_member(kfn):
    # canonical_form keys images read from vertex 0 and the orbit sweep
    # packs them from vertex 0 up, both from one product: the representative
    # is the orbit member least with its bits reversed.
    rng = random.Random(18)
    tables = [f for n in range(5) for k in range(n + 1) for f in kfn(n, k)[:6]]
    tables += [f for k in (1, 2, 3) for f in islice(cs.enumerate_spectral(5, k), 6)]
    tables += list(islice(cs.enumerate_spectral(6, 2), 3))
    tables += [cs.TruthTable(n, rng.getrandbits(1 << n)) for n in (1, 2, 3, 4, 5, 5, 6, 6)]
    for f in tables:
        width = 1 << f.n
        least = min(_orbit(f).tolist(), key=lambda b: int(f"{b:0{width}b}"[::-1], 2))
        assert cs.canonical_form(f)[0].bits == least, f


def test_canonical_dimension_ceiling():
    with pytest.raises(DimensionTooLarge):
        cs.canonical_form(cs.TruthTable.constant(8, 1))


def test_are_isomorphic_self_and_dictators():
    f = cs.TruthTable(3, 0b01101001)
    w = cs.are_isomorphic(f, f)
    assert w is not None and cs.apply(w, f) == f
    w = cs.are_isomorphic(cs.TruthTable.dictator(4, 1), cs.TruthTable.dictator(4, 3))
    assert w is not None


def test_are_isomorphic_negative(two_function_q4):
    chi12 = cs.TruthTable.character(4, 0b0011)
    assert cs.are_isomorphic(chi12, two_function_q4) is None


def test_are_isomorphic_witness_direction():
    rng = random.Random(12)
    for _ in range(20):
        g = cs.TruthTable(3, rng.getrandbits(8))
        a = random_element(rng, 3)
        f = cs.apply(a, g)
        w = cs.are_isomorphic(f, g)
        assert w is not None and cs.apply(w, g) == f


def test_are_isomorphic_requires_equal_dimension():
    with pytest.raises(DimensionMismatch):
        cs.are_isomorphic(cs.TruthTable.constant(2, 1), cs.TruthTable.constant(3, 1))


def test_pad_to():
    f = cs.pad_to(cs.TruthTable.dictator(1, 1), 3)
    assert f.values() == [1, -1] * 4
    assert cs.pad_to(cs.TruthTable.constant(0, 1), 5) == cs.TruthTable.constant(5, 1)
    with pytest.raises(ShrinkNotAllowed):
        cs.pad_to(cs.TruthTable.constant(3, 1), 2)


def test_padding_preserves_isomorphism_exhaustive_q2():
    fs = [cs.TruthTable(2, b) for b in range(16)]
    for f, g in combinations(fs, 2):
        small = cs.are_isomorphic(f, g) is not None
        big = cs.are_isomorphic(cs.pad_to(f, 4), cs.pad_to(g, 4)) is not None
        assert small == big


def test_apply_preserves_k_functions(kfn):
    rng = random.Random(13)
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
        for f in kfn(n, k)[:6]:
            for _ in range(5):
                g = cs.apply(random_element(rng, n), f)
                assert cs.uniform_flip_count(g) == k


def test_orbit_lists_every_image_under_the_group(kfn):
    rng = random.Random(17)
    for n in range(5):
        tables = [f for k in range(n + 1) for f in kfn(n, k)[:6]]
        tables += [cs.TruthTable(n, rng.getrandbits(1 << n)) for _ in range(4)]
        for f in tables:
            orbit = _orbit(f)
            assert len(orbit) == cs.group_order(n)
            images = sorted(cs.apply(a, f).bits for a in cs.group_elements(n))
            assert sorted(orbit.tolist()) == images, f


def test_orbit_stabilizer_on_k_function_classes(kfn):
    for n in range(1, 5):
        order = cs.group_order(n)
        for k in range(n + 1):
            tables = kfn(n, k)
            classes = cs.orbit_classes(tables)
            assert sum(len(c) for c in classes) == len(tables)
            for cls in classes:
                assert order % len(cls) == 0  # orbit size divides the group order
                assert 1 <= len(cls) <= order


def test_orbit_classes_give_g_at_n5():
    # Multiplying by the parity x1...x5 maps the k-functions onto the
    # (5 - k)-functions and classes onto classes, so k = 3, 4 and 5 are
    # reached that way from k = 2, 1 and 0.  Unlike count_table, this route
    # needs no vertex search.
    parity = cs.TruthTable.character(5, 0b11111).bits
    counts = {}
    for k in (0, 1, 2):
        if k == 0:
            tables = [cs.TruthTable.constant(5, 1), cs.TruthTable.constant(5, -1)]
        else:
            tables = list(cs.enumerate_spectral(5, k))
        complements = [cs.TruthTable(5, f.bits ^ parity) for f in tables]
        counts[k] = len(cs.orbit_classes(tables))
        counts[5 - k] = len(cs.orbit_classes(complements))
        assert all(cs.uniform_flip_count(g) == 5 - k for g in complements)
    assert [counts[k] for k in range(6)] == [1, 1, 2, 2, 1, 1]


@lru_cache(maxsize=None)
def signed_cycle_classes(n: int) -> list[tuple[tuple[int, tuple[int, ...]], int]]:
    """Per signed cycle type of (sigma, alpha): a representative (alpha,
    sigma) and the class size, found by typing all 2**n n! pairs.

    A cycle of sigma is signed by the parity of alpha's bits on it.
    """
    classes: dict[tuple, list] = {}
    for sigma in permutations(range(n)):
        for alpha in range(1 << n):
            cycles, seen = [], set()
            for start in range(n):
                j, length, sign = start, 0, 0
                while j not in seen:
                    seen.add(j)
                    length, sign, j = length + 1, sign ^ (alpha >> j) & 1, sigma[j]
                if length:
                    cycles.append((length, sign))
            classes.setdefault(tuple(sorted(cycles)), [(alpha, sigma), 0])[1] += 1
    return [(rep, size) for rep, size in classes.values()]


def burnside_count(n: int, cell: list[int]) -> int:
    """The number of orbits of a group-closed set of tables: the mean over
    the group of the number of tables each element fixes."""
    vals = _unpack(np.array(cell, dtype=np.uint64), n)
    total = 0
    for (alpha, sigma), size in signed_cycle_classes(n):
        phi = cs.SignedAutomorphism(n, 1, alpha, sigma).vertex_map(np.arange(1 << n))
        image = vals[:, phi]
        # epsilon = +1 fixes f when f o phi = f, epsilon = -1 when f o phi = -f.
        fixed = (image == vals).all(axis=1).sum() + (image != vals).all(axis=1).sum()
        total += size * int(fixed)
    classes, rest = divmod(total, cs.group_order(n))
    assert rest == 0
    return classes


def test_count_table_g_matches_burnside_and_canonical_forms():
    # Three routes to G: the orbit sweep of count_table, Burnside's lemma
    # over the signed cycle types (65 of them at n = 6, twice over for
    # epsilon), and for n <= 5 the canonical-form buckets of orbit_classes.
    assert [len(signed_cycle_classes(n)) for n in range(7)] == [1, 2, 5, 10, 20, 36, 65]
    records = cs.count_table(6)
    for r in records:
        cell = kfunctions._vertex_search(r.n, r.k)
        assert r.G == burnside_count(r.n, cell)
        if r.n <= 5:
            tables = [cs.TruthTable(r.n, bits) for bits in cell]
            assert r.G == len(cs.orbit_classes(tables))
    assert [r.G for r in records[-7:]] == [1, 1, 2, 9, 2, 1, 1]
