import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cubestable as cs
from cubestable import core, kfunctions, serialize
from cubestable.core import _sparse_numerators
from cubestable.errors import (
    DimensionTooLarge,
    IndexOverflow,
    MissingVariable,
    NotBoolean,
)


def naive_wht(f: cs.TruthTable) -> list[int]:
    """The defining sum, term by term — the oracle for the butterfly."""
    out = []
    for mask in range(1 << f.n):
        total = 0
        for v in range(1 << f.n):
            chi = -1 if (mask & v).bit_count() & 1 else 1
            total += f.value(v) * chi
        out.append(total)
    return out


def test_wht_matches_naive_sum_exhaustively_small():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            f = cs.TruthTable(n, bits)
            assert list(cs.wht(f).coeffs) == naive_wht(f)


def test_wht_matches_naive_sum_sampled_n4_n6():
    rng = random.Random(20240817)
    for n in (4, 6):
        for _ in range(20):
            f = cs.TruthTable(n, rng.getrandbits(1 << n))
            assert list(cs.wht(f).coeffs) == naive_wht(f)


def test_wht_constant_and_dictator():
    assert cs.wht(cs.TruthTable.constant(3, 1)).coeffs[0] == 8
    assert sum(c != 0 for c in cs.wht(cs.TruthTable.constant(3, 1)).coeffs) == 1
    s = cs.wht(cs.TruthTable.dictator(2, 1))
    assert s.coeffs[0b01] == 4
    assert sum(c != 0 for c in s.coeffs) == 1


def test_wht_numpy_path_agrees_with_list_path():
    # Round trip and Parseval at dimensions the exhaustive tests do not reach.
    rng = random.Random(7)
    for n in (12, 13, 14):
        bits = rng.getrandbits(1 << n)
        f = cs.TruthTable(n, bits)
        spectrum = cs.wht(f)
        assert cs.inverse_wht(spectrum) == f
        assert sum(c * c for c in spectrum.coeffs) == 4**n


def junta(n: int, coords: list[int], rng: random.Random) -> cs.TruthTable:
    """A random table on Q_n that depends on exactly the coordinates listed
    (0-based): a table g on Q_len(coords) that depends on each of its own,
    read at the listed coordinates of each vertex."""
    r = len(coords)
    while True:
        g = cs.TruthTable(r, rng.getrandbits(1 << r))
        if all(depends_on(g, t + 1) for t in range(r)):
            break
    v = np.arange(1 << n)
    at = sum((((v >> j) & 1) << t for t, j in enumerate(coords)), 0 * v)
    return cs.TruthTable(n, core._pack(core._unpack(g.bits, r)[at]))


def reference_part(f: cs.TruthTable, skip: int) -> int:
    """f at x_j = +1 for every coordinate j in ``skip``, packed on the other
    coordinates, lowest first: the 2**n unpacked table viewed as (2,) * n,
    axis i for coordinate n - 1 - i, with index 0 taken on each axis in
    ``skip``."""
    keep = tuple(0 if skip >> j & 1 else slice(None) for j in range(f.n - 1, -1, -1))
    kept = core._unpack(f.bits, f.n).reshape((2,) * f.n)[keep + (Ellipsis,)]
    return core._pack(kept.ravel())


def tensor_wht(f: cs.TruthTable) -> list[int]:
    """The transform as one 2-point sum and difference along each axis of
    the (2,) * n view: a second oracle, no butterfly, for n up to 12."""
    x = (1 - 2 * core._unpack(f.bits, f.n).astype(np.int64)).reshape((2,) * f.n)
    for axis in range(f.n):
        lo, hi = np.take(x, 0, axis=axis), np.take(x, 1, axis=axis)
        x = np.stack([lo + hi, lo - hi], axis=axis)
    return x.ravel().tolist()


def junta_coordinate_sets(n: int, rng: random.Random) -> list[list[int]]:
    """The empty set, {0}, {0, 1, 2}, {n - 1}, every coordinate, sets that
    mix j < 3 with j >= 3, and random ones."""
    sets = [[], [0], [0, 1, 2], [n - 1], list(range(n))]
    sets += [[1, 3], [0, 2, n - 1], sorted({2, n // 2, n - 2})]
    sets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
    return sets


def test_wht_on_juntas_matches_the_defining_sum():
    rng = random.Random(19)
    for n in range(4, 13):
        for coords in junta_coordinate_sets(n, rng):
            f = junta(n, coords, rng)
            mask = sum(1 << j for j in coords)
            assert core._constant_coordinates(f.bits, n) == (
                ((1 << n) - 1) ^ mask,
                reference_part(f, ((1 << n) - 1) ^ mask),
            )
            spectrum = cs.wht(f)
            want = naive_wht(f) if n <= 7 else tensor_wht(f)
            assert list(spectrum.coeffs) == want, (n, coords)
            assert spectrum._values.dtype == np.int64
            assert spectrum._masks.shape == spectrum._values.shape
            assert spectrum._values.all()
            assert not spectrum._masks.flags.writeable
            assert not spectrum._values.flags.writeable
            assert cs.wht(f) == spectrum
            assert cs.relevant_indices(spectrum) == {j + 1 for j in coords}
            table = cs.inverse_wht(spectrum)
            assert table == f and cs.wht(table) == spectrum
    # n = 8 against the defining sum itself, term by term.
    for coords in ([], [0, 1, 2], [2, 5, 7], list(range(8))):
        f = junta(8, coords, rng)
        assert list(cs.wht(f).coeffs) == naive_wht(f)


def test_wht_butterflies_only_the_relevant_coordinates(monkeypatch):
    sizes = []
    butterfly = core._butterfly

    def record(a):
        sizes.append(a.size)
        butterfly(a)

    monkeypatch.setattr(core, "_butterfly", record)
    rng = random.Random(20)
    for n, coords in ((12, [1, 4, 11]), (9, []), (10, list(range(10))), (3, [2])):
        cs.wht(junta(n, coords, rng))
        assert sizes.pop() == 1 << len(coords)


def test_constant_coordinates_scan_past_the_first_word():
    # A junta with one vertex flipped far from vertex 0 depends on every
    # coordinate, though its first word, and most words compared with it,
    # show only the junta's: the whole-table scan must find the rest.
    rng = random.Random(21)
    for n, coords in ((7, [0]), (9, [6]), (10, [1, 7]), (12, []), (13, [2, 3, 12])):
        g = junta(n, coords, rng)
        full = (1 << n) - 1
        for v in (full, 1 << (n - 1), 3 << (n - 2)):
            f = cs.TruthTable(n, g.bits ^ (1 << v))
            assert core._constant_coordinates(f.bits, n) == (0, f.bits)
            assert list(cs.wht(f).coeffs) == tensor_wht(f)
        # Flipping a vertex and its neighbour across coordinate j keeps j out.
        j = next(j for j in range(n) if j not in coords)
        v = rng.randrange(1 << n)
        f = cs.TruthTable(n, g.bits ^ (1 << v) ^ (1 << (v ^ (1 << j))))
        assert core._constant_coordinates(f.bits, n) == (1 << j, reference_part(f, 1 << j))
        assert list(cs.wht(f).coeffs) == tensor_wht(f)


def full_table_constant_coordinates(f: cs.TruthTable) -> int:
    """The coordinates f does not depend on, by comparing the unpacked
    table with itself read across each coordinate: no word scan."""
    u = core._unpack(f.bits, f.n)
    v = np.arange(1 << f.n)
    return sum(1 << j for j in range(f.n) if (u == u[v ^ (1 << j)]).all())


@pytest.mark.parametrize("n", range(7, 19))
def test_restriction_of_scattered_juntas(n, scatter):
    # Random Q_1..Q_5 tables and Q_4 k-functions, padded and scattered, and
    # variants that the first word and the broadcast check cannot settle: a
    # vertex flipped far from vertex 0 (every coordinate relevant), and a
    # vertex flipped with its neighbour across a constant coordinate j
    # (only j constant).
    rng = random.Random(27 + n)
    small = [cs.TruthTable(r, rng.getrandbits(1 << r)) for r in range(1, 6)]
    small += [rng.choice(list(cs.enumerate_spectral(4, k))) for k in (1, 2, 3)]
    small.append(cs.TruthTable.constant(2, -1))
    tables = []
    for g in small:
        f = scatter(g, n, rng)
        tables.append(f)
        far = (1 << n) - 1 - rng.randrange(1 << (n - 2))
        tables.append(cs.TruthTable(n, f.bits ^ 1 << far))
        skip = full_table_constant_coordinates(f)
        j = rng.choice([j for j in range(n) if skip >> j & 1])
        v = rng.randrange(1 << n)
        tables.append(cs.TruthTable(n, f.bits ^ 1 << v ^ 1 << (v ^ 1 << j)))
    for f in tables:
        skip = full_table_constant_coordinates(f)
        assert core._constant_coordinates(f.bits, n) == (skip, reference_part(f, skip))
        assert cs.uniform_flip_count(f) == int(kfunctions._uniform_flips(f.bits, n))
    assert {cs.uniform_flip_count(f) for f in tables} >= {-1, 1, 2, 3}


def test_wht_caches_no_mask_of_the_table_size():
    # The scan uses only Q_6 masks, even where it falls back to the whole
    # table; a 2**n-bit mask per coordinate would stay in the cache.  The
    # last table, a junta with its last vertex flipped, takes the fallback.
    core._half_masks.cache_clear()
    rng = random.Random(22)
    tables = [junta(n, c, rng) for n, c in ((14, [0, 3, 9]), (14, list(range(14))), (13, []))]
    tables.append(cs.TruthTable(14, junta(14, [0, 3, 9], rng).bits ^ 1 << (1 << 14) - 1))
    for f in tables:
        cs.wht(f)
    assert core._half_masks.cache_info().currsize == 1


def test_half_masks_are_the_complements_of_the_characters():
    for n in range(13):
        full = (1 << (1 << n)) - 1
        characters = [cs.TruthTable.character(n, 1 << j).bits for j in range(n)]
        assert core._half_masks(n) == tuple(
            (1 << j, chi ^ full) for j, chi in enumerate(characters)
        )


def test_butterfly_blocks_match_the_defining_sum(monkeypatch):
    # An 8-entry block copies n = 5 and 6 tables and a batch of n = 4
    # tables one row of 8 entries at a time, leaving the rest to the high
    # stages.
    from cubestable import core

    rng = random.Random(24)
    tables = [cs.TruthTable(n, rng.getrandbits(1 << n)) for n in (3, 4, 5, 6) * 3]
    batch = rng.sample(range(1 << 16), 12)
    monkeypatch.setattr(core, "_BUTTERFLY_BLOCK", 8)
    for f in tables:
        spectrum = cs.wht(f)
        assert list(spectrum.coeffs) == naive_wht(f)
        assert cs.inverse_wht(spectrum) == f
    a = 1 - 2 * core._unpack(np.array(batch, dtype=np.uint64), 4).astype(np.int64)
    core._butterfly(a)
    assert a.tolist() == [naive_wht(cs.TruthTable(4, bits)) for bits in batch]


def _defining_sums(a: np.ndarray) -> np.ndarray:
    """``naive_wht`` over the last axis as matrix products, 256 masks each."""
    v = np.arange(a.shape[-1])
    out = np.empty_like(a)
    for lo in range(0, len(v), 256):
        odd = np.bitwise_count(v[lo : lo + 256, None] & v) & 1
        chi = 1 - 2 * odd.astype(np.int64)
        out[..., lo : lo + 256] = a @ chi.T
    return out


@pytest.mark.parametrize("block", [None, 24])
def test_butterfly_shape_grid_matches_the_defining_sum(monkeypatch, block):
    from cubestable import core

    rng = random.Random(14)
    for n in range(5):
        f = cs.TruthTable(n, rng.getrandbits(1 << n))
        assert _defining_sums(np.array(f.values())).tolist() == naive_wht(f)
    # A 24-entry block splits the low stages into blocks of 24 // 2**s rows
    # and leaves the high stages to the rest: a single n = 6 table has rows
    # of 8 entries in blocks of 3, 3 and 2 rows, then stages 8, 16 and 32.
    if block:
        monkeypatch.setattr(core, "_BUTTERFLY_BLOCK", block)
    shapes = [(rows, 1 << n) for n in range(7) for rows in (0, 1, 3, 4096)]
    shapes += [(1 << n,) for n in range(13)]
    gen = np.random.default_rng(14)
    for shape in shapes:
        bound = shape[-1]
        a = gen.integers(-bound, bound + 1, size=shape)
        want = _defining_sums(a)
        core._butterfly(a)
        assert np.array_equal(a, want), shape


def test_butterfly_int8_batch_of_every_q4_table():
    # +/-1 inputs on Q_4 stay within 2**4, so int8 gives the int64 result.
    from cubestable import core

    tables = np.arange(1 << 16, dtype=np.uint64)
    small = 1 - 2 * core._unpack(tables, 4).astype(np.int8)
    wide = small.astype(np.int64)
    core._butterfly(small)
    core._butterfly(wide)
    assert small.dtype == np.int8 and small.shape == (1 << 16, 16)
    assert np.array_equal(small, wide)
    assert int(np.abs(wide).max()) == 16
    signs = 1 - 2 * core._unpack(tables, 4).astype(np.int64)
    assert np.array_equal(wide, _defining_sums(signs))
    # wht itself on every 16th table, one row each.
    for bits, row in zip(tables[::16].tolist(), small[::16].tolist()):
        assert cs.wht(cs.TruthTable(4, bits)).coeffs == tuple(row)


def test_butterfly_temporaries_are_bounded():
    # 20 MiB beside a 32 MiB array: at n = 26 a full spectrum's 512 MiB of
    # masks and 512 MiB of values are then most of the memory a wht needs,
    # so it fits a 2 GB budget.
    a = np.ones(1 << 22, dtype=np.int64)
    tracemalloc.start()
    try:
        core._butterfly(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20
    assert a[0] == 1 << 22 and not a[1:].any()


def test_a_padded_spectrum_is_the_size_of_its_support():
    # A Q_4 2-function with 4 terms, padded to Q_24: its transform with its
    # support read, and its embedding from the sparse form, hold nothing of
    # 2**24 entries.  The table's restriction is found first, as a flip
    # count would find it; that scan reads the 2 MiB table itself.
    n = 24
    g = next(g for g in cs.enumerate_spectral(4, 2) if len(cs.wht(g).support()) == 4)
    f = cs.pad_to(g, n)
    f._relevant_part()
    p = cs.sparse_from_truth_table(f)

    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def transform():
        s = cs.wht(f)
        return s, s.support(), cs.relevant_indices(s)

    (s, support, relevant), first = traced(transform)
    embedded, second = traced(lambda: cs.spectrum_from_sparse(p, n))
    assert first < 1 << 20 and second < 1 << 20, (first, second)
    assert len(support) == 4 and relevant == cs.relevant_indices(p)
    assert embedded == s and embedded._values.dtype == s._values.dtype


def test_parseval_exhaustive_n3():
    for bits in range(256):
        f = cs.TruthTable(3, bits)
        assert sum(c * c for c in cs.wht(f).coeffs) == 4**3


def test_roundtrip_exhaustive_n4_sampled():
    rng = random.Random(99)
    for _ in range(500):
        f = cs.TruthTable(4, rng.getrandbits(16))
        assert cs.inverse_wht(cs.wht(f)) == f


def test_inverse_wht_rejects_non_boolean():
    coeffs = [0] * 4
    coeffs[0b01] = 2  # f = x1 / 2 on Q_2
    # Shifting every coefficient of f by 2**51 wraps an int64 butterfly back
    # to f itself; a coefficient past int64 must not overflow either.
    f = cs.TruthTable(13, random.Random(3).getrandbits(1 << 13))
    shifted = [c + 2**51 for c in cs.wht(f).coeffs]
    huge = [2**70] + [0] * ((1 << 13) - 1)
    for spectrum in (
        cs.Spectrum(2, coeffs), cs.Spectrum(13, shifted), cs.Spectrum(13, huge)
    ):
        with pytest.raises(NotBoolean):
            cs.inverse_wht(spectrum)


def test_inverse_wht_names_the_first_bad_vertex():
    # Vertex 0 of the second spectrum is -1, which is Boolean, so its
    # first bad vertex is 1.
    for coeffs, message in (
        ([0, 2, 0, 0], "spectrum evaluates to 1/2 at vertex 0"),
        ([-3, -1, 0, 0], "spectrum evaluates to -1/2 at vertex 1"),
    ):
        with pytest.raises(NotBoolean, match=f"^{message}$"):
            cs.inverse_wht(cs.Spectrum(2, coeffs))


def test_level_k_coefficient_granularity():
    # All mass on level k >= 1 forces coefficients divisible by 2**(n-k+1).
    for n in range(1, 5):
        for k in range(1, n + 1):
            for f in cs.enumerate_truth_tables(n, k):
                grain = 1 << (n - k + 1)
                assert all(c % grain == 0 for c in cs.wht(f).coeffs)


def depends_on(f: cs.TruthTable, i: int) -> bool:
    bit = 1 << (i - 1)
    return any(f.value(v) != f.value(v ^ bit) for v in range(1 << f.n))


def test_relevant_indices_match_definitional_dependence():
    rng = random.Random(4242)
    for _ in range(200):
        f = cs.TruthTable(3, rng.getrandbits(8))
        spectral = cs.relevant_indices(cs.wht(f))
        direct = {i for i in range(1, 4) if depends_on(f, i)}
        assert spectral == direct


def test_relevant_indices_padding():
    f = cs.pad_to(cs.TruthTable.dictator(1, 1), 3)
    assert cs.relevant_indices(cs.wht(f)) == {1}


def reference_scans(s: cs.Spectrum):
    """support, levels, relevant indices and sparse form by enumerate(coeffs):
    the reference for the array reductions."""
    support = [m for m, c in enumerate(s.coeffs) if c]
    union = 0
    for m in support:
        union |= m
    return (
        support,
        frozenset(m.bit_count() for m in support),
        frozenset(i + 1 for i in range(union.bit_length()) if (union >> i) & 1),
        cs.SparsePolynomial({m: (c, s.n) for m, c in enumerate(s.coeffs) if c}),
    )


def test_spectrum_scans_match_enumerate_reference():
    rng = random.Random(20261018)
    spectra = [
        cs.wht(cs.TruthTable(n, bits)) for n in range(4) for bits in range(1 << (1 << n))
    ]
    spectra += [cs.wht(cs.TruthTable(n, rng.getrandbits(1 << n))) for n in (10, 14)]
    spectra += [cs.wht(cs.pad_to(cs.TruthTable(3, 0x96), 10))]
    # Padded tables whose relevant coordinates a random signed automorphism
    # scatters over Q_n, so the scan spreads its hits over coordinates that
    # are not the lowest; their sparse forms embed with the same gaps.
    for n in (7, 9, 11):
        for f in (cs.TruthTable(3, 0x96), cs.TruthTable(5, rng.getrandbits(32))):
            perm = list(range(n))
            rng.shuffle(perm)
            a = cs.SignedAutomorphism(n, 1, rng.getrandbits(n), tuple(perm))
            s = cs.wht(cs.apply(a, cs.pad_to(f, n)))
            spectra += [s, cs.spectrum_from_sparse(cs.sparse_from_spectrum(s), n)]
    # A constant skips every coordinate; the full parity skips none.
    spectra += [cs.wht(cs.TruthTable.constant(8, -1))]
    spectra += [cs.wht(cs.TruthTable.character(9, 511))]
    # Coefficients past int64 and an all-zero spectrum take the same paths.
    spectra += [cs.Spectrum(2, [2**70, 0, -3, 2**64]), cs.Spectrum(3, [0] * 8)]
    for s in spectra:
        support, levels, relevant, sparse = reference_scans(s)
        assert s.support() == support
        assert s.support_levels() == levels
        assert cs.relevant_indices(s) == relevant
        assert cs.sparse_from_spectrum(s) == sparse
        assert all(type(m) is int for m in s.support())
        built = cs.Spectrum(s.n, s.coeffs)
        assert hash(s) == hash(built) and repr(s) == repr(built)


def test_spectrum_coeffs_are_python_ints_and_equal_a_built_spectrum():
    rng = random.Random(12)
    for n in (0, 3, 9, 14):
        f = cs.TruthTable(n, rng.getrandbits(1 << n))
        s = cs.wht(f)
        assert all(type(c) is int for c in s.coeffs)
        assert type(s.coefficient(0).numerator) is int
        built = cs.Spectrum(n, list(s.coeffs))
        assert built == s and hash(built) == hash(s)
        assert cs.Spectrum(n, np.array(s.coeffs)) == s
        assert repr(built) == repr(s)
    huge = cs.Spectrum(1, [2**70, np.int64(-3)])
    assert huge.coeffs == (2**70, -3) and all(type(c) is int for c in huge.coeffs)
    assert huge != cs.Spectrum(1, [2**70, -1])


def test_spectrum_is_read_only_and_copies_its_input():
    f = cs.TruthTable(4, 0xBEEF)
    s = cs.wht(f)
    for stored in (s._masks, s._values):
        with pytest.raises(ValueError):
            stored[0] = 1
    coeffs = list(s.coeffs)
    array = np.array(coeffs)
    built = (cs.Spectrum(4, coeffs), cs.Spectrum(4, array))
    coeffs[0] += 2
    array[0] += 2
    for t in built:
        assert t == s and t.coeffs == cs.wht(f).coeffs
        for stored in (t._masks, t._values):
            with pytest.raises(ValueError):
                stored[1] = 0


def test_spectrum_coefficient_rejects_masks_outside_the_cube():
    s = cs.wht(cs.TruthTable.character(3, 7))
    assert s.coefficient(7) == 1 and s.coefficient(0) == 0
    for mask in (-1, -8, 8, 1 << 40):
        with pytest.raises(ValueError):
            s.coefficient(mask)


def test_spectrum_rejects_non_integer_coefficients():
    for bad in ([1.9, -0.5], [1, 0.0], [True, 0], [np.bool_(True), 0],
                [Fraction(1), 0], ["1", 0], [np.float64(2), 0], [None, 0]):
        with pytest.raises(ValueError):
            cs.Spectrum(1, bad)
    for good in ([np.int64(2), 0], [np.uint8(2), np.int32(-2)], [2**70, 0]):
        assert cs.Spectrum(1, good).coeffs == tuple(int(c) for c in good)


def test_evaluate_sparse():
    p = cs.SparsePolynomial.variable(1)
    assert cs.evaluate_sparse(p, {1: -1}) == -1
    two = cs.lift_pair(
        cs.SparsePolynomial.variable(1), cs.SparsePolynomial.variable(2)
    )
    assert cs.evaluate_sparse(two, {1: 1, 2: 1, 3: 1, 4: 1}) == 1
    assert cs.evaluate_sparse(two, {1: 1, 2: 1, 3: -1, 4: 1}) == -1
    with pytest.raises(MissingVariable):
        cs.evaluate_sparse(two, {1: 1, 2: 1, 3: 1})
    # Integer indices and values only, as Spectrum takes its coefficients.
    for bad in ({1: 0}, {1: True}, {1: 1.0}, {1: -1.0}, {1.0: -1}, {True: 1},
                {1: np.bool_(True)}, {1: Fraction(-1)}, {"1": 1}):
        with pytest.raises(ValueError):
            cs.evaluate_sparse(p, bad)
    assert cs.evaluate_sparse(p, {np.int64(1): np.int8(-1)}) == -1
    assert cs.evaluate_sparse(p, {1: np.int32(1), 64: -1}) == 1


def test_evaluate_sparse_agrees_with_truth_table():
    rng = random.Random(5)
    for _ in range(50):
        f = cs.TruthTable(3, rng.getrandbits(8))
        p = cs.sparse_from_truth_table(f)
        v = rng.randrange(8)
        point = {i + 1: 1 - 2 * ((v >> i) & 1) for i in range(3)}
        assert cs.evaluate_sparse(p, point) == f.value(v)


def fraction_evaluate(p: cs.SparsePolynomial, assignment) -> Fraction:
    """One Fraction per term: the reference for the integer sum."""
    total = Fraction(0)
    for mask, (num, a) in p.terms.items():
        sign = 1
        for i, val in assignment.items():
            if mask >> (i - 1) & 1 and val == -1:
                sign = -sign
        total += Fraction(sign * num, 1 << a)
    return total


def fraction_parseval(p: cs.SparsePolynomial) -> Fraction:
    total = Fraction(0)
    for num, a in p.terms.values():
        total += Fraction(num * num, 1 << (2 * a))
    return total


def random_sparse(rng: random.Random) -> cs.SparsePolynomial:
    """Up to 12 terms with log2_den 0..8, either sign, masks up to bit 63."""
    terms = {}
    for _ in range(rng.randrange(13)):
        mask = rng.getrandbits(64) if rng.random() < 0.5 else rng.getrandbits(6)
        terms[mask] = (rng.choice((-1, 1)) * rng.randrange(1, 300), rng.randrange(9))
    return cs.SparsePolynomial(terms)


def test_sparse_integer_sums_match_fraction_reference():
    rng = random.Random(20261018)
    fixed = [
        cs.SparsePolynomial.zero(),
        cs.SparsePolynomial.constant(-7),
        cs.SparsePolynomial.constant(3, 2),  # 3/4, not +/-1
        cs.SparsePolynomial({1 << 63: (-5, 8), 0b1: (1, 0), 0: (3, 3)}),
    ]
    polys = fixed + [random_sparse(rng) for _ in range(300)]
    for p in polys:
        assert p.parseval_sum() == fraction_parseval(p)
        for _ in range(5):
            point = {i: rng.choice((1, -1)) for i in range(1, 65)}
            assert cs.evaluate_sparse(p, point) == fraction_evaluate(p, point)
    assert cs.evaluate_sparse(fixed[0], {}) == 0
    assert cs.evaluate_sparse(fixed[2], {}) == Fraction(3, 4)


def test_sparse_numerators_exact():
    rng = random.Random(8)
    big = 2**70 + 1
    polys = [
        (cs.SparsePolynomial.zero(), 64, 20),
        (cs.SparsePolynomial.constant(-3, 5), 64, 20),
        # Mask bit 63, the uint64 sign bit, in a term and in the points.
        (cs.SparsePolynomial({1 << 63: (1, 0), (1 << 63) | 1: (-3, 2)}), 64, 50),
        (cs.SparsePolynomial({0: (big, 0), 0b11: (-big, 3), 1 << 40: (3 * big, 1)}), 64, 50),
        # Every term its own numerator class.
        (cs.SparsePolynomial({m: (2 * m + 1, m % 5) for m in range(1, 40)}), 64, 50),
        # One class of 300 terms: its odd counts do not fit a uint8.
        (cs.SparsePolynomial({m: (1, 0) for m in range(300)}), 9, 50),
        # 256 terms in two numerator classes, over 46 variables.
        (cs.max_relevant_construct(5), 46, 300),
    ]
    for p, bits, count in polys:
        negs = [rng.getrandbits(bits) for _ in range(count)]
        top, got = _sparse_numerators(p, np.array(negs, dtype=np.uint64))
        # The scale is the largest denominator, 2**0 for the zero polynomial.
        assert top == (max(a for _, a in p.terms.values()) if p.terms else 0)
        assert all(type(v) is int for v in got)
        want = [
            fraction_evaluate(p, {i + 1: -1 for i in range(bits) if neg >> i & 1})
            for neg in negs
        ]
        assert [Fraction(v, 1 << top) for v in got] == want


def popcount_numerators(
    p: cs.SparsePolynomial, neg: np.ndarray
) -> tuple[int, list[int]]:
    """The popcount route that the parity tables replaced, kept as the
    reference: terms grouped by their numerator at the scale 2**top, one
    popcount per (point, term), and the sum over groups in Python ints.
    Returns ``(top, numerators)`` as the routine under test does."""
    top = max((a for _, a in p.terms.values()), default=0)
    groups: dict[int, list[int]] = {}
    for m, (num, a) in p.terms.items():
        groups.setdefault(num << (top - a), []).append(m)
    if not groups:
        return top, [0] * len(neg)
    masks = np.array([m for ms in groups.values() for m in ms], dtype=np.uint64)
    sizes = np.array([len(ms) for ms in groups.values()])
    parity = np.bitwise_count(neg[:, None] & masks) & 1
    odd = np.add.reduceat(parity, np.cumsum(sizes) - sizes, axis=1, dtype=np.int64)
    values = np.array(list(groups), dtype=object)
    return top, ((sizes - 2 * odd).astype(object) @ values).tolist()


def test_sparse_numerators_match_popcount_route():
    rng = random.Random(20261019)
    polys = [
        cs.SparsePolynomial.zero(),
        # Numerators above 2**63, in classes of one and of two terms.
        cs.SparsePolynomial(
            {1: (2**70 + 1, 0), 1 << 63: (-(2**64) - 1, 0), 3: (5, 0), 5: (5, 0)}
        ),
        # sum(|v| * size) = 2**63 - 1, the largest bound of the int64 sum...
        cs.SparsePolynomial({0b1: (2**62, 0), 0b10: (2**62 - 1, 0)}),
        cs.SparsePolynomial({1 << 63: (2**63 - 1, 0)}),
        # ... and 2**63, which the all-+1 point reaches.
        cs.SparsePolynomial({0b1: (2**62, 0), 0b10: (2**62, 0)}),
        cs.SparsePolynomial({1 << 63: (-(2**63), 0)}),
        cs.max_relevant_construct(5),
    ]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 200)):
            # Half the masks use bit 63, the uint64 sign bit.
            mask = rng.getrandbits(63) | rng.getrandbits(1) << 63
            terms[mask] = (rng.choice((-1, 1)) * rng.randrange(1, 4), rng.randrange(3))
        polys.append(cs.SparsePolynomial(terms))
    for count in (0, 1, 2, 255, 256, 257, 10_000):
        # Points 0 (all +1) and 2**64 - 1 (all -1) come first.
        points = [0, 2**64 - 1] + [rng.getrandbits(64) for _ in range(count)]
        neg = np.array(points[:count], dtype=np.uint64)
        for p in polys:
            top, got = _sparse_numerators(p, neg)
            assert all(type(v) is int for v in got)
            assert (top, got) == popcount_numerators(p, neg), (count, p)
    # Past about 511 terms over 64 bits the tables would exceed
    # _SPARSE_PIECE words: 1,500 terms narrow the windows to 5 bits with
    # pieces of 52 points, and 17,000 terms to 1 bit, where one point's
    # rows alone exceed the bound and a piece is still one point.
    neg = np.array([0, 2**64 - 1] + [rng.getrandbits(64) for _ in range(298)],
                   dtype=np.uint64)
    for count in (1_500, 17_000):
        terms = {}
        while len(terms) < count:
            mask = rng.getrandbits(63) | rng.getrandbits(1) << 63
            terms[mask] = (rng.choice((-1, 1)) * rng.randrange(1, 4), rng.randrange(3))
        p = cs.SparsePolynomial(terms)
        assert _sparse_numerators(p, neg) == popcount_numerators(p, neg), count


def test_sparse_integer_cache_is_invisible():
    p = cs.SparsePolynomial({0b101: (3, 2), 1 << 63: (-1, 1), 0: (1, 0)})
    fresh = cs.SparsePolynomial(dict(p.terms))
    before = (hash(p), repr(p), serialize.function_to_json(p))
    point = {i: -1 for i in range(1, 65)}
    assert cs.evaluate_sparse(p, point) == fraction_evaluate(p, point)
    assert p.parseval_sum() == fraction_parseval(p)
    assert p == fresh and fresh == p
    assert (hash(p), repr(p), serialize.function_to_json(p)) == before
    with pytest.raises(MissingVariable):
        cs.evaluate_sparse(p, {1: 1, 3: 1})
    for bad in (0, 65):
        with pytest.raises(IndexOverflow):
            cs.evaluate_sparse(p, {**point, bad: 1})
    with pytest.raises(ValueError):
        cs.evaluate_sparse(p, {**point, 2: 0})


def test_sparse_normalization_and_equality():
    a = cs.SparsePolynomial({0b1: (2, 2)})  # 2/4 -> 1/2
    b = cs.SparsePolynomial({0b1: (1, 1)})
    assert a == b and a.terms[0b1] == (1, 1)
    zero = cs.SparsePolynomial({0b1: (1, 0)}) - cs.SparsePolynomial.variable(1)
    assert zero == cs.SparsePolynomial.zero() and zero.terms == {}


@pytest.mark.parametrize(
    "terms",
    [
        {1: (1.5, 0)},
        {1.9: (1, 0)},
        {1: (1, 0.5)},
        {1: (Fraction(1), 0)},
        {True: (1, 0)},
        {1: (True, 0)},
        {1: (1, False)},
    ],
)
def test_sparse_rejects_non_integer_fields(terms):
    # int() would turn each of these into a valid term.
    with pytest.raises(ValueError, match="is not an integer"):
        cs.SparsePolynomial(terms)


def test_sparse_accepts_numpy_integer_fields():
    p = cs.SparsePolynomial({np.int64(3): (np.int32(2), np.uint8(1))})
    assert p == cs.SparsePolynomial({3: (1, 0)})


def test_sparse_stores_plain_ints_from_numpy_fields():
    p = cs.SparsePolynomial({np.uint64(5): (np.int64(-12), np.int16(3))})
    assert p.terms == {5: (-3, 1)}
    ((mask, (num, log2_den)),) = p.terms.items()
    assert type(mask) is type(num) is type(log2_den) is int


def _normalize_by_halving(num, log2_den):
    """The reference: one factor of two at a time."""
    while num and log2_den > 0 and num % 2 == 0:
        num //= 2
        log2_den -= 1
    return num, log2_den


def test_normalize_term_matches_halving():
    from cubestable.core import _normalize_term

    cases = [(0, 0), (0, 7), (1, 0), (1, 9), (-1, 0), (-1, 4), (-2, 1)]
    cases += [(-12, 1), (-12, 5), (6, 0), (8, 2), (-8, 3), (-8, 9)]
    odd = 0xDEADBEEF
    for d in (0, 1, 199, 200, 201, 500):
        cases += [(odd << 200, d), (-odd << 200, d), (1 << 200, d)]
    rng = random.Random(29)
    for _ in range(2000):
        num = rng.randrange(-(1 << 70), 1 << 70) << rng.randrange(0, 80)
        cases.append((num, rng.randrange(0, 100)))
    for num, d in cases:
        assert _normalize_term(num, d) == _normalize_by_halving(num, d), (num, d)


def test_sparse_arithmetic_mod_squares():
    x1, x2 = cs.SparsePolynomial.variable(1), cs.SparsePolynomial.variable(2)
    assert (x1 * x1).coefficient(0) == 1  # x**2 = 1
    p = (x1 + x2) * (x1 - x2)
    assert p == cs.SparsePolynomial.zero()


def test_sparse_coefficients_exact():
    two = cs.lift_pair(
        cs.SparsePolynomial.variable(1), cs.SparsePolynomial.variable(2)
    )
    assert two.coefficient(0b0101) == Fraction(1, 2)
    assert two.coefficient(0b1010) == Fraction(-1, 2)
    assert two.parseval_sum() == 1


def test_spectrum_sparse_conversions_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        f = cs.TruthTable(4, rng.getrandbits(16))
        p = cs.sparse_from_truth_table(f)
        assert cs.spectrum_from_sparse(p, 4) == cs.wht(f)


def test_spectrum_from_sparse_matches_the_constructor():
    """The embedded spectrum equals, dtype and all, the one the constructor
    builds from the full list of scaled numerators, with the same hash and
    repr."""

    def built(p, n):
        coeffs = [0] * (1 << n)
        for mask, (num, a) in p.terms.items():
            coeffs[mask] = num << (n - a)
        return cs.Spectrum(n, coeffs)

    rng = random.Random(25)
    polys = [cs.sparse_from_truth_table(cs.TruthTable(4, rng.getrandbits(16)))]
    polys += [cs.SparsePolynomial.zero(), cs.SparsePolynomial.constant(-1)]
    # Numerators past int64 after scaling, one of them negative.
    polys += [cs.SparsePolynomial({0b100: (2**62, 0), 0b1: (-3, 2)})]
    polys += [cs.SparsePolynomial({0b101: (-(2**70), 1), 0: (1, 0)})]
    for p in polys:
        for n in (4, 5, 9):
            s, want = cs.spectrum_from_sparse(p, n), built(p, n)
            assert s == want and s._values.dtype == want._values.dtype
            assert hash(s) == hash(want) and repr(s) == repr(want)
    # The documented order of the errors: dimension, variable, denominator.
    bad = cs.SparsePolynomial({0b1000: (1, 5)})
    for n, error in ((27, DimensionTooLarge), (3, ValueError), (4, NotBoolean)):
        with pytest.raises(error) as caught:
            cs.spectrum_from_sparse(bad, n)
        assert type(caught.value) is error


@pytest.mark.parametrize("index", [0, 65, -1])
def test_variable_index_checks_share_one_message(index):
    p = cs.SparsePolynomial.variable(1)
    entries = (
        lambda: core.mask_from_indices([index]),
        lambda: cs.SparsePolynomial.variable(index),
        lambda: cs.evaluate_sparse(p, {1: 1, index: 1}),
    )
    for entry in entries:
        with pytest.raises(IndexOverflow) as caught:
            entry()
        assert str(caught.value) == f"variable index {index} outside 1..64"


def test_dense_ceiling_and_variable_ceiling():
    with pytest.raises(DimensionTooLarge):
        cs.TruthTable(27, 0)
    with pytest.raises(IndexOverflow):
        cs.SparsePolynomial.variable(65)
    with pytest.raises(IndexOverflow):
        cs.SparsePolynomial({1 << 64: (1, 0)})


def test_truth_table_validation():
    with pytest.raises(ValueError):
        cs.TruthTable(2, 1 << 16)
    with pytest.raises(ValueError):
        cs.TruthTable.from_values(1, [1, 0])
    with pytest.raises(ValueError):
        cs.TruthTable.from_values(1, [1, 1, 1])


def test_neighbours():
    assert cs.neighbours(3, 0) == [1, 2, 4]
    assert cs.neighbours(3, 5) == [4, 7, 1]
    with pytest.raises(ValueError):
        cs.neighbours(2, 4)
