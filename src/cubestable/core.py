"""Exact representations of functions on the Boolean hypercube Q_n.

Conventions, used consistently across the whole package:

* Vertices of Q_n are the integers 0 .. 2**n - 1.  Bit j (0-based) of a
  vertex stores coordinate x_{j+1}: bit clear means x_{j+1} = +1, bit set
  means x_{j+1} = -1.  Two vertices are adjacent iff they differ in one bit.
* A character chi_S is identified with its subset mask (bit j <-> index
  j+1) and chi_S(v) = (-1) ** popcount(S & v).
* A :class:`TruthTable` packs one bit per vertex into a Python int: bit v is
  set iff f(v) = -1.
* A :class:`Spectrum` stores the integer-scaled coefficients
  ``coeffs[S] = 2**n * fhat(S)`` as their support only: the ascending masks
  of the nonzero coefficients and the coefficients at them, two read-only
  numpy arrays (the values int64, or Python ints past int64).  ``coeffs``
  scatters them over all 2**n masks as Python ints.  For a +/-1-valued f,
  Parseval reads ``sum(c*c for c in coeffs) == 4**n`` exactly.
  :func:`wht` transforms only the coordinates R that f depends on, so its
  cost and its spectrum's size follow 2**|R|, not 2**n.
* A :class:`SparsePolynomial` stores only nonzero coefficients, each as a
  dyadic rational ``num / 2**log2_den`` keyed by its mask.  Masks may use
  variable indices up to 64, independent of any ambient n.

Values at the API are integers and Fractions.  The one float computation,
the matrix product that packs group images in :mod:`.group`, holds only
integers below 2**53, where float64 is exact.

All three classes are immutable after construction (a TruthTable's
restriction to its relevant coordinates is filled in lazily but never
changes an observable value), so instances can be shared freely across
threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionTooLarge,
    IndexOverflow,
    MissingVariable,
    NotBoolean,
)

#: Largest n for which dense 2**n-entry representations are allowed.  The
#: table is 8 MiB at n = 26, but a spectrum with no zero coefficient holds
#: 512 MiB of int64 masks and as much of values.  One ``wht`` of a random
#: table on every coordinate, with its support read or not, takes 3.8-4.0 s
#: and 1134 MB peak RSS there in a fresh process (0.8-1.0 s and 303 MB at
#: n = 24, on a 2-core Xeon); as one dense array the spectrum took 622 MB
#: alone and 1646 MB with its support read (177 / 431 MB at n = 24).  So
#: n = 26 fits a 2 GB budget.  Anything bigger stays sparse.
MAX_DENSE_N = 26

#: Largest 1-based variable index a sparse polynomial may mention.
MAX_VAR_INDEX = 64


def indices_from_mask(mask: int) -> list[int]:
    """1-based variable indices present in a bit mask, ascending."""
    return [j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1]


def mask_from_indices(indices: Iterable[int]) -> int:
    """The bit mask of 1-based variable indices; each must lie in 1..64."""
    mask = 0
    for i in indices:
        if not 1 <= i <= MAX_VAR_INDEX:
            raise IndexOverflow(f"variable index {i} outside 1..{MAX_VAR_INDEX}")
        mask |= 1 << (i - 1)
    return mask


def _check_dimension(n: int) -> None:
    if not 0 <= n <= MAX_DENSE_N:
        raise DimensionTooLarge(
            f"dense representations support 0 <= n <= {MAX_DENSE_N}, got n={n}"
        )


def neighbours(n: int, v: int) -> list[int]:
    """The n vertices adjacent to v in Q_n, in coordinate order."""
    if not 0 <= v < (1 << n):
        raise ValueError(f"vertex {v} outside Q_{n}")
    return [v ^ (1 << j) for j in range(n)]


class TruthTable:
    """A +/-1-valued function on Q_n, packed one bit per vertex.

    ``bits`` has bit v set iff f(v) = -1, so the all-+1 constant is 0.
    """

    __slots__ = ("n", "bits", "_part")

    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        _check_dimension(n)
        size = 1 << n
        if not 0 <= bits < (1 << size):
            raise ValueError(f"truth table bits out of range for n={n}")
        self.n = n
        self.bits = bits
        self._part: tuple[int, int] | None = None

    def _relevant_part(self) -> tuple[int, int]:
        """:func:`_constant_coordinates` of the table, cached: the
        coordinates f does not depend on, and f on the others."""
        if self._part is None:
            self._part = _constant_coordinates(self.bits, self.n)
        return self._part

    @classmethod
    def constant(cls, n: int, value: int = 1) -> "TruthTable":
        if value not in (1, -1):
            raise ValueError("value must be +1 or -1")
        return cls(n, 0 if value == 1 else (1 << (1 << n)) - 1)

    @classmethod
    def character(cls, n: int, mask: int) -> "TruthTable":
        """The table of chi_S for the subset mask S."""
        _check_dimension(n)
        if not 0 <= mask < (1 << n):
            raise ValueError(f"character mask {mask} outside Q_{n}")
        parity = np.bitwise_count(np.arange(1 << n) & mask) & 1
        return cls(n, _pack(parity))

    @classmethod
    def dictator(cls, n: int, i: int) -> "TruthTable":
        """The coordinate function x_i (1-based index)."""
        if not 1 <= i <= n:
            raise ValueError(f"dictator index {i} outside 1..{n}")
        return cls.character(n, 1 << (i - 1))

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "TruthTable":
        """Build from f(0), f(1), ... as +/-1 values."""
        _check_dimension(n)
        vals = list(values)
        for v, val in enumerate(vals):
            if val not in (1, -1):
                raise ValueError(f"value at vertex {v} is {val}, not +/-1")
        if len(vals) != (1 << n):
            raise ValueError(f"expected {1 << n} values, got {len(vals)}")
        return cls(n, _pack(np.array(vals) == -1))

    def value(self, v: int) -> int:
        """f(v) as +1 or -1."""
        if not 0 <= v < (1 << self.n):
            raise ValueError(f"vertex {v} outside Q_{self.n}")
        return 1 - 2 * ((self.bits >> v) & 1)

    def values(self) -> list[int]:
        return (1 - 2 * _unpack(self.bits, self.n).astype(np.int64)).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        digits = max(1, -(-(1 << self.n) // 4))
        return f"TruthTable(n={self.n}, bits=0x{self.bits:0{digits}x})"


def _check_integer_type(t: type, what: str) -> None:
    # Check types, not values: bool is an int, and int() would silently
    # truncate a float.
    if t is bool or not issubclass(t, (int, np.integer)):
        raise ValueError(f"{what} of type {t.__name__} is not an integer")


class Spectrum:
    """Integer-scaled Fourier coefficients of a function on Q_n, held as
    their support.

    ``coeffs[S] = 2**n * fhat(S)``, indexed by subset mask.  Only the
    nonzero ones are stored: ``_masks`` holds their masks, ascending, and
    ``_values`` the coefficients at them, int64 if every one fits, else
    Python ints.  Both are read-only.
    """

    __slots__ = ("n", "_masks", "_values")

    n: int
    _masks: np.ndarray
    _values: np.ndarray

    def __init__(self, n: int, coeffs: Iterable[int]):
        _check_dimension(n)
        cs = list(coeffs)
        if len(cs) != (1 << n):
            raise ValueError(f"expected {1 << n} coefficients, got {len(cs)}")
        for t in set(map(type, cs)):
            _check_integer_type(t, "coefficient")
        a = _exact_array(cs)
        masks = np.flatnonzero(a)
        self._set(n, masks, a[masks])

    def _set(self, n: int, masks: np.ndarray, values: np.ndarray) -> "Spectrum":
        masks.flags.writeable = False
        values.flags.writeable = False
        self.n, self._masks, self._values = n, masks, values
        return self

    def _terms(self) -> dict[int, int]:
        """The nonzero coefficients as Python ints, by ascending mask."""
        return dict(zip(self._masks.tolist(), self._values.tolist()))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients as Python ints, by mask."""
        a = np.zeros(1 << self.n, dtype=self._values.dtype)
        a[self._masks] = self._values
        return tuple(a.tolist())

    def coefficient(self, mask: int) -> Fraction:
        """The exact Fourier coefficient fhat(S)."""
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"coefficient mask {mask} outside Q_{self.n}")
        i = int(np.searchsorted(self._masks, mask))
        hit = i < len(self._masks) and self._masks[i] == mask
        return Fraction(int(self._values[i]) if hit else 0, 1 << self.n)

    def support(self) -> list[int]:
        """Masks with nonzero coefficient, ascending."""
        return self._masks.tolist()

    def support_levels(self) -> frozenset[int]:
        """The set of popcounts occurring in the support."""
        # Marking the popcounts builds no array wider than their uint8s.
        seen = np.zeros(MAX_DENSE_N + 1, dtype=bool)
        seen[np.bitwise_count(self._masks)] = True
        return frozenset(np.flatnonzero(seen).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._masks, other._masks)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._terms().items())))

    def __repr__(self) -> str:
        return f"Spectrum(n={self.n}, nonzero={self._terms()})"


def _exact_array(values: list) -> np.ndarray:
    """Integers as one array: int64 if every one fits, else Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def _normalize_term(num: int, log2_den: int) -> tuple[int, int]:
    """Reduce num / 2**log2_den to lowest terms (num odd or log2_den 0).

    One shift strips min(trailing zeros of num, log2_den) factors of two;
    num & -num is num's lowest set bit, for negative num too.  A zero
    numerator keeps its log2_den.
    """
    if not num:
        return num, log2_den
    s = min((num & -num).bit_length() - 1, log2_den)
    return num >> s, log2_den - s


class SparsePolynomial:
    """A multilinear polynomial over x_1..x_64 with dyadic coefficients.

    Stored as ``{mask: (num, log2_den)}`` with zero coefficients dropped and
    every fraction in lowest terms, so equal polynomials compare equal.
    Unlike :class:`TruthTable` there is no ambient dimension: the polynomial
    is a function of whichever variables it mentions.
    """

    __slots__ = ("terms",)

    terms: dict[int, tuple[int, int]]

    def __init__(self, terms: Mapping[int, tuple[int, int]]):
        clean: dict[int, tuple[int, int]] = {}
        for mask, (num, log2_den) in terms.items():
            # Terms from this class's own arithmetic are plain ints already.
            if not type(mask) is type(num) is type(log2_den) is int:
                for what, x in (("mask", mask), ("num", num), ("log2_den", log2_den)):
                    _check_integer_type(type(x), what)
                mask, num, log2_den = int(mask), int(num), int(log2_den)
            if mask < 0 or mask.bit_length() > MAX_VAR_INDEX:
                raise IndexOverflow(
                    f"term mask uses a variable index beyond {MAX_VAR_INDEX}"
                )
            if log2_den < 0:
                raise ValueError("log2_den must be >= 0")
            if not num & 1:  # an odd numerator is in lowest terms already
                num, log2_den = _normalize_term(num, log2_den)
            if num:
                clean[mask] = (num, log2_den)
        self.terms = clean

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls({})

    @classmethod
    def constant(cls, num: int, log2_den: int = 0) -> "SparsePolynomial":
        return cls({0: (num, log2_den)})

    @classmethod
    def variable(cls, i: int) -> "SparsePolynomial":
        """The coordinate function x_i (1-based index)."""
        return cls({mask_from_indices((i,)): (1, 0)})

    def coefficient(self, mask: int) -> Fraction:
        num, a = self.terms.get(mask, (0, 0))
        return Fraction(num, 1 << a)

    def support(self) -> list[int]:
        """Masks with nonzero coefficient, ascending."""
        return sorted(self.terms)

    def support_levels(self) -> frozenset[int]:
        return frozenset(m.bit_count() for m in self.terms)

    def relevant_mask(self) -> int:
        """OR of all support masks: the variables the polynomial mentions."""
        out = 0
        for m in self.terms:
            out |= m
        return out

    def parseval_sum(self) -> Fraction:
        """sum of squared coefficients, exactly."""
        top = max((a for _, a in self.terms.values()), default=0)
        total = sum(num * num << 2 * (top - a) for num, a in self.terms.values())
        return Fraction(total, 1 << (2 * top))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        acc = dict(self.terms)
        for mask, term in other.terms.items():
            _accumulate(acc, mask, term)
        return SparsePolynomial(acc)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(
            {m: (-num, a) for m, (num, a) in self.terms.items()}
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        """Product, using x_i**2 = 1 (masks combine by XOR)."""
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        acc: dict[int, tuple[int, int]] = {}
        for m1, (n1, a1) in self.terms.items():
            for m2, (n2, a2) in other.terms.items():
                _accumulate(acc, m1 ^ m2, (n1 * n2, a1 + a2))
        return SparsePolynomial(acc)

    def scaled(self, num: int, log2_den: int) -> "SparsePolynomial":
        """The polynomial times num / 2**log2_den."""
        return SparsePolynomial(
            {m: (n * num, a + log2_den) for m, (n, a) in self.terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.terms})"


def _accumulate(
    acc: dict[int, tuple[int, int]], mask: int, term: tuple[int, int]
) -> None:
    """acc[mask] += term, both sides dyadic (num, log2_den)."""
    num2, a2 = term
    if mask in acc:
        num1, a1 = acc[mask]
        a = max(a1, a2)
        num = (num1 << (a - a1)) + (num2 << (a - a2))
        num, a = _normalize_term(num, a)
        if num:
            acc[mask] = (num, a)
        else:
            del acc[mask]
    elif num2:
        acc[mask] = _normalize_term(num2, a2)


def _unpack(bits: int | np.ndarray, n: int) -> np.ndarray:
    """Table bits as a uint8 0/1 array over the last axis, vertex v at [v].

    ``bits`` is one packed table (any n) or a uint64 array of them (n <= 6,
    one row per entry).  The inverse of :func:`_pack`; every conversion
    between packed ints and arrays goes through these two.
    """
    size = 1 << n
    if isinstance(bits, np.ndarray):
        raw = bits.astype("<u8")[..., None].view(np.uint8)
    else:
        raw = np.frombuffer(bits.to_bytes(-(-size // 8), "little"), np.uint8)
    return np.unpackbits(raw, axis=-1, count=size, bitorder="little")


def _pack(arr: np.ndarray) -> int:
    """The packed table whose bit v is set iff arr[v] is nonzero."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


#: Most entries of the transposed copy that :func:`_butterfly` runs its low
#: stages on, and so the bound on its temporaries: 1 MiB of int64, which
#: stays in a core's cache (a block of 2**17 entries beat one of 2**20 by
#: about 20% at n = 22 and 24 on a 2-core Xeon).
_BUTTERFLY_BLOCK = 1 << 17


def _butterfly(a: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly over the last axis of a C-contiguous
    signed integer array.

    The last axis has length 2**n; any leading axes are a batch.  Each
    stage at most doubles the largest absolute value, the 2 * y of an
    update included, so inputs bounded by B stay within B * 2**n and any
    signed integer dtype that holds B * 2**n works.  For +/-1 inputs on
    Q_n that is 2**n: int8 serves up to n = 6, and int64 every n <= 26.
    A +/-1 function's spectrum (B = 2**n, as in :func:`inverse_wht`)
    stays within 2**(2n) <= 2**52, inside int64.

    The stages come in two groups, so that numpy's inner loops run long in
    both.  Let s be half the bit length of ``a.size`` (ceil(log2(a.size) / 2)
    for a power of two), but at most n and at most log2(_BUTTERFLY_BLOCK).

    * Coordinates s and above pair entries at least 2**s apart.  They run
      in place over the whole array.
    * Coordinates below s pair entries within a row of 2**s.  Blocks of
      whole rows, at most ``_BUTTERFLY_BLOCK`` entries each, are copied
      transposed, so that each pair is two whole rows of the copy.  The
      stages run there, and the block is written back.

    Every update is in place, so the copy is the only temporary: at most
    ``_BUTTERFLY_BLOCK`` entries, whatever n is.
    """
    m = a.shape[-1]
    s = min(
        m.bit_length() - 1, a.size.bit_length() // 2, _BUTTERFLY_BLOCK.bit_length() - 1
    )
    w = 1 << s
    rows = a.reshape(-1, w)
    step = _BUTTERFLY_BLOCK // w
    for r in range(0, len(rows), step):
        block = rows[r : r + step].T.copy()
        _stages(block, block.shape[1], 1, w)
        rows[r : r + step] = block.T
    _stages(a, 1, w, m)


def _stages(a: np.ndarray, run: int, h: int, stop: int) -> None:
    """The butterfly stages h, 2h, ... below ``stop`` over a contiguous
    array read as runs of ``run`` entries: run i pairs with run i + h."""
    while h < stop:
        pairs = a.reshape(-1, 2, h * run)
        x = pairs[:, 0]
        y = pairs[:, 1]
        # y becomes x - y without a temporary: (x + y) - 2y.
        x += y
        y *= -2
        y += x
        h *= 2


@lru_cache(maxsize=None)
def _half_masks(n: int) -> tuple[tuple[int, int], ...]:
    """For each coordinate j < n, the shift 2**j that pairs v with v ^ 2**j
    and the packed vertices of Q_n whose bit j is clear (where
    x_{j+1} = +1): runs of 2**j set and 2**j clear bits, doubled up to
    2**n bits."""
    out = []
    for j in range(n):
        mask, width = (1 << (1 << j)) - 1, 2 << j
        while width < 1 << n:
            mask |= mask << width
            width *= 2
        out.append((1 << j, mask))
    return tuple(out)


def _disagreements(
    bits: int | np.ndarray, n: int
) -> Iterator[tuple[int, int | np.ndarray]]:
    """For each coordinate j < n in turn, the pair (2**j, d_j): d_j packs
    the vertices v with bit j clear at which f(v) != f(v ^ 2**j).  The
    table depends on coordinate j iff d_j is nonzero.

    ``bits`` is one packed table (an int, any n) or a uint64 array of them
    (n <= 6, one table per entry); the same shifts and masks serve both.
    A generator, so that only one d_j of 2**n bits is held at a time.
    """
    for b, half in _half_masks(n):
        d = bits >> b
        d ^= bits
        d &= half
        yield b, d


#: The Q_6 shifts and masks, those of one 64-vertex word.
_WORD_HALVES = _half_masks(6)


def _constant_coordinates(bits: int, n: int) -> tuple[int, int]:
    """The coordinates a packed table on Q_n does not depend on, and the
    table on the others.

    The first value is a mask: bit j is set iff f(v) == f(v ^ 2**j) for
    every v.  The second is f at x_j = +1 for every such j: a packed table
    on Q_|R| over the relevant coordinates R, lowest first: its vertex i is
    the vertex of Q_n that spreads i's bits over R, lowest first (``bits``
    itself when R is every coordinate).  :func:`wht` and
    :func:`.kfunctions.uniform_flip_count` run on it.

    The first 64 vertices, a Q_6 table, rule out almost every coordinate of
    a table that depends on all of them: j < 6 within that word, j >= 6 by
    comparing it with the word 2**j vertices on.  For n <= 6 that word is
    the whole table.  Past it, the candidates left standing are checked
    together: the table restricted to the other coordinates, broadcast
    back over the candidates, must equal the table word for word.  Only if
    it does not is the whole table scanned coordinate by coordinate, as
    uint64 words: j < 6 by :func:`_disagreements` with its Q_6 masks,
    j >= 6 by comparing the words 2**(j - 6) apart.  So no mask of 2**n
    bits is built.
    """
    low = bits & 0xFFFF_FFFF_FFFF_FFFF
    same = 0
    # The loop of _disagreements(low, min(n, 6)), inlined: it runs on every
    # table, where the generator would cost about as much as the test.
    for b, half in _WORD_HALVES[:n]:
        if not (low ^ (low >> b)) & half:
            same |= b
    if n <= 6:
        if same:
            # The kept positions below 2**n lead the word's.
            kept = _kept_bits(same)[: 1 << (n - same.bit_count())]
            bits = _pack(_unpack(bits, n)[kept])
        return same, bits
    raw = bits.to_bytes(1 << (n - 3), "little")
    head = raw[:8]
    for j in range(6, n):
        at = 1 << (j - 3)
        if raw[at : at + 8] == head:
            same |= 1 << j
    if not same:
        return 0, bits
    words = np.frombuffer(raw, "<u8")
    part = _word_axes(words, n, same)
    # The restriction broadcast back over the candidates: length-1 axes for
    # j >= 6, and within a word each bit a copy of the one with every
    # candidate j < 6 clear.  A one-word restriction is word 0, which the
    # candidates j < 6 were found on.
    back = part
    if part.size > 1:
        for b, half in _WORD_HALVES:
            if same & b:
                back = back & np.uint64(half)
                back |= back << np.uint64(b)
    if not (words.reshape((2,) * (n - 6)) == back).all():
        if same & 0x3F:
            for b, d in _disagreements(words, 6):
                if same & b and d.any():
                    same ^= b
        for j in range(6, n):
            if same >> j & 1:
                pairs = words.reshape(-1, 2, 1 << (j - 6))
                if not np.array_equal(pairs[:, 0], pairs[:, 1]):
                    same ^= 1 << j
        part = _word_axes(words, n, same)
    if same & 0x3F:
        return same, _pack(_unpack(part.ravel(), 6)[:, _kept_bits(same & 0x3F)])
    return same, int.from_bytes(part.tobytes(), "little")


@lru_cache(maxsize=None)
def _kept_bits(skip: int) -> np.ndarray:
    """The positions within a 64-vertex word whose bits in ``skip`` (a mask
    below 2**6) are clear, ascending."""
    kept = np.flatnonzero(np.arange(64) & skip == 0)
    kept.flags.writeable = False
    return kept


def _word_axes(words: np.ndarray, n: int, skip: int) -> np.ndarray:
    """The 2**(n - 6) words of a table on Q_n shaped (2,) * (n - 6), axis i
    for coordinate n - 1 - i, each coordinate j >= 6 in ``skip`` cut to its
    x_j = +1 half as an axis of length 1."""
    keep = tuple(
        slice(0, 1) if skip >> j & 1 else slice(None) for j in range(n - 1, 5, -1)
    )
    return words.reshape((2,) * (n - 6))[keep]


def wht(f: TruthTable) -> Spectrum:
    """The integer-scaled Walsh-Hadamard spectrum of f.

    ``wht(f).coeffs[S] == sum(f(v) * chi_S(v) for v) == 2**n * fhat(S)``.
    Each call transforms anew and returns a new spectrum.

    Only the coordinates R that f depends on are transformed: the butterfly
    runs on f restricted to x_j = +1 for every j outside R, the table on
    Q_|R| that :func:`_constant_coordinates` gives (kept on ``f``, so a
    flip count of f made it already).  Its spectrum, times 2**(n - |R|),
    gives the coefficients of the masks within R, and every other
    coefficient is 0.  The cost is that scan plus 2**|R| * |R| butterfly
    updates, and the arrays it holds have 2**|R| entries: the butterfly's,
    then the nonzero coefficients and their masks.
    """
    n = f.n
    skip, part = f._relevant_part()
    # The butterfly runs on the bits u = (1 - f) / 2 themselves, so no
    # full pass maps them to +/-1: wht(f) = 2**n * [S = 0] - 2 * wht(u),
    # and each coefficient on Q_|R| stands for 2**(n - |R|) on Q_n.
    a = _unpack(part, n - skip.bit_count()).astype(np.int64)
    _butterfly(a)
    a *= -2 << skip.bit_count()
    a[0] += 1 << n
    nonzero = a != 0
    values = a[nonzero]
    # Freed before the hits are listed, so that the butterfly's array and
    # the masks are never held together.
    del a
    masks = np.flatnonzero(nonzero)
    if skip:
        # Hit i's bits spread over R, lowest first, which keeps their order.
        # The bits that move the same distance, a run of R, move together.
        moves: dict[int, int] = {}
        kept = [c for c in range(n) if not skip >> c & 1]
        for i, j in enumerate(kept):
            moves[j - i] = moves.get(j - i, 0) | 1 << i
        hits, masks = masks, np.zeros_like(masks)
        for shift, bits in moves.items():
            masks |= (hits & bits) << shift
    return Spectrum.__new__(Spectrum)._set(n, masks, values)


def inverse_wht(s: Spectrum) -> TruthTable:
    """The +/-1-valued function with spectrum s, as a new table.

    Raises :class:`NotBoolean` if the coefficients do not describe a
    +/-1-valued function; an empty support evaluates to 0 everywhere.
    """
    size = 1 << s.n
    # No +/-1 function has a coefficient beyond 2**n; rejecting those first
    # keeps the int64 butterfly below 2**52.
    if ((s._values > size) | (s._values < -size)).any():
        raise NotBoolean(f"a coefficient exceeds 2**{s.n} in absolute value")
    a = np.zeros(size, dtype=np.int64)
    a[s._masks] = s._values
    _butterfly(a)
    # The butterfly applied twice multiplies by 2**n.  Comparing against
    # both signs builds only boolean temporaries, not an int64 np.abs(a).
    bad = np.flatnonzero((a != size) & (a != -size))
    if bad.size:
        v = int(bad[0])
        raise NotBoolean(
            f"spectrum evaluates to {Fraction(int(a[v]), size)} at vertex {v}"
        )
    return TruthTable(s.n, _pack(a < 0))


def relevant_indices(obj: Spectrum | SparsePolynomial) -> frozenset[int]:
    """The 1-based variable indices the function actually depends on.

    For a spectrum or polynomial this is the union of its support masks;
    coordinate i is relevant exactly when some nonzero coefficient's mask
    contains it.
    """
    if isinstance(obj, Spectrum):
        union = int(np.bitwise_or.reduce(obj._masks))
    elif isinstance(obj, SparsePolynomial):
        union = obj.relevant_mask()
    else:
        raise TypeError(f"expected Spectrum or SparsePolynomial, got {type(obj)!r}")
    return frozenset(indices_from_mask(union))


#: Most uint64 words that :func:`_sparse_numerators` holds in its parity
#: tables, and in the table rows one piece of points gathers: 128 KiB each,
#: and more only where 2-row tables or a single point need it.  Pieces of
#: 2**15 words ran criterion 7's 10,000 points about 5% faster, but added
#: about 0.5 MB to the peak RSS of ``verify`` (2-core Xeon, numpy 2.4).
_SPARSE_PIECE = 1 << 14


def _sparse_numerators(
    p: SparsePolynomial, neg: np.ndarray
) -> tuple[int, list[int]]:
    """``(top, numerators)``: top is the largest log2_den of p's terms (0
    for none), and numerators holds ``2**top * p`` at each point, exactly,
    as Python ints.

    ``neg`` is a uint64 array with one point per entry: bit j set means
    x_{j+1} = -1.  Term t is negated at a point iff the point and t's mask
    share an odd number of bits.  The terms, grouped by their numerator at
    the scale 2**top, are the bits of a bitset, each group a run: term t is
    bit t % 64 of word t // 64, and one spare zero word ends it.  A cut is
    the bit where a run starts, or the term count; ``cut_word`` and
    ``cut_high`` give its word and that word's bits at and above it.  Row i
    of ``uses`` holds the terms whose mask has bit i.  Each point gets the
    bitset of its negated terms from parity tables:

    * The point's bits are cut into windows of w bits.  Window j's table has
      one bitset per value v of the window: bit t is the parity of t's mask
      and v there.  Tables are built by doubling: row v | 2**i is row v XOR
      the row of ``uses`` for the window's bit i.
    * A point's bitset is the XOR of one table row per window.
    * The ``size`` terms sharing one scaled numerator v are a run of bits;
      with ``odd`` of them set, they contribute v * (size - 2*odd).

    w grows with the batch (2**w <= points, w <= 8), so a single point
    builds 2-row tables only, and the tables and each piece of points stay
    near ``_SPARSE_PIECE`` words.  Each point's sum over the runs, partial
    sums included, is at most sum(|v| * size) in absolute value, so it runs
    in int64 when that bound is below 2**63 and in Python ints otherwise:
    the result is exact however large the numerators are.
    """
    top = max((a for _, a in p.terms.values()), default=0)
    if not p.terms or not len(neg):
        return top, [0] * len(neg)
    groups: dict[int, list[int]] = {}
    for m, (num, a) in p.terms.items():
        groups.setdefault(num << (top - a), []).append(m)
    sizes = [len(ms) for ms in groups.values()]
    fits = sum(abs(v) * s for v, s in zip(groups, sizes)) < 1 << 63
    values = np.array(list(groups), dtype=np.int64 if fits else object)
    masks = np.array([m for ms in groups.values() for m in ms], dtype=np.uint64)
    cuts = np.cumsum([0] + sizes, dtype=np.uint64)
    cut_word, cut_high = cuts >> 6, ~np.uint64(0) << (cuts & 63)
    nbits, words = max(1, p.relevant_mask().bit_length()), len(masks) // 64 + 1
    w = min(8, max(1, len(neg).bit_length() - 1))
    while w > 1 and (-(-nbits // w) << w) * words > _SPARSE_PIECE:
        w -= 1
    windows = -(-nbits // w)
    bits = np.zeros((windows * w, 64 * words), dtype=np.uint8)
    # A mask's 64 bits unpack as a Q_6 table's do.
    bits[:nbits, : len(masks)] = _unpack(masks, 6)[:, :nbits].T
    uses = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    uses = uses.reshape(windows, w, words)
    tables = np.zeros((windows, 1 << w, words), dtype=np.uint64)
    for i in range(w):
        tables[:, 1 << i : 2 << i] = tables[:, : 1 << i] ^ uses[:, i, None]
    tables = tables.reshape(-1, words)
    shifts = np.arange(0, windows * w, w, dtype=np.uint64)[:, None]
    first_row = np.arange(windows)[:, None] << w
    piece = max(1, _SPARSE_PIECE // (windows * words))
    out: list[int] = []
    for lo in range(0, len(neg), piece):
        # Window by window, so that the XOR runs over the outer axis.
        at = (neg[lo : lo + piece] >> shifts) & np.uint64((1 << w) - 1)
        rows = np.take(tables, at.astype(np.intp) + first_row, axis=0)
        parity = np.bitwise_xor.reduce(rows, axis=0)
        # Set bits before each cut: those of the words up to the cut's word,
        # less those of its word at and above the cut.
        upto = np.cumsum(np.bitwise_count(parity), axis=1, dtype=np.int64)
        at_cut = parity[:, cut_word] & cut_high
        before = upto[:, cut_word] - np.bitwise_count(at_cut)
        counts = np.array(sizes, dtype=np.int64) - 2 * np.diff(before, axis=1)
        out += (counts.astype(values.dtype) @ values).tolist()
    return top, out


def evaluate_sparse(p: SparsePolynomial, assignment: Mapping[int, int]) -> Fraction:
    """Evaluate p at a +/-1 point given as {variable index: value}.

    Every relevant variable must be assigned; extra assignments are ignored.
    Indices and values must be integers (numpy integers too, bool not), as
    :class:`Spectrum` requires of its coefficients, and values +/-1; any
    other raises ValueError, and an index outside 1..64 IndexOverflow.
    The point goes through :func:`_sparse_numerators` as a one-entry batch,
    which builds p's term bitsets and 2-row parity tables on each call and
    sums the groups of equal scaled numerators in int64 where their bound
    allows and in Python ints otherwise, so the result is exact without any
    bound on the numerators.  The one Fraction, over the scale 2**top that
    the batch returns, is built at the return.
    """
    neg = 0
    given = 0
    for i, val in assignment.items():
        if not type(i) is type(val) is int:
            _check_integer_type(type(i), "variable index")
            _check_integer_type(type(val), f"assignment for x_{i}")
            i, val = int(i), int(val)
        bit = mask_from_indices((i,))
        if val not in (1, -1):
            raise ValueError(f"assignment for x_{i} is {val}, not +/-1")
        given |= bit
        if val == -1:
            neg |= bit
    missing = p.relevant_mask() & ~given
    if missing:
        raise MissingVariable(f"no value given for x_{indices_from_mask(missing)}")
    top, (total,) = _sparse_numerators(p, np.array([neg], dtype=np.uint64))
    return Fraction(total, 1 << top)


def sparse_from_spectrum(s: Spectrum) -> SparsePolynomial:
    """The polynomial with coefficient fhat(S) on each support mask of s."""
    return SparsePolynomial({m: (c, s.n) for m, c in s._terms().items()})


def sparse_from_truth_table(f: TruthTable) -> SparsePolynomial:
    return sparse_from_spectrum(wht(f))


def spectrum_from_sparse(p: SparsePolynomial, n: int) -> Spectrum:
    """Embed a polynomial on variables within 1..n as a spectrum on Q_n.

    Raises :class:`DimensionTooLarge` if n is past the dense ceiling,
    ValueError if p mentions a variable beyond n, or :class:`NotBoolean` if
    a coefficient is not a multiple of 1/2**n, in that order.  The spectrum
    holds p's terms scaled by 2**n, by ascending mask, in int64 if every
    one fits, as the constructor would build it from all 2**n of them.
    """
    _check_dimension(n)
    if p.relevant_mask() >> n:
        raise ValueError(f"polynomial mentions variables beyond x_{n}")
    scaled = {}
    for mask, (num, a) in p.terms.items():
        if a > n:
            raise NotBoolean(
                f"coefficient {num}/2**{a} is finer than the 2**-{n} grid of Q_{n}"
            )
        scaled[mask] = num << (n - a)
    masks = sorted(scaled)
    return Spectrum.__new__(Spectrum)._set(
        n, np.array(masks, dtype=np.intp), _exact_array([scaled[m] for m in masks])
    )
