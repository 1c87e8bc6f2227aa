"""Exact law of the +/-1 word a simple random walk reads off a function.

Walk model: X_0 uniform on V(Q_n); each step moves to a uniformly random
neighbour; the word is (f(X_0), ..., f(X_L)), L+1 letters.  Everything is
exact integer arithmetic — the point is to *prove* distributional
equalities, which sampling cannot.

A law is held as integers only: the ascending codes of the words of
positive probability (bit L - i set when letter i is -1, so ascending codes
are in the order of the ``+``/``-`` strings), one positive integer weight
per word, and one integer ``norm``, reduced by their common gcd, so that
P(word) = weight / norm and equal laws have equal fields.

For a k-function every vertex sees exactly k of its n neighbours disagree,
so the observed sign flips with probability k/n at every step regardless of
where the walk is; that closed form is :func:`markov_scenery`, and
:func:`exact_scenery` is the model-level law it must match.

On a k-function's two level sets each letter names the set the walk is in,
so every word has one path through them and its weight is a product: the
first letter's level-set size, times n - k for every step that keeps the
sign and k for every step that changes it (:func:`_chain_law`, which
:func:`markov_scenery` shares with equal start weights).  Any other table
is walked vertex by vertex, by the dynamic program of
:func:`_exact_sceneries`.  Criterion 10 of ``verify`` checks that vertex
DP against :func:`markov_scenery`, so that check does not assume the
lumping onto the level sets it would prove.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

import numpy as np

from .core import TruthTable, _unpack
from .errors import BudgetExceeded, KOutOfRange, ShapeMismatch, ZeroDimension
from .kfunctions import _uniform_flips

#: Ceiling on the number of steps (word space 2**(L+1)).
MAX_STEPS = 12

#: Ceiling on 2**n * 2**(L+1), the vertex-word cells the exact DP may hold.
MAX_DP_CELLS = 1 << 20

Word = tuple[int, ...]

#: Most steps a hand-built law may have: its L + 1 letter bits must fit
#: an int64 code.
MAX_CODE_STEPS = 62

_LETTERS = frozenset((1, -1))


def _code(word: Word, L: int) -> int:
    """The word's code: bit L - i set when letter i is -1."""
    return sum(1 << (L - i) for i, s in enumerate(word) if s == -1)


class SceneryDistribution:
    """Exact distribution over +/-1 words of length L+1.

    ``codes`` is a read-only int64 array of the ascending codes of the words
    of positive probability (bit L - i set when letter i is -1), and the
    probability of word ``codes[r]`` is its weight over ``norm``: each
    weight is a positive integer, and the weights and ``norm`` share no
    common factor, so equal distributions have equal fields.  The weights
    are kept as one read-only array, int64 whenever every weight fits (an
    ``exact_scenery`` law always does) and Python ints (an object array)
    when one does not; ``weights`` gives them as a tuple of Python ints.
    ``probs`` builds the ``{word: Fraction}`` mapping on access, and
    ``probability`` finds one word's code by binary search.  The
    constructor takes such a mapping for any L up to ``MAX_CODE_STEPS``,
    omits its zero entries and rejects negative ones.
    """

    __slots__ = ("n", "L", "codes", "_w", "norm")

    n: int
    L: int
    codes: np.ndarray
    _w: np.ndarray
    norm: int

    def __init__(self, n: int, L: int, probs: Mapping[Word, Fraction]):
        if not 0 <= L <= MAX_CODE_STEPS:
            raise ValueError(
                f"step count must be in 0..{MAX_CODE_STEPS}, got L={L}"
            )
        by_code: dict[int, Fraction] = {}
        for w, p in probs.items():
            if len(w) != L + 1 or set(w) - _LETTERS:
                raise ValueError(f"malformed word {w} for L={L}")
            p = Fraction(p)
            if p < 0:
                raise ValueError(f"negative probability {p} for word {w}")
            if p:
                by_code[_code(w, L)] = p
        codes = sorted(by_code)
        norm = lcm(*(p.denominator for p in by_code.values()))
        weights = [int(by_code[c] * norm) for c in codes]
        self._set(
            n, L, np.array(codes, dtype=np.int64), np.array(weights, dtype=object), norm
        )

    def _set(
        self, n: int, L: int, codes: np.ndarray, weights: np.ndarray, norm: int
    ) -> None:
        """Store ascending codes and their positive weights over ``norm``,
        divided by their common gcd.  ``weights`` is an int64 array, or an
        object array of Python ints where int64 could overflow; the latter
        is narrowed to int64 when every weight, once divided, fits."""
        g = gcd(norm, int(np.gcd.reduce(weights)))
        weights = weights // g
        if weights.dtype == object and max(weights.tolist(), default=0) < 1 << 63:
            weights = weights.astype(np.int64)
        codes.flags.writeable = False
        weights.flags.writeable = False
        self.n = n
        self.L = L
        self.codes = codes
        self._w = weights
        self.norm = norm // g

    @property
    def weights(self) -> tuple[int, ...]:
        """The weights as Python ints, one per code."""
        return tuple(self._w.tolist())

    def _minus_bits(self) -> np.ndarray:
        """Row r holds the L+1 letters of word ``codes[r]``, first letter
        first, as uint8: 1 for -1 and 0 for +1.  One unpack of the codes'
        big-endian bytes puts bit 63 - c of each code in column c."""
        bits = np.unpackbits(self.codes.astype(">u8").view(np.uint8))
        return bits.reshape(-1, 64)[:, 63 - self.L :]

    def _weight_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct weights, ascending, and for every word in code order
        the index of its weight among them, from one ``np.unique``.  A
        k-function's law has at most L + 1 distinct weights, so whatever is
        made of a weight is made once for each of them."""
        return np.unique(self._w, return_inverse=True)

    @property
    def probs(self) -> dict[Word, Fraction]:
        distinct, classes = self._weight_classes()
        shared = [Fraction(w, self.norm) for w in distinct.tolist()]
        words = map(tuple, (1 - 2 * self._minus_bits().astype(np.int8)).tolist())
        return dict(zip(words, map(shared.__getitem__, classes.tolist())))

    def total(self) -> Fraction:
        return Fraction(sum(self._w.tolist()), self.norm)

    def probability(self, word: Word) -> Fraction:
        word = tuple(word)
        if len(word) != self.L + 1 or set(word) - _LETTERS:
            return Fraction(0)
        code = _code(word, self.L)
        r = int(np.searchsorted(self.codes, code))
        if r < len(self.codes) and self.codes[r] == code:
            return Fraction(int(self._w[r]), self.norm)
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SceneryDistribution):
            return NotImplemented
        return (
            (self.n, self.L, self.norm) == (other.n, other.L, other.norm)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self._w, other._w)
        )

    def __repr__(self) -> str:
        return f"SceneryDistribution(n={self.n}, L={self.L}, words={len(self.codes)})"


def _check_scenery_size(n: int, L: int) -> None:
    """Refuse an exact scenery DP on Q_n over L steps: ZeroDimension if
    n < 1, ValueError if L < 0, and :class:`BudgetExceeded` if L > MAX_STEPS
    or if the DP could hold more than MAX_DP_CELLS vertex-word cells.  It
    needs only n, so a sparse function can be refused before it is
    densified."""
    if n < 1:
        raise ZeroDimension("the walk needs at least one coordinate to move")
    if L < 0:
        raise ValueError("step count must be >= 0")
    if L > MAX_STEPS:
        raise BudgetExceeded(f"L={L} exceeds the {MAX_STEPS}-step ceiling")
    # Exponents, not the cell count: n is a sparse file's declared n, and
    # 2**n alone may not fit in memory.  2**e > MAX_DP_CELLS exactly when
    # e >= MAX_DP_CELLS.bit_length().
    if n + L + 1 >= MAX_DP_CELLS.bit_length():
        raise BudgetExceeded(
            f"2**{n} vertices x 2**{L + 1} words exceeds the {MAX_DP_CELLS}-cell ceiling"
        )


def exact_scenery(f: TruthTable, L: int) -> SceneryDistribution:
    """The word distribution under the walk model, exactly.

    A k-function's law is the product of :func:`_chain_law`: every vertex
    has n - k neighbours of its own sign and k of the other, so a walk on
    its two level sets, the +1 set of 2**n - w vertices and the -1 set of
    w, where w counts the table's -1 vertices, stays with n - k of the n
    coordinates and changes with the other k.  The constants (k = 0, one
    set empty) and the full parity (k = n) are k-functions too.  Any other
    table is walked on its vertices, as :func:`_exact_sceneries` on a batch
    of one.

    Raises as :func:`_check_scenery_size` does, before any work.
    """
    n = f.n
    _check_scenery_size(n, L)
    k = _uniform_flips(f.bits, n)
    if k < 0:
        return _exact_sceneries([f], L)[0]
    w = f.bits.bit_count()
    return _chain_law(n, k, L, (1 << n) - w, w)


def _exact_sceneries(fs: Sequence[TruthTable], L: int) -> list[SceneryDistribution]:
    """:func:`exact_scenery` of every table of a batch, by one walk DP on
    the vertices of every table.

    The batch never takes the product on the level sets, even for
    k-functions: criterion 10 runs it so that each table's law comes from
    a walk over all of its vertices, which is what it checks against
    :func:`markov_scenery`.

    Table b's vertex v is column b * 2**n + v, and its neighbour across
    coordinate j is column b * 2**n + (v ^ 2**j).  The state holds one row
    per surviving word prefix: entry (w, v) counts the walks that read the
    prefix w and are now at vertex v.  Each of the first L letters splits
    every row by the letter read at each vertex (a row is dropped once it
    is zero in every table), and a step then sums the n neighbours of
    every entry.  The last letter is split and summed over each table's
    vertices, not kept as rows.  L = 0 takes the same path with no step.
    Table b's sum for a word w is 2**n * n**L * P(w): the nonzero sums are
    the law's weights as they are, over that norm.

    All tables must share n (else :class:`ShapeMismatch`).  Beside the
    guards of :func:`_check_scenery_size`, the batch must hold at most
    MAX_DP_CELLS vertex-word cells in all, B * 2**n * 2**(L+1)
    (:class:`BudgetExceeded`); both are checked before any work.  An empty
    batch gives an empty list.
    """
    if not fs:
        return []
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ShapeMismatch(f"a batch mixes dimensions {sorted({f.n for f in fs})}")
    _check_scenery_size(n, L)
    if (len(fs) << n) << (L + 1) > MAX_DP_CELLS:
        raise BudgetExceeded(
            f"{len(fs)} tables x 2**{n} vertices x 2**{L + 1} words exceeds "
            f"the {MAX_DP_CELLS}-cell ceiling"
        )
    # An entry after t steps counts t-step walks into a vertex, so it is at
    # most n**t, reached when every walk into the vertex reads one word (a
    # constant table): the state takes the narrowest unsigned dtype that
    # holds n**L (uint16 for criterion 10, n = 4, L = 6).  A table's part
    # of a row sums to at most 2**n * n**L, which under the two ceilings
    # (2**n * 2**(L+1) <= 2**20, L <= 12) is at most 2**41 (n = 8, L = 11):
    # the sums are taken in int64.
    dtype = np.min_scalar_type(n**L)
    # Each table unpacks on its own: a uint64 array of tables stops at n = 6.
    minus = np.stack([_unpack(f.bits, n) for f in fs]).astype(dtype)
    tables, size = minus.shape
    minus = minus.ravel()
    maps = np.arange(minus.size) ^ (1 << np.arange(n))[:, None]
    # letters[0] is 1 where a vertex reads +1, letters[1] where it reads -1.
    letters = np.array([[1], [0]], dtype=dtype) ^ minus
    # spread holds the walks into each vertex before it reads its letter:
    # at step 0 one from each vertex, under the empty word.  codes[r]
    # spells row r's word in binary, first letter highest and a set bit for
    # -1, so the rows stay in the order of their +/- strings.  codes stays
    # None while no row has been dropped, as row r then spells r.
    spread = np.ones((1, minus.size), dtype=dtype)
    codes = None
    letter = np.arange(2)
    # When both letters are read somewhere, a row with no zero entry splits
    # into two live rows, so one test of the whole spread can stand in for
    # the test of each row.
    both = minus.any() and not minus.all()
    for _ in range(L):
        # The rows of word + (1,) and word + (-1,) sit side by side.
        state = (spread[:, None, :] * letters).reshape(-1, len(minus))
        if codes is not None:
            codes = (2 * codes[:, None] + letter).ravel()
        if not (both and spread.all()):
            live = state.any(axis=1)
            if not live.all():
                state = state[live]
                codes = np.flatnonzero(live) if codes is None else codes[live]
        # One gather of all n maps, then their sum: two numpy calls a step,
        # where a loop over the maps makes 2n - 1.  Its temporary is n
        # times the state, at most 32 MiB under the ceilings (n = 8, L = 11).
        spread = state[:, maps].sum(axis=1, dtype=dtype)
    # The last letter: of each table's part of a row, the walks that end on
    # a +1 vertex and those that end on a -1 vertex.
    spread = spread.reshape(-1, 1, tables, size)
    letters = letters.reshape(2, tables, size)
    sums = (spread * letters).sum(axis=3, dtype=np.int64).reshape(-1, tables)
    if codes is None:
        codes = np.arange(len(sums))
    else:
        codes = (2 * codes[:, None] + letter).ravel()
    laws = []
    for weights in sums.T:
        live = weights > 0
        dist = SceneryDistribution.__new__(SceneryDistribution)
        dist._set(n, L, codes[live], weights[live], (1 << n) * n**L)
        laws.append(dist)
    return laws


def _chain_law(n: int, k: int, L: int, plus: int, minus: int) -> SceneryDistribution:
    """The law of the two-state chain that starts on +1 with weight
    ``plus`` and on -1 with ``minus`` and at each step stays with weight
    n - k and changes sign with weight k, over (plus + minus) * n**L.

    With (plus, minus) = (2**n - w, w) it is the walk on a k-function's
    level sets: each letter names its level set, so a word has one path
    through them.
    """
    # Code c's first letter is its bit L, and its sign changes are the set
    # bits of c ^ c >> 1 below bit L.
    codes = np.arange(2 << L)
    changes = np.bitwise_count((codes ^ codes >> 1) & ((1 << L) - 1))
    # A weight is at most max(plus, minus) * n**L, as every
    # k**c * (n - k)**(L - c) is at most n**L: int64 while that is below
    # 2**63, and Python ints (an object array) past it, since n is unbounded.
    dtype = np.int64 if max(plus, minus) * n**L < 1 << 63 else object
    by_changes = np.array(
        [k**c * (n - k) ** (L - c) for c in range(L + 1)], dtype=dtype
    )
    weights = np.array([plus, minus], dtype=dtype)[codes >> L] * by_changes[changes]
    # A word has weight zero when it starts on an empty level set, changes
    # sign with k = 0 or stays with k = n.
    live = weights > 0
    dist = SceneryDistribution.__new__(SceneryDistribution)
    dist._set(n, L, codes[live], weights[live], (plus + minus) * n**L)
    return dist


def markov_scenery(n: int, k: int, L: int) -> SceneryDistribution:
    """The closed-form scenery law shared by every k-function on Q_n.

    P(w) = 1/2 * prod over steps of (k/n on a sign change, else (n-k)/n).
    Needs k >= 1: for k = 0 the first letter is not a fair coin (the
    function is a constant), so there is no single closed form to share.
    """
    if n < 1:
        raise ZeroDimension("n must be >= 1")
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    if L < 0:
        raise ValueError("step count must be >= 0")
    if L > MAX_STEPS:
        raise BudgetExceeded(f"L={L} exceeds the {MAX_STEPS}-step ceiling")
    return _chain_law(n, k, L, 1, 1)


def distributions_equal(a: SceneryDistribution, b: SceneryDistribution) -> bool:
    """Exact equality on every word; requires matching (n, L) shapes."""
    if a.n != b.n or a.L != b.L:
        raise ShapeMismatch(
            f"shapes (n={a.n}, L={a.L}) and (n={b.n}, L={b.L}) differ"
        )
    return a == b
