"""Exact law of the +/-1 word a simple random walk reads off a function.

Walk model: X_0 uniform on V(Q_n); each step moves to a uniformly random
neighbour; the word is (f(X_0), ..., f(X_L)), L+1 letters.  Everything is
exact rational arithmetic — the point is to *prove* distributional
equalities, which sampling cannot.

For a k-function every vertex sees exactly k of its n neighbours disagree,
so the observed sign flips with probability k/n at every step regardless of
where the walk is; that closed form is :func:`markov_scenery`, and
:func:`exact_scenery` is the model-level dynamic program it must match.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping

import numpy as np

from .core import TruthTable, _unpack
from .errors import BudgetExceeded, KOutOfRange, ShapeMismatch, ZeroDimension

#: Ceiling on the number of steps (word space 2**(L+1)).
MAX_STEPS = 12

#: Ceiling on 2**n * 2**(L+1), the vertex-word cells the exact DP may hold.
MAX_DP_CELLS = 1 << 20

Word = tuple[int, ...]

_LETTERS = frozenset((1, -1))


class SceneryDistribution:
    """Exact distribution over +/-1 words of length L+1.

    ``probs`` maps words to positive Fractions; zero-probability words are
    omitted, so equal distributions have equal mappings.
    """

    __slots__ = ("n", "L", "probs")

    n: int
    L: int
    probs: dict[Word, Fraction]

    def __init__(self, n: int, L: int, probs: Mapping[Word, Fraction]):
        self.n = n
        self.L = L
        self.probs = {w: p for w, p in probs.items() if p}
        if set(map(len, self.probs)) - {L + 1} or set().union(*self.probs) - _LETTERS:
            w = next(w for w in self.probs if len(w) != L + 1 or set(w) - _LETTERS)
            raise ValueError(f"malformed word {w} for L={L}")

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))

    def probability(self, word: Word) -> Fraction:
        return self.probs.get(tuple(word), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SceneryDistribution):
            return NotImplemented
        return (self.n, self.L, self.probs) == (other.n, other.L, other.probs)

    def __repr__(self) -> str:
        return f"SceneryDistribution(n={self.n}, L={self.L}, words={len(self.probs)})"


def exact_scenery(f: TruthTable, L: int) -> SceneryDistribution:
    """The word distribution under the walk model, by dynamic programming.

    The DP holds one int64 row per surviving word prefix: entry v counts
    the walks that read the prefix and are now at v.  A step adds the n
    neighbour gathers of every row and splits the result by the letter
    read at v; rows that are all zero are dropped.  After L steps row w
    sums to 2**n * n**L * P(w), so Fractions appear only at the return.
    Raises :class:`BudgetExceeded` if L > MAX_STEPS, or if the DP could
    hold more than MAX_DP_CELLS vertex-word cells, before any work.
    """
    if f.n < 1:
        raise ZeroDimension("the walk needs at least one coordinate to move")
    if L < 0:
        raise ValueError("step count must be >= 0")
    if L > MAX_STEPS:
        raise BudgetExceeded(f"L={L} exceeds the {MAX_STEPS}-step ceiling")
    n = f.n
    size = 1 << n
    if size << (L + 1) > MAX_DP_CELLS:
        raise BudgetExceeded(
            f"2**{n} vertices x 2**{L + 1} words exceeds the {MAX_DP_CELLS}-cell ceiling"
        )
    # An entry after t steps counts t-step walks into v, so it is at most
    # n**t, and a row sums to at most 2**n * n**L.  Under the two ceilings
    # (2**n * 2**(L+1) <= 2**20, L <= 12) that is at most 2**41 (n = 8,
    # L = 11), so int64 cannot overflow.
    minus = _unpack(f.bits, n).astype(np.int64)
    # letters[0] is 1 where f reads +1, letters[1] where it reads -1.
    letters = np.stack([1 - minus, minus])
    flips = np.arange(size) ^ (1 << np.arange(n))[:, None]
    # step 0: weight 1 on every vertex, split by the letter read there.
    state = letters
    # codes[r] spells row r's word in binary, first letter highest and a
    # set bit for -1, so the rows stay in the order of their +/- strings.
    codes = np.arange(2)
    for step in range(L + 1):
        if step:
            spread = state[:, flips[0]]
            for flip in flips[1:]:
                spread += state[:, flip]
            # The rows of word + (1,) and word + (-1,) sit side by side.
            state = (spread[:, None, :] * letters).reshape(-1, size)
            codes = (2 * codes[:, None] + np.arange(2)).ravel()
        live = state.any(axis=1)
        state = state[live]
        codes = codes[live]
    signs = 1 - 2 * ((codes[:, None] >> np.arange(L, -1, -1)) & 1)
    norm = size * n**L
    totals = state.sum(axis=1).tolist()
    # Equal totals share one Fraction; a k-function's law has at most L + 1.
    shared = {t: Fraction(t, norm) for t in set(totals)}
    probs = map(shared.__getitem__, totals)
    return SceneryDistribution(n, L, dict(zip(map(tuple, signs.tolist()), probs)))


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
    flip = Fraction(k, n)
    stay = 1 - flip
    # P(w) depends only on the number c of sign changes in w.
    by_changes = [flip**c * stay ** (L - c) / 2 for c in range(L + 1)]
    probs: dict[Word, Fraction] = {}
    for word in product((1, -1), repeat=L + 1):
        p = by_changes[sum(a != b for a, b in zip(word, word[1:]))]
        if p:
            probs[word] = p
    return SceneryDistribution(n, L, probs)


def distributions_equal(a: SceneryDistribution, b: SceneryDistribution) -> bool:
    """Exact equality on every word; requires matching (n, L) shapes."""
    if a.n != b.n or a.L != b.L:
        raise ShapeMismatch(
            f"shapes (n={a.n}, L={a.L}) and (n={b.n}, L={b.L}) differ"
        )
    return a.probs == b.probs
