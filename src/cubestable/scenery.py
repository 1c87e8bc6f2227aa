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

from .core import TruthTable
from .errors import BudgetExceeded, KOutOfRange, ShapeMismatch, ZeroDimension

#: Ceiling on the number of steps (word space 2**(L+1)).
MAX_STEPS = 12

#: Ceiling on 2**n * 2**(L+1), the vertex-word cells the exact DP may hold.
MAX_DP_CELLS = 1 << 20

Word = tuple[int, ...]


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
        for w in self.probs:
            if len(w) != L + 1 or not all(s in (1, -1) for s in w):
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

    Per surviving word prefix the DP carries the vector of unnormalized
    weights P(prefix read, walk now at v), scaled by 2**n * n**step so all
    entries stay integers; Fractions appear only in the final summation.
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
    values = f.values()
    # step 0: weight 1 on every vertex, split by the letter read there.
    state: dict[Word, list[int]] = {}
    for s in (1, -1):
        vec = [1 if values[v] == s else 0 for v in range(size)]
        if any(vec):
            state[(s,)] = vec
    for _ in range(L):
        nxt: dict[Word, list[int]] = {}
        for word, vec in state.items():
            spread = [0] * size
            for v, w in enumerate(vec):
                if w:
                    for j in range(n):
                        spread[v ^ (1 << j)] += w
            for s in (1, -1):
                out = [spread[v] if values[v] == s else 0 for v in range(size)]
                if any(out):
                    nxt[word + (s,)] = out
        state = nxt
    norm = (1 << n) * n**L
    return SceneryDistribution(
        n, L, {w: Fraction(sum(vec), norm) for w, vec in state.items()}
    )


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
