"""The signed automorphism group of Q_n and isomorphism of functions.

An element combines a coordinate permutation sigma in S_n, a pattern alpha
of coordinate sign flips, and a global sign epsilon; there are 2**(n+1) * n!
of them.  Two tables f, g are isomorphic when f = epsilon * (g o phi) for
some such element, i.e. when ``apply(a, g) == f`` for some a.

``alpha`` is a vertex mask: bit j set means coordinate x_{j+1} is negated.
``sigma`` is stored 0-based: ``sigma[j] = s`` means output coordinate j+1
reads input coordinate s+1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator

import numpy as np

from .core import MAX_DENSE_N, TruthTable, _check_dimension, _pack, _unpack
from .errors import DimensionMismatch, DimensionTooLarge, ShrinkNotAllowed

#: Largest n for which the full group scan behind canonical_form is practical.
MAX_CANONICAL_N = 7


class SignedAutomorphism:
    """epsilon * flip(alpha) * permute(sigma), acting on tables over Q_n."""

    __slots__ = ("n", "epsilon", "alpha", "sigma")

    n: int
    epsilon: int
    alpha: int
    sigma: tuple[int, ...]

    def __init__(self, n: int, epsilon: int, alpha: int, sigma: tuple[int, ...]):
        _check_dimension(n)
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not 0 <= alpha < (1 << n):
            raise ValueError(f"alpha out of range for n={n}")
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"sigma is not a permutation of 0..{n - 1}")
        self.n = n
        self.epsilon = epsilon
        self.alpha = alpha
        self.sigma = tuple(sigma)

    @classmethod
    def identity(cls, n: int) -> "SignedAutomorphism":
        return cls(n, 1, 0, tuple(range(n)))

    def vertex_map(self, v: int | np.ndarray) -> int | np.ndarray:
        """The vertex phi(v) whose value the transformed table reads at v."""
        return _permute_mask(self.sigma, v) ^ self.alpha

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedAutomorphism):
            return NotImplemented
        return (self.n, self.epsilon, self.alpha, self.sigma) == (
            other.n,
            other.epsilon,
            other.alpha,
            other.sigma,
        )

    def __hash__(self) -> int:
        return hash((self.n, self.epsilon, self.alpha, self.sigma))

    def __repr__(self) -> str:
        return (
            f"SignedAutomorphism(n={self.n}, epsilon={self.epsilon}, "
            f"alpha=0b{self.alpha:0{max(self.n, 1)}b}, "
            f"sigma={tuple(s + 1 for s in self.sigma)})"
        )


def group_order(n: int) -> int:
    out = 1 << (n + 1)
    for i in range(2, n + 1):
        out *= i
    return out


def group_elements(n: int) -> Iterator[SignedAutomorphism]:
    """All 2**(n+1) * n! elements, in a fixed deterministic order."""
    for sigma in permutations(range(n)):
        for alpha in range(1 << n):
            for epsilon in (1, -1):
                yield SignedAutomorphism(n, epsilon, alpha, sigma)


def _permute_mask(sigma: tuple[int, ...], mask: int | np.ndarray) -> int | np.ndarray:
    """The mask m' with bit j of m' = bit sigma[j] of mask (also elementwise)."""
    out = mask & 0  # an int or an array, like mask
    for j, s in enumerate(sigma):
        out |= ((mask >> s) & 1) << j
    return out


def apply(a: SignedAutomorphism, f: TruthTable) -> TruthTable:
    """The table of epsilon * f(phi(.)).

    phi is built over all 2**n vertices by doubling: phi(0) = alpha, and
    setting input bit s sets output bit j where sigma[j] = s, so the
    vertices 2**s .. 2**(s+1) - 1 map to those below 2**s with that bit
    flipped, one slice operation per coordinate."""
    if a.n != f.n:
        raise DimensionMismatch(f"automorphism on Q_{a.n}, table on Q_{f.n}")
    inv = [0] * a.n
    for j, s in enumerate(a.sigma):
        inv[s] = j
    phi = np.empty(1 << f.n, dtype=np.intp)
    phi[0] = a.alpha
    for s, j in enumerate(inv):
        phi[1 << s : 2 << s] = phi[: 1 << s] ^ (1 << j)
    vals = _unpack(f.bits, f.n)[phi]
    if a.epsilon == -1:
        vals ^= 1
    return TruthTable(f.n, _pack(vals))


def compose(a: SignedAutomorphism, b: SignedAutomorphism) -> SignedAutomorphism:
    """The element c with apply(c, f) == apply(a, apply(b, f)) for all f."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compose elements of Q_{a.n} and Q_{b.n}")
    sigma = tuple(a.sigma[b.sigma[j]] for j in range(a.n))
    alpha = _permute_mask(b.sigma, a.alpha) ^ b.alpha
    return SignedAutomorphism(a.n, a.epsilon * b.epsilon, alpha, sigma)


def inverse(a: SignedAutomorphism) -> SignedAutomorphism:
    """The element b with compose(a, b) == compose(b, a) == identity."""
    inv = [0] * a.n
    for j, s in enumerate(a.sigma):
        inv[s] = j
    sigma = tuple(inv)
    return SignedAutomorphism(a.n, a.epsilon, _permute_mask(sigma, a.alpha), sigma)


@lru_cache(maxsize=8)
def _permutation_tables(n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """S_n in group order and the (n!, 2**n) uint8 table of permuted vertices."""
    sigmas = list(permutations(range(n)))
    vertices = np.arange(1 << n, dtype=np.uint8)
    return sigmas, np.array([_permute_mask(s, vertices) for s in sigmas], np.uint8)


#: Image entries (2**(2n) per permutation) per block of canonical_form:
#: n <= 6 is one block, n = 7 twenty blocks of 256 permutations.  A live
#: n = 7 block holds 1 MB each of weights, product and keys: one n = 7 call
#: in a fresh process peaks at 39 MB RSS, 9 MB above the imported package.
#: Blocks of 2**17 to 2**24 entries took 95 down to 25 ms at n = 7, the
#: least at 2**22; unblocked, one call peaked at 112 MB.
_CANONICAL_BLOCK = 1 << 22


def _check_canonical_n(n: int) -> None:
    if n > MAX_CANONICAL_N:
        raise DimensionTooLarge(
            f"canonical_form scans 2**(n+1) n! maps; n={n} exceeds {MAX_CANONICAL_N}"
        )


def _image_weights(perm: np.ndarray) -> np.ndarray:
    """The matrix that packs images, built from permutation rows by one
    scatter.

    Vertices fall in chunks of min(32, 2**n).  Row c * len(perm) + s holds,
    in column u, 2**(v mod 32) for the v in chunk c that perm[s] maps to u.
    """
    count, size = perm.shape
    width = min(32, size)
    vertices = np.arange(size)
    weights = np.zeros((size // width * count, size))
    scatter = (vertices // width * count + np.arange(count)[:, None]) * size + perm
    weights.ravel()[scatter] = np.exp2(vertices % width)
    return weights


@lru_cache(maxsize=8)
def _group_weights(n: int) -> np.ndarray:
    """:func:`_image_weights` over all of S_n, kept like the permutation
    tables (n <= 6): 30 KB at n = 5 and 0.7 MB at n = 6."""
    weights = _image_weights(_permutation_tables(n)[1])
    weights.flags.writeable = False
    return weights


def _packed_images(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Entry [w, s * 2**n + alpha]: word w of g read with its vertices
    reversed, where g is f (a 0/1 array) read through
    phi(v) = perm[s, v] ^ alpha and negated where f(alpha) = -1 so that it
    starts with +1, and weights were built from the rows perm.

    Words are little-endian, as packed tables are: word w holds 64 vertices
    (all 2**n when n < 6), vertex v at bit v mod 64.  Reversing the vertex
    order, v -> v ^ (2**n - 1), is the translate by 2**n - 1, itself a
    group element.  So each column is the packed table of an image of f,
    up to sign; over all of S_n, these images and their complements are
    f's orbit.  And read most significant word first, each column is g's
    value sequence g(0), g(1), ... as a big-endian key, so the least key
    is the least sequence.
    """
    size = len(vals)
    vertices = np.arange(size)
    # Entry [u, alpha] of shifted is f(u ^ alpha ^ (2**n - 1)) with that sign.
    shifted = (vals[vertices[::-1, None] ^ vertices] ^ vals).astype(np.float64)
    # Each entry of the product sums distinct powers of two below 2**32, so
    # every partial sum is an integer below 2**53: exact in float64 in any
    # order of summation.
    chunks = (weights @ shifted).astype(np.uint64)
    chunks = chunks.reshape(size // min(32, size), -1)
    if len(chunks) == 1:
        return chunks
    high = chunks[1::2]
    high <<= 32
    high |= chunks[0::2]
    return high


def _orbit(f: TruthTable) -> np.ndarray:
    """Every table in f's orbit, packed as uint64, repeats included (n <= 6).

    One product, as in :func:`canonical_form`: 0.03 ms at n = 5 and
    1.5-1.8 ms at n = 6 (2-core Xeon, weights cached).
    """
    images = _packed_images(_unpack(f.bits, f.n), _group_weights(f.n))[0]
    return np.concatenate([images, images ^ ((1 << (1 << f.n)) - 1)])


def canonical_form(f: TruthTable) -> tuple[TruthTable, SignedAutomorphism]:
    """The orbit representative of f along with a witness reaching it.

    The representative is the orbit member whose value sequence
    f(0), f(1), ... is lexicographically smallest with +1 < -1; i.e. the
    member whose packed bits, read vertex 0 first, are smallest.  The
    witness is the first element in :func:`group_elements` order that
    reaches it, and ``apply(witness, f) == representative`` is re-checked
    before returning.

    Brute force over the whole group: one matrix product packs f read
    through all 2**n n! vertex maps (each translate of f read through each
    coordinate permutation) into keys (:func:`_packed_images`), then one
    minimum over the keys.  One random table takes 0.05-0.09 ms at n = 5,
    0.8-1.4 ms at n = 6 and 0.026-0.030 s at n = :data:`MAX_CANONICAL_N`
    (2-core Xeon, after the permutation tables, and at n <= 6 the weights,
    are cached; building them at n = 7 takes 0.1 s once), so no budget is
    needed.  Refused beyond n = :data:`MAX_CANONICAL_N`.
    """
    n = f.n
    _check_canonical_n(n)
    size = 1 << n
    vals = _unpack(f.bits, n)
    sigmas, perm = _permutation_tables(n)
    step = max(1, _CANONICAL_BLOCK >> (2 * n))
    best_key: tuple[int, ...] = ()
    best_row = 0
    for start in range(0, len(sigmas), step):
        # A sequence and its complement differ at vertex 0, so only the
        # packed one, which starts with +1, can be least.  Rows run in group
        # order, so argmin finds the first least key.
        if step >= len(sigmas):  # one block: the cached whole-group weights
            weights = _group_weights(n)
        else:
            weights = _image_weights(perm[start : start + step])
        keys = _packed_images(vals, weights)[::-1]
        if len(keys) == 1:
            row = int(keys[0].argmin())
        else:  # n = 7: two words, compared in turn
            ties = np.flatnonzero(keys[0] == keys[0].min())
            row = int(ties[keys[1, ties].argmin()])
        key = tuple(int(word) for word in keys[:, row])
        # Strict <, like argmin: ties keep the earlier block.
        if not best_key or key < best_key:
            best_key, best_row = key, start * size + row
    sigma_index, alpha = divmod(best_row, size)
    epsilon = -1 if vals[alpha] else 1
    witness = SignedAutomorphism(n, epsilon, alpha, sigmas[sigma_index])
    sequence = "".join(f"{word:0{min(64, size)}b}" for word in best_key)
    rep = TruthTable(n, int(sequence[::-1], 2))
    if apply(witness, f) != rep:
        raise AssertionError("canonical witness failed re-verification")
    return rep, witness


def are_isomorphic(f: TruthTable, g: TruthTable) -> SignedAutomorphism | None:
    """A witness a with apply(a, g) == f, or None if no such element exists.

    Both tables must share n; pad the smaller one first with :func:`pad_to`.
    Any returned witness is re-verified before being handed back.
    """
    if f.n != g.n:
        raise DimensionMismatch(
            f"tables on Q_{f.n} and Q_{g.n}; pad_to a common dimension first"
        )
    rep_f, wit_f = canonical_form(f)
    rep_g, wit_g = canonical_form(g)
    if rep_f != rep_g:
        return None
    # apply(wit_f, f) == apply(wit_g, g), so f == apply(wit_f^-1 . wit_g, g).
    witness = compose(inverse(wit_f), wit_g)
    if apply(witness, g) != f:
        raise AssertionError("isomorphism witness failed re-verification")
    return witness


def pad_to(f: TruthTable, n: int) -> TruthTable:
    """f viewed on Q_n, ignoring the new coordinates.

    Padding preserves isomorphism in both directions, so tables of unequal
    dimension are compared by padding the smaller one up.
    """
    if n < f.n:
        raise ShrinkNotAllowed(f"cannot pad from n={f.n} down to n={n}")
    if n > MAX_DENSE_N:
        raise DimensionTooLarge(
            f"dense representations support n <= {MAX_DENSE_N}, got n={n}"
        )
    return TruthTable(n, _pack(np.tile(_unpack(f.bits, f.n), 1 << (n - f.n))))
