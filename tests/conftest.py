import pytest

from cubestable import TruthTable, enumerate_truth_tables


@pytest.fixture(scope="session")
def kfn():
    """Cached k-function lists per (n, k), shared across the whole run."""
    cache: dict[tuple[int, int], list[TruthTable]] = {}

    def get(n: int, k: int) -> list[TruthTable]:
        if (n, k) not in cache:
            cache[(n, k)] = list(enumerate_truth_tables(n, k))
        return cache[(n, k)]

    return get


@pytest.fixture(scope="session")
def two_function_q4(kfn):
    """The 4-variable 2-function (x1 x3 + x2 x3 + x1 x4 - x2 x4)/2."""
    import cubestable as cs

    h = cs.lift_pair(cs.TruthTable.dictator(2, 1), cs.TruthTable.dictator(2, 2))
    assert isinstance(h, cs.TruthTable)
    return h


@pytest.fixture(scope="session")
def scatter():
    """scatter(f, n, rng): f padded to Q_n, its coordinates moved by a
    random signed automorphism, so its relevant ones are not the lowest."""
    import cubestable as cs

    def scattered(f: TruthTable, n: int, rng) -> TruthTable:
        perm = list(range(n))
        rng.shuffle(perm)
        a = cs.SignedAutomorphism(n, rng.choice((1, -1)), rng.getrandbits(n), tuple(perm))
        return cs.apply(a, cs.pad_to(f, n))

    return scattered
