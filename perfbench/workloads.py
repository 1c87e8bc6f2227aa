"""Request streams for the three workloads, and their correctness checks.

Every request is a ``cubestable`` command line.  Function files are part of
a request's identity: a request is keyed by its arguments with each file
replaced by the SHA-256 of its content, and ``data/pins.json`` maps every
key to the exit code and stdout digest that the program gave when the pins
were made (``pin.py``).  Which requests a run sends depends on its seed;
the set it draws from does not, so every possible request is pinned.

Function files are written by this module's own helpers (hex packing,
padding, Walsh-Hadamard for the sparse form); the census checks use its own
complement map and sum-of-squares count.  None of it calls the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_FILE = HERE / "data" / "kfunctions.json"
PINS_FILE = HERE / "data" / "pins.json"
GOLDEN_TABLE = ROOT / "src" / "cubestable" / "data" / "count_table_n4.csv"

WORKLOADS = ("verify", "census5", "session")

#: Seed of the fixed request catalogs the session draws from.  Changing it
#: changes the catalogs, so the pins must be made again.
CATALOG_SEED = 2105

#: Requests per class in one session round.  The class counts are fixed; a
#: run's seed picks only catalog entries (functions, source dimension of a
#: padded pair) and the order.  Entries of one class cost about the same,
#: so the seed hardly moves the work in a round.  Of the 210 requests, the
#: ten above the nearest-rank p95 are the n = 18 lift, the two budget
#: failures and seven of the twenty n = 16 lifts, so p95 falls inside the
#: n = 16 class.  The p50 falls among the n = 5 canonical forms.
SESSION_COUNTS = {
    "canon_table": 40,
    "canon_sparse": 20,
    "isomorphic": 30,
    "scenery_l8": 16,
    "scenery_l10": 14,
    "lemma7_n14": 16,
    "lemma7_n16": 20,
    "lemma7_n18": 1,
    "max_relevant": 10,
    "uncoverable4": 3,
    "sos_bounds": 12,
    "sos_fbound": 12,
    "enumerate_n4": 10,
    "fail_usage": 4,
    "fail_budget": 2,
}


# -- function files ---------------------------------------------------------


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def table_bits(hex_le: str) -> int:
    """Packed bits of a little-endian truth-table hex string."""
    return int(hex_le[::-1], 16)


def table_doc(n: int, bits: int) -> str:
    digits = max(1, (1 << n) // 4)
    return dumps({"n": n, "encoding": "truth_table_hex",
                  "truth_table": f"{bits:0{digits}x}"[::-1]})


def pad_bits(bits: int, n: int, m: int) -> int:
    """The table on Q_n viewed on Q_m (m >= n), ignoring new coordinates."""
    block = 1 << n
    for _ in range(m - n):
        bits |= bits << block
        block <<= 1
    return bits


def parity_bits(n: int) -> int:
    """Bit v set iff popcount(v) is odd: the table of chi_[n]."""
    return sum(1 << v for v in range(1 << n) if v.bit_count() & 1)


def sparse_doc(n: int, bits: int) -> str:
    """The sparse (Fourier) file of a table, by a direct transform."""
    size = 1 << n
    vals = [1 - 2 * ((bits >> v) & 1) for v in range(size)]
    terms = []
    for mask in range(size):
        c = sum(vals[v] * (1 - 2 * ((mask & v).bit_count() & 1))
                for v in range(size))
        if not c:
            continue
        den = n
        while c % 2 == 0 and den:
            c //= 2
            den -= 1
        terms.append({"vars": [j + 1 for j in range(n) if mask >> j & 1],
                      "num": c, "log2_den": den})
    terms.sort(key=lambda t: tuple(t["vars"]))
    return dumps({"n": n, "encoding": "sparse", "terms": terms})


def sos_count(q: int, t: int) -> int:
    """#{x in Z^t : |x|^2 = q}, by a direct recurrence."""
    row = [1] + [0] * q
    for _ in range(t):
        row = [row[r] + 2 * sum(row[r - x * x] for x in range(1, isqrt(r) + 1))
               for r in range(q + 1)]
    return row[q]


# -- requests -----------------------------------------------------------------


@dataclass(frozen=True)
class File:
    """A function file passed on the command line, by content."""

    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Request:
    cls: str
    args: tuple  # str or File
    meta: dict = field(default_factory=dict)

    def key(self) -> str:
        parts = ["@" + a.digest if isinstance(a, File) else a for a in self.args]
        if parts[0] == "verify":
            # A passing verify report does not mention the seed, so one pin
            # covers every seed (pin.py checks this on two seeds).
            parts = parts[:parts.index("--seed") + 1]
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()

    def argv(self, work: Path) -> list[str]:
        out = []
        for a in self.args:
            if isinstance(a, File):
                path = work / (a.digest[:24] + ".json")
                if not path.exists():
                    path.write_text(a.text, encoding="utf-8")
                out.append(str(path))
            else:
                out.append(a)
        return out


def load_pool() -> dict[int, dict[int, list[int]]]:
    """{n: {k: [packed bits]}} for the pinned k-functions, n = 4 and 5."""
    raw = json.loads(POOL_FILE.read_text(encoding="utf-8"))
    return {int(n): {int(k): [table_bits(h) for h in hexes]
                     for k, hexes in by_k.items()}
            for n, by_k in raw.items()}


def _canon(bits: int, k: int) -> Request:
    return Request("canon_table", ("canon", "--f", File(table_doc(5, bits))), {"k": k})


def session_catalog(pool) -> dict[str, list[Request]]:
    """Every request a session may send, by class; independent of the seed."""
    rng = random.Random(CATALOG_SEED)
    five = [(k, b) for k in sorted(pool[5]) for b in pool[5][k]]
    # The CLI reads a sparse file on as many variables as it mentions, so
    # only n = 5 functions that depend on x_5 are sent sparse: their
    # canonical forms cost the same as a table's.
    half = (1 << 16) - 1
    five_x5 = [(k, b) for k, b in five if b & half != b >> 16]
    cat: dict[str, list[Request]] = {}
    cat["canon_table"] = [_canon(b, k) for k, b in five]
    cat["canon_sparse"] = [
        Request("canon_sparse", ("canon", "--f", File(sparse_doc(5, b))))
        for k, b in five_x5[::4]
    ]

    def five_file(k, sparse):
        if sparse:
            return File(sparse_doc(5, rng.choice([b for kk, b in five_x5 if kk == k])))
        return File(table_doc(5, rng.choice(pool[5][k])))

    iso = []
    for i in range(60):
        k = rng.randint(1, 4)
        if i % 3 == 0:  # one in three is an n = 4 table the CLI pads to n = 5
            g = File(table_doc(4, rng.choice(pool[4][k])))
        else:
            g = five_file(k, i % 4 == 2)
        iso.append(Request("isomorphic", (
            "isomorphic", "--f", five_file(k, i % 4 == 1), "--g", g)))
    cat["isomorphic"] = iso
    # k = 5 (the parity) reads only two words, so sceneries use k <= 4.
    cat["scenery_l8"] = [
        Request("scenery_l8", ("scenery", "--f", five_file(k, False), "--steps", "8",
                               "--compare", five_file(rng.randint(1, 4), i % 4 == 0)))
        for i, k in enumerate(rng.randint(1, 4) for _ in range(32))
    ]
    cat["scenery_l10"] = [
        Request("scenery_l10", ("scenery", "--f", five_file(rng.randint(1, 4), False),
                                "--steps", "10"))
        for _ in range(28)
    ]

    for out_n, size in ((14, 24), (16, 24), (18, 8)):
        reqs = []
        for _ in range(size):
            n = rng.choice((4, 5))
            k = rng.randint(1, 4)
            f, g = rng.choice(pool[n][k]), rng.choice(pool[n][k])
            m = out_n - 2
            reqs.append(Request(f"lemma7_n{out_n}", (
                "construct", "--recipe", "lemma7",
                "--f", File(table_doc(m, pad_bits(f, n, m))),
                "--g", File(table_doc(m, pad_bits(g, n, m))), "--verify")))
        cat[f"lemma7_n{out_n}"] = reqs

    cat["max_relevant"] = [
        Request("max_relevant", ("construct", "--recipe", "max-relevant",
                                 "--k", str(k), "--verify"))
        for k in range(1, 6)
    ]
    cat["uncoverable4"] = [
        Request("uncoverable4", ("construct", "--recipe", "uncoverable4", "--verify"))
    ]
    cat["sos_bounds"] = [
        Request("sos_bounds", ("sos", "--q", str(q), "--t", str(t), "--check-bounds"))
        for q in range(7) for t in range(q, q + 5)
    ]
    # n = 4 bounds re-count F(4, k) by a table scan; n = 5 ones do not, so
    # one n keeps the class's cost even.
    cat["sos_fbound"] = [
        Request("sos_fbound", ("sos", "--f-bound", "--n", "4", "--k", str(k)))
        for k in range(1, 5)
    ]
    cat["enumerate_n4"] = [
        Request("enumerate_n4", ("enumerate", "--n", "4", "--k", str(k)) + emit)
        for k in range(5) for emit in ((), ("--emit", "jsonl"))
    ]
    cat["fail_usage"] = [
        Request("fail_usage", ("enumerate", "--n", "6", "--k", "1")),
        Request("fail_usage", ("enumerate", "--n", "5", "--k", "2")),
        Request("fail_usage", ("sos", "--q", "9", "--t", "3", "--check-bounds")),
        Request("fail_usage", ("canon", "--f", File('{"n": 5, "encoding": "truth_table_hex"}'))),
    ]
    cat["fail_budget"] = [
        Request("fail_budget", ("enumerate", "--n", "5", "--k", "3", "--method",
                                "spectral", "--budget-nodes", "20000")),
    ]
    assert set(cat) == set(SESSION_COUNTS)
    return cat


def census_requests(pool, seed: int) -> list[Request]:
    """Per k = 1..5: the spectral enumeration, then a canonical form of each
    function it emits, in seeded order; then the n <= 4 table."""
    rng = random.Random(seed)
    reqs = []
    for k in sorted(pool[5]):
        reqs.append(Request("enumerate_n5", (
            "enumerate", "--n", "5", "--k", str(k), "--method", "spectral",
            "--emit", "jsonl"), {"k": k}))
        canon = [_canon(b, k) for b in pool[5][k]]
        rng.shuffle(canon)
        reqs += canon
    return reqs + [Request("table", ("table", "--n-max", "4"))]


def session_requests(catalog, seed: int) -> list[Request]:
    """Each class's count of entries: whole copies of its catalog, then a
    seeded sample without replacement; all in seeded order."""
    rng = random.Random(seed)
    reqs = []
    for cls, count in SESSION_COUNTS.items():
        entries = catalog[cls]
        reqs += entries * (count // len(entries))
        reqs += rng.sample(entries, count % len(entries))
    rng.shuffle(reqs)
    return reqs


def verify_requests(seed: int) -> list[Request]:
    return [Request("verify", ("verify", "--seed", str(seed)))]


def build(workload: str, seed: int) -> tuple[list[Request], list[Request]]:
    """(the requests of one round, the warm-up requests) for a workload."""
    pool = load_pool()
    catalog = session_catalog(pool)
    first_n5 = catalog["canon_table"][0]
    if workload == "verify":
        warm = [catalog["enumerate_n4"][2], catalog["sos_bounds"][7]]
        return verify_requests(seed), warm
    if workload == "census5":
        reqs = census_requests(pool, seed)
        return reqs, [reqs[0], first_n5]
    if workload == "session":
        warm = [first_n5, catalog["scenery_l8"][0], catalog["lemma7_n14"][0],
                catalog["enumerate_n4"][2]]
        return session_requests(catalog, seed), warm
    raise ValueError(f"unknown workload {workload!r}")


def all_pinned_requests(pool) -> list[Request]:
    """Every request any run of any workload may send (verify excluded)."""
    out = []
    for reqs in session_catalog(pool).values():
        out.extend(reqs)
    out.extend(census_requests(pool, 0))
    return out


# -- checks -------------------------------------------------------------------


def census_facts(
    reqs: list[Request], outputs: list[tuple[int, str]]
) -> tuple[dict[str, bool], dict[str, list[int]]]:
    """Facts about the n = 5 census that hold independently of the pins,
    and the F(5, k) and G(5, k) rows (k = 0..5) they were checked on.

    ``outputs`` holds (exit code, stdout) per request, in request order.
    """
    n = 5
    full = (1 << (1 << n)) - 1
    found: dict[int, list[int]] = {}
    classes: dict[int, set[int]] = {k: set() for k in range(1, n + 1)}
    table_text = None
    for req, (code, out) in zip(reqs, outputs):
        if req.cls == "enumerate_n5":
            found[req.meta["k"]] = [
                table_bits(json.loads(line)["truth_table"])
                for line in out.splitlines()
            ]
        elif req.cls == "canon_table":
            doc = json.loads(out)
            classes[req.meta["k"]].add(table_bits(doc["canonical"]["truth_table"]))
        elif req.cls == "table":
            table_text = out
    F = {k: len(found.get(k, [])) for k in range(1, n + 1)}
    F[0] = 2  # the two constants
    G = {k: len(classes[k]) for k in range(1, n + 1)}
    G[0] = 1  # the constants are one class under global sign
    par = parity_bits(n)
    sets = {k: set(found.get(k, [])) for k in range(1, n + 1)}
    sets[0] = {0, full}
    complement_ok = all(
        len(sets[k]) == F[k] and {b ^ par for b in sets[k]} == sets[n - k]
        for k in range(1, n + 1)
    )
    return {
        "table_n4_matches_golden": table_text == GOLDEN_TABLE.read_text(encoding="ascii"),
        "F_symmetric_by_complement": complement_ok,
        "G_symmetric_and_at_most_F": all(
            G[k] == G[n - k] and 1 <= G[k] <= F[k] for k in range(n + 1)),
        "F_within_sos_bound": all(
            F[k] <= sos_count(4 ** (k - 1), comb(n, k)) for k in range(1, n + 1)),
    }, {"F": [F[k] for k in range(n + 1)], "G": [G[k] for k in range(n + 1)]}
