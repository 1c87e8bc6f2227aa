"""Command-line interface.

One binary, eight subcommands: enumerate, table, canon, isomorphic,
construct, sos, scenery, verify.  All outputs are machine-readable (JSON
lines or CSV), all randomness flows from --seed, and identical invocations
produce byte-identical streams.

Exit codes: 0 success, 1 failed verification, 2 usage or input error,
3 exceeded search/memo budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Any

from .constructions import (
    cover_check,
    lift_pair,
    max_relevant_construct,
    uncoverable4,
)
from .core import (
    SparsePolynomial,
    TruthTable,
    inverse_wht,
    relevant_indices,
    spectrum_from_sparse,
    wht,
)
from .errors import BudgetExceeded, CubeStableError, VerificationFailed
from .group import _check_canonical_n, are_isomorphic, canonical_form, pad_to
from .kfunctions import (
    DEFAULT_NODE_BUDGET,
    count_table,
    count_table_csv,
    enumerate_spectral,
    enumerate_truth_tables,
)
from .scenery import _check_scenery_size, exact_scenery
from .serialize import (
    dumps,
    function_from_json,
    function_to_json,
    scenery_text,
    witness_to_json,
)
from .sos import DEFAULT_MEMO_LIMIT, check_bounds, f_upper_bound, sos_count
from .verify import run_verify

DEFAULT_SEED = 42


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _read_table(path: str) -> tuple[TruthTable | SparsePolynomial, int]:
    """A function file and the n it is densified on: a sparse function's
    declared n, at least 1."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    obj = function_from_json(doc)
    return obj, obj.n if isinstance(obj, TruthTable) else max(doc["n"], 1)


def _densify(obj: TruthTable | SparsePolynomial, n: int) -> TruthTable:
    """obj as a truth table on Q_n (raises NotBoolean if it is not +/-1)."""
    if isinstance(obj, TruthTable):
        return obj
    return inverse_wht(spectrum_from_sparse(obj, n))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.method == "spectral":
        gen = enumerate_spectral(args.n, args.k, node_budget=args.budget_nodes)
    else:
        gen = enumerate_truth_tables(args.n, args.k)
    if args.emit == "jsonl":
        for f in gen:
            _emit(dumps(function_to_json(f)))
        return 0
    count = sum(1 for _ in gen)
    _emit(dumps({"n": args.n, "k": args.k, "method": args.method, "F": str(count)}))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    records = count_table(args.n_max)
    if args.out == "csv":
        sys.stdout.write(count_table_csv(records))
        return 0
    rows: list[dict[str, Any]] = [
        {
            "n": r.n,
            "k": r.k,
            "F": str(r.F),
            "G": str(r.G),
            "method": r.method,
        }
        for r in records
    ]
    _emit(dumps({"records": rows}))
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    f, n = _read_table(args.f)
    # Refuse before a sparse file is densified on its declared n, which
    # takes 2**n memory (over 1 GB at n = 26).
    _check_canonical_n(n)
    rep, witness = canonical_form(_densify(f, n))
    _emit(
        dumps(
            {
                "canonical": function_to_json(rep),
                "witness": witness_to_json(witness),
            }
        )
    )
    return 0


def _cmd_isomorphic(args: argparse.Namespace) -> int:
    (f, nf), (g, ng) = _read_table(args.f), _read_table(args.g)
    n = max(nf, ng)
    _check_canonical_n(n)
    f, g = pad_to(_densify(f, nf), n), pad_to(_densify(g, ng), n)
    witness = are_isomorphic(f, g)
    _emit(
        dumps(
            {
                "isomorphic": witness is not None,
                "witness": None if witness is None else witness_to_json(witness),
            }
        )
    )
    return 0


def _spectral_certificate(
    h: TruthTable | SparsePolynomial,
) -> dict[str, Any]:
    p = wht(h) if isinstance(h, TruthTable) else h
    levels = p.support_levels()
    # A table is Boolean by construction; a polynomial must show Parseval.
    boolean = isinstance(h, TruthTable) or h.parseval_sum() == 1
    return {
        "check": "spectral-level",
        "ok": len(levels) == 1 and boolean,
        "k": next(iter(levels)) if len(levels) == 1 else None,
        "terms": len(p.support()),
        "relevant": len(relevant_indices(p)),
    }


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.recipe == "lemma7":
        if not args.f or not args.g:
            raise ValueError("recipe lemma7 needs --f and --g")
        result = lift_pair(_read_table(args.f)[0], _read_table(args.g)[0])
    elif args.recipe == "max-relevant":
        if args.k is None:
            raise ValueError("recipe max-relevant needs --k")
        result = max_relevant_construct(args.k)
    else:
        result = uncoverable4()
    _emit(dumps(function_to_json(result)))
    if args.verify:
        cert = _spectral_certificate(result)
        if args.recipe == "uncoverable4":
            assert isinstance(result, SparsePolynomial)
            cover = cover_check(result, 2)
            cert["cover2"] = None if cover is None else sorted(cover)
        _emit(dumps(cert))
        if not cert["ok"]:
            raise VerificationFailed("constructed function failed validation")
    return 0


def _cmd_sos(args: argparse.Namespace) -> int:
    if args.f_bound:
        if args.n is None or args.k is None:
            raise ValueError("--f-bound needs --n and --k")
        bound = f_upper_bound(args.n, args.k, memo_limit=args.budget_memo)
        _emit(dumps({"n": args.n, "k": args.k, "bound": str(bound)}))
        return 0
    if args.q is None or args.t is None:
        raise ValueError("sos needs --q and --t (or --f-bound with --n/--k)")
    if args.check_bounds:
        report = check_bounds(args.q, args.t, memo_limit=args.budget_memo)
        _emit(
            dumps(
                {
                    "q": report.q,
                    "t": report.t,
                    "count": str(report.count),
                    "lower": str(report.lower),
                    "upper_subset": str(report.upper_subset),
                    "upper_value": str(report.upper_value),
                    "ok": report.ok,
                }
            )
        )
        return 0 if report.ok else 1
    result = sos_count(args.q, args.t, memo_limit=args.budget_memo)
    _emit(dumps({"q": result.q, "t": result.t, "count": str(result.count)}))
    return 0


def _cmd_scenery(args: argparse.Namespace) -> int:
    # Both files are refused before either is densified on its declared n.
    f, nf = _read_table(args.f)
    _check_scenery_size(nf, args.steps)
    if args.compare:
        g, ng = _read_table(args.compare)
        _check_scenery_size(ng, args.steps)
    dist = exact_scenery(_densify(f, nf), args.steps)
    other = exact_scenery(_densify(g, ng), args.steps) if args.compare else None
    _emit(scenery_text(dist, other))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    text, code = run_verify(args.seed)
    sys.stdout.write(text)
    return code


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it as it
    was, and each call gets a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="cubestable",
        description="Exact tooling for locally stable Boolean functions on Q_n.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list or count the k-functions on Q_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("table", "spectral"), default="table")
    p.add_argument("--emit", choices=("jsonl",), default=None)
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="exact F/G counts for all n <= n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("canon", help="canonical form and witness of a function")
    p.add_argument("--f", required=True, help="function JSON file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("isomorphic", help="decide isomorphism of two functions")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_isomorphic)

    p = sub.add_parser("construct", help="build a function from a recipe")
    p.add_argument(
        "--recipe",
        choices=("lemma7", "max-relevant", "uncoverable4"),
        required=True,
    )
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--k", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sos", help="count integer vectors by sum of squares")
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--check-bounds", action="store_true")
    p.add_argument("--f-bound", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--budget-memo", type=int, default=DEFAULT_MEMO_LIMIT)
    p.set_defaults(func=_cmd_sos)

    p = sub.add_parser("scenery", help="exact walk-scenery distribution")
    p.add_argument("--f", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--compare")
    p.set_defaults(func=_cmd_scenery)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _error(exc)
        return 3
    except VerificationFailed as exc:
        _error(exc)
        return 1
    except (CubeStableError, ValueError, TypeError, OSError) as exc:
        # json.JSONDecodeError is a ValueError, so malformed input lands here.
        _error(exc)
        return 2


def _error(exc: Exception) -> None:
    sys.stderr.write(
        dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
