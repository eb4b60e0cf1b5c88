"""Command-line interface: compute, verify, export.

Subcommands
-----------
transition  emit a change-of-basis matrix between b1, b2, b3
product     emit structure constants of a normalized or ordinary product
betti       emit the Betti table up to a maximum degree
pairs       emit the incidence pairs of one degree
verify      run an identity suite; exit 0 iff everything passes

Output is deterministic: fixed key orders and canonical fraction
strings, never floats.  Matrices are cached as JSON documents under
the cache directory (flag ``--cache-dir``, else the environment
variable NESTFOCK_CACHE_DIR, else ``.nestfock-cache``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .basis_change import (
    BASIS_TAGS,
    CacheError,
    cache_load,
    cache_store,
    key_from_obj,
    key_to_obj,
    operator_keys,
    pair_keys,
    transition_matrix,
)
from .incidence import betti_series
from .ring import product_table
from .verify import SUITES, run_suite

DEFAULT_CACHE_DIR = ".nestfock-cache"
PRODUCT_BASES = ("b1", "b2", "ordinary")


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # accepted both before and after the subcommand; the later wins
    default = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument(
        "--cache-dir",
        default=default(None),
        help="matrix cache directory (default: $NESTFOCK_CACHE_DIR or .nestfock-cache)",
    )
    parser.add_argument("--format", choices=("json", "csv"), default=default("json"))
    parser.add_argument(
        "--max-degree",
        type=int,
        default=default(12),
        help="largest degree the CLI will compute",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestfock",
        description="Exact calculator for the incidence Hilbert scheme Fock module.",
    )
    _add_common(parser, top=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, top=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="change-of-basis matrix", parents=[common])
    p.add_argument("--from", dest="source", choices=BASIS_TAGS, required=True)
    p.add_argument("--to", dest="target", choices=BASIS_TAGS, required=True)
    p.add_argument("--degree", "-n", type=int, required=True)

    p = sub.add_parser("product", help="structure constants", parents=[common])
    p.add_argument("--basis", choices=PRODUCT_BASES, required=True)
    p.add_argument("--degree", "-n", type=int, required=True)
    p.add_argument("--a", help="left key as JSON (full table when omitted)")
    p.add_argument("--b", help="right key as JSON (full table when omitted)")

    p = sub.add_parser("betti", help="Betti table", parents=[common])
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("pairs", help="incidence pairs of one degree", parents=[common])
    p.add_argument("--degree", "-n", type=int, required=True)

    p = sub.add_parser("verify", help="run an identity suite", parents=[common])
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--max-n", type=int, default=None)

    return parser


def _check_range(parser, label: str, value: int, max_degree: int) -> None:
    if value < 0 or value > max_degree:
        parser.error(f"{label} {value} outside [0, {max_degree}]")


def _emit_json(doc) -> None:
    """Write doc as indent-2 JSON; a callable doc renders its own text here."""
    sys.stdout.write(doc() if callable(doc) else json.dumps(doc, indent=2) + "\n")


def _emit_csv(rows: list[list[str]]) -> None:
    import csv  # here, not at the top: only csv output needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _key_str(tag: str, key) -> str:
    return json.dumps(key_to_obj(tag, key), separators=(",", ":"))


def cmd_transition(args: argparse.Namespace, parser) -> int:
    n = args.degree
    _check_range(parser, "degree", n, args.max_degree)
    matrix = cache_load(args.source, args.target, n, args.cache_dir)
    if matrix is None:
        matrix = transition_matrix(args.source, args.target, n)
        cache_store(matrix, args.cache_dir)
    if args.format == "json":
        _emit_json(matrix.json_text)
    else:
        header = ["key"] + [_key_str(matrix.target, k) for k in matrix.col_keys]
        rows = [header]
        for key, row in zip(matrix.row_keys, matrix.rows):
            rows.append([_key_str(matrix.source, key)] + [str(x) for x in row])
        _emit_csv(rows)
    return 0


def _product_json(n: int, basis: str, objs: list, triples: list) -> str:
    """json.dumps of the product document with indent 2, each key object rendered once."""
    doc = json.dumps({"degree": n, "basis": basis, "triples": [None] if triples else []}, indent=2)
    keys = [json.dumps(o, indent=2).replace("\n", "\n      ") for o in objs]
    row = '    {\n      "a": %s,\n      "b": %s,\n      "c": %s,\n      "coeff": "%s"\n    }'
    body = ",\n".join([row % (keys[a], keys[b], keys[c], x) for a, b, c, x in triples])
    return doc.replace("    null", body, 1) + "\n"


def cmd_product(args: argparse.Namespace, parser) -> int:
    n = args.degree
    _check_range(parser, "degree", n, args.max_degree)
    tag = "b1" if args.basis == "b1" else "b2"
    left = right = None
    try:
        if args.a is not None:
            left = key_from_obj(tag, json.loads(args.a))
        if args.b is not None:
            right = key_from_obj(tag, json.loads(args.b))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        parser.error(f"cannot parse key: {exc}")
    keys = pair_keys(n) if args.basis == "b1" else operator_keys(n)
    for key, label in ((left, "a"), (right, "b")):
        if key is not None and key not in keys:
            parser.error(f"--{label} is not a degree-{n} {args.basis} key")
    every = range(len(keys))
    lefts = every if left is None else [keys.index(left)]
    rights = every if right is None else [keys.index(right)]
    triples = list(product_table(args.basis, n, lefts, rights))
    if args.format == "json":
        objs = [key_to_obj(tag, k) for k in keys]
        _emit_json(lambda: _product_json(n, args.basis, objs, triples))
    else:
        strs = [_key_str(tag, k) for k in keys]
        rows = [["a", "b", "c", "coeff"]]
        rows += [[strs[a], strs[b], strs[c], x] for a, b, c, x in triples]
        _emit_csv(rows)
    return 0


def cmd_betti(args: argparse.Namespace, parser) -> int:
    _check_range(parser, "max-n", args.max_n, args.max_degree)
    table = betti_series(args.max_n)
    if args.format == "json":
        _emit_json(table)
    else:
        rows = [["n"] + [f"b_{2 * k}" for k in range(args.max_n + 1)]]
        for n, bs in enumerate(table):
            rows.append([str(n)] + [str(b) for b in bs])
        _emit_csv(rows)
    return 0


def cmd_pairs(args: argparse.Namespace, parser) -> int:
    n = args.degree
    _check_range(parser, "degree", n, args.max_degree)
    pairs = [p.as_json_obj() for p in pair_keys(n)]
    if args.format == "json":
        _emit_json(pairs)
    else:
        rows = [["lambda", "mu"]]
        for p in pairs:
            rows.append(
                [
                    json.dumps(p["lambda"], separators=(",", ":")),
                    json.dumps(p["mu"], separators=(",", ":")),
                ]
            )
        _emit_csv(rows)
    return 0


def cmd_verify(args: argparse.Namespace, parser) -> int:
    if args.max_n is not None:
        _check_range(parser, "max-n", args.max_n, args.max_degree)
    results = run_suite(args.suite, args.max_n)
    failed = 0
    for r in results:
        if r.ok:
            sys.stdout.write(f"ok   {r.name}\n")
        else:
            failed += 1
            sys.stdout.write(f"FAIL {r.name}: {r.detail}\n")
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_degree < 0:
        parser.error("max degree must be nonnegative")
    args.cache_dir = args.cache_dir or os.environ.get("NESTFOCK_CACHE_DIR") or DEFAULT_CACHE_DIR
    handlers = {
        "transition": cmd_transition,
        "product": cmd_product,
        "betti": cmd_betti,
        "pairs": cmd_pairs,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except CacheError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
