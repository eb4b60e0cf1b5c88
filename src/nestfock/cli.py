"""Command-line interface: compute, verify, export.

Subcommands
-----------
transition  emit a change-of-basis matrix between b1, b2, b3
product     emit structure constants of a normalized or ordinary product
betti       emit the Betti table up to a maximum degree
pairs       emit the incidence pairs of one degree
verify      run an identity suite; exit 0 iff every check passes

Output is deterministic: fixed key orders and canonical fraction
strings, never floats; ``verify`` prints each check's case count and
writes its seconds to stderr.  Matrices are cached as JSON documents
under the cache directory (flag ``--cache-dir``, else the environment
variable NESTFOCK_CACHE_DIR, else ``.nestfock-cache``).

Each call pays only for its own subcommand.  A plain argument list (a
subcommand, then its options spelled out in full, each with a valid
value) is read from the option tables below without importing
argparse; argparse builds the parser from the same tables for help,
errors and every other spelling.  ``ring`` is imported by ``product``
alone, ``verify`` by ``verify`` alone and ``csv`` by csv output alone.
``run`` is the entry point of both ``python -m nestfock`` and the
installed ``nestfock`` command; it ends the process without the
interpreter's teardown once the output is flushed.
"""

from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace

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

DEFAULT_CACHE_DIR = ".nestfock-cache"
PRODUCT_BASES = ("b1", "b2", "ordinary")
# the keys of verify.SUITES, in order, so that the command line does not import verify
VERIFY_SUITES = (
    "hooks", "euler", "heisenberg", "loop", "pairing",
    "roundtrip", "phi", "diagrams", "ordinary", "betti",
)

# Options as (flags, add_argument keywords).  The common options are
# accepted both before and after the subcommand; the later wins.
COMMON_OPTIONS = (
    (
        ("--cache-dir",),
        {"default": None, "help": "matrix cache directory (default: $NESTFOCK_CACHE_DIR or .nestfock-cache)"},
    ),
    (("--format",), {"choices": ("json", "csv"), "default": "json"}),
    (("--max-degree",), {"type": int, "default": 12, "help": "largest degree the CLI will compute"}),
)
# subcommand -> (its help line, its own options)
SUBCOMMANDS = {
    "transition": (
        "change-of-basis matrix",
        (
            (("--from",), {"dest": "source", "choices": BASIS_TAGS, "required": True}),
            (("--to",), {"dest": "target", "choices": BASIS_TAGS, "required": True}),
            (("--degree", "-n"), {"type": int, "required": True}),
        ),
    ),
    "product": (
        "structure constants",
        (
            (("--basis",), {"choices": PRODUCT_BASES, "required": True}),
            (("--degree", "-n"), {"type": int, "required": True}),
            (("--a",), {"help": "left key as JSON (full table when omitted)"}),
            (("--b",), {"help": "right key as JSON (full table when omitted)"}),
        ),
    ),
    "betti": ("Betti table", ((("--max-n",), {"type": int, "required": True}),)),
    "pairs": ("incidence pairs of one degree", ((("--degree", "-n"), {"type": int, "required": True}),)),
    "verify": (
        "run an identity suite",
        (
            (("--suite",), {"choices": VERIFY_SUITES + ("all",), "required": True}),
            (("--max-n",), {"type": int, "default": None}),
        ),
    ),
}


def build_parser():
    """The argparse parser of the command line: usage, help, errors, every spelling."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nestfock",
        description="Exact calculator for the incidence Hilbert scheme Fock module.",
    )
    for flags, options in COMMON_OPTIONS:
        parser.add_argument(*flags, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, own) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, options in COMMON_OPTIONS:
            p.add_argument(*flags, **{**options, "default": argparse.SUPPRESS})
        for flags, options in own:
            p.add_argument(*flags, **options)
    return parser


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser gives for argv, read without argparse; None if not plain.

    Plain is a subcommand followed by pairs of one of its option flags,
    spelled out in full, and a value that does not start with "-" and
    that the option accepts, with every required option given.  Any
    other argument list (help, an error, an abbreviated or "--flag=value"
    option, an option before the subcommand) is left to argparse.
    """
    if not argv or argv[0] not in SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    flags = {}
    values = {"command": argv[0]}
    for names, options in COMMON_OPTIONS + SUBCOMMANDS[argv[0]][1]:
        dest = options.get("dest", names[0][2:].replace("-", "_"))
        values[dest] = options.get("default")
        flags.update(dict.fromkeys(names, (dest, options)))
    missing = {dest for dest, options in flags.values() if options.get("required")}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in flags or text.startswith("-"):
            return None
        dest, options = flags[flag]
        try:
            value = options.get("type", str)(text)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        values[dest] = value
        missing.discard(dest)
    return None if missing else SimpleNamespace(**values)


def _check_range(error, label: str, value: int, max_degree: int) -> None:
    if value < 0 or value > max_degree:
        error(f"{label} {value} outside [0, {max_degree}]")


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


def cmd_transition(args, error) -> int:
    n = args.degree
    _check_range(error, "degree", n, args.max_degree)
    matrix = cache_load(args.source, args.target, n, args.cache_dir)
    if matrix is None:
        matrix = transition_matrix(args.source, args.target, n)
        cache_store(matrix, args.cache_dir)
    if args.format == "json":
        _emit_json(matrix.json_text)
    else:
        header = ["key"] + [_key_str(matrix.target, k) for k in matrix.col_keys]
        rows = [header]
        for key, row in zip(matrix.row_keys, matrix.entry_strings()):
            rows.append([_key_str(matrix.source, key), *row])
        _emit_csv(rows)
    return 0


def _product_json(n: int, basis: str, objs: list, triples: list) -> str:
    """json.dumps of the product document with indent 2, each key object rendered once."""
    doc = json.dumps({"degree": n, "basis": basis, "triples": [None] if triples else []}, indent=2)
    keys = [json.dumps(o, indent=2).replace("\n", "\n      ") for o in objs]
    row = '    {\n      "a": %s,\n      "b": %s,\n      "c": %s,\n      "coeff": "%s"\n    }'
    body = ",\n".join([row % (keys[a], keys[b], keys[c], x) for a, b, c, x in triples])
    return doc.replace("    null", body, 1) + "\n"


def cmd_product(args, error) -> int:
    from .ring import product_table

    n = args.degree
    _check_range(error, "degree", n, args.max_degree)
    tag = "b1" if args.basis == "b1" else "b2"

    def parse(text):
        # key_from_obj would read an integral float or a bool as the index i
        obj = json.loads(text)
        fields = ([obj["i"]], obj["nu"]) if tag == "b2" else (obj["lambda"], obj["mu"])
        if not all(type(f) is list and all(type(x) is int for x in f) for f in fields):
            raise TypeError("key entries must be JSON integers")
        return key_from_obj(tag, obj)

    try:
        left, right = [None if text is None else parse(text) for text in (args.a, args.b)]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        error(f"cannot parse key: {exc}")
    keys = pair_keys(n) if args.basis == "b1" else operator_keys(n)
    for key, label in ((left, "a"), (right, "b")):
        if key is not None and key not in keys:
            error(f"--{label} is not a degree-{n} {args.basis} key")
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


def cmd_betti(args, error) -> int:
    _check_range(error, "max-n", args.max_n, args.max_degree)
    table = betti_series(args.max_n)
    if args.format == "json":
        _emit_json(table)
    else:
        rows = [["n"] + [f"b_{2 * k}" for k in range(args.max_n + 1)]]
        for n, bs in enumerate(table):
            rows.append([str(n)] + [str(b) for b in bs])
        _emit_csv(rows)
    return 0


def cmd_pairs(args, error) -> int:
    n = args.degree
    _check_range(error, "degree", n, args.max_degree)
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


def cmd_verify(args, error) -> int:
    from time import perf_counter

    from .verify import run_suite

    if args.max_n is not None:
        _check_range(error, "max-n", args.max_n, args.max_degree)
    start = perf_counter()
    results = run_suite(args.suite, args.max_n)
    failed = 0
    for r in results:
        if r.ok:
            sys.stdout.write(f"ok   {r.name} ({r.cases} cases)\n")
        else:
            failed += 1
            sys.stdout.write(f"FAIL {r.name}: {r.detail}\n")
        # a check's time runs from the end of the one before it
        sys.stderr.write(f"{r.finished - start:.3f} s  {r.name}\n")
        start = r.finished
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


COMMANDS = {
    "transition": cmd_transition,
    "product": cmd_product,
    "betti": cmd_betti,
    "pairs": cmd_pairs,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_plain(argv) or build_parser().parse_args(argv)

    def error(message: str):
        build_parser().error(message)

    if args.max_degree < 0:
        error("max degree must be nonnegative")
    args.cache_dir = args.cache_dir or os.environ.get("NESTFOCK_CACHE_DIR") or DEFAULT_CACHE_DIR
    try:
        return COMMANDS[args.command](args, error)
    except CacheError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run(argv=None):
    """Run main, flush the output and end the process with main's status.

    The process ends by ``os._exit``, skipping the interpreter's teardown
    of every module and object.  A usage error or an uncaught exception
    leaves main as before and takes the interpreter's own exit, and so
    does a failed flush, which that exit then reports.
    """
    status = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
