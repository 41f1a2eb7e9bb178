"""Command line front end.

Subcommands evaluate expressions over words and their rational combinations,
check finite structures against the laws, run small censuses, adjoin zeros,
and evaluate words in a finite target through the universal extension.

Exit codes: 0 on success (for `check`, when the structure is
hom-associative); 1 when a law fails and a counterexample is reported;
2 for usage, parse, and file errors.  Identical inputs produce byte
identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Optional

from .census import census, iter_matching
from .expressions import (
    Alpha,
    ModeError,
    ParseError,
    evaluate,
    generator_expression,
    parse_expression,
    render_expr,
    word_value,
)
from .finite import adjoin_zero, classify, structure_from_dict, structure_to_dict
from .universal import GeneratorAssignment, _require_lawful, _UnlawfulTarget, extend
from .words import Word


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _load_structure(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise _CliError(2, "%s: %s" % (path, e.strerror or e))
    except json.JSONDecodeError as e:
        raise _CliError(
            2, "%s: line %d, column %d: %s" % (path, e.lineno, e.colno, e.msg)
        )
    try:
        return structure_from_dict(data)
    except ValueError as e:
        raise _CliError(2, "%s: %s" % (path, e))


def _cmd_value(args) -> int:
    """prod, alpha and expand: parse, echo, evaluate once, print."""
    node = parse_expression(args.expr)
    if args.echo:
        print(render_expr(node))
    value = evaluate(Alpha(node) if args.command == "alpha" else node)
    if args.generate:
        if not isinstance(value, Word):
            raise _CliError(2, "--generate needs a plain word, not a combination")
        value = generator_expression(value)
    print(value)
    return 0


def _cmd_check(args) -> int:
    report = classify(_load_structure(args.file))
    print(report.as_text())
    return 0 if report.hom_associative else 1


def _cmd_eval(args) -> int:
    target = _load_structure(args.target)
    try:
        _require_lawful(target)
    except _UnlawfulTarget as e:
        raise _CliError(
            1, "target is not %s, witness: %s" % (e.law, " ".join(e.witness))
        )
    mapping = {}
    for item in args.map or []:
        name, sep, label = item.partition("=")
        if not sep or not name or not label:
            raise _CliError(2, "--map takes generator=label, got %r" % item)
        mapping[name] = label
    try:
        assign = GeneratorAssignment.from_labels(target, mapping)
    except ValueError as e:
        raise _CliError(2, str(e))
    w = word_value(parse_expression(args.expr))
    try:
        idx = extend(assign, w)
    except ValueError as e:
        raise _CliError(2, str(e))
    print(target.labels[idx])
    return 0


_FILTER_LAWS = {
    "hom": "hom_associative",
    "sg": "associative",
    "mult": "multiplicative",
    "inv": "involutive_alpha",
}


def _cmd_enum(args) -> int:
    if not 1 <= args.order <= 4:
        raise _CliError(2, "--order must be between 1 and 4")
    if args.limit is not None and args.limit < 0:
        raise _CliError(2, "--limit must not be negative")
    if args.order == 4:
        if not args.filter or args.limit is None:
            raise _CliError(
                2, "an order 4 scan is huge; give --filter and --limit"
            )
    else:
        c = census(args.order, up_to_iso=args.up_to_iso)
        head = "order %d census: %d candidate%s" % (
            c.order,
            c.total_candidates,
            "" if c.total_candidates == 1 else "s",
        )
        if args.up_to_iso:
            head += ", %d isomorphism classes" % sum(c.counts.values())
        print(head)
        print("%-5s%-7s%-6s%-7s%7s" % ("hom", "assoc", "mult", "invol", "count"))
        for quad in itertools.product((True, False), repeat=4):
            cells = tuple("yes" if q else "no" for q in quad)
            print("%-5s%-7s%-6s%-7s%7d" % (cells + (c.counts[quad],)))
    if args.filter:
        kwargs = {_FILTER_LAWS[f]: True for f in args.filter}
        stream = iter_matching(args.order, up_to_iso=args.up_to_iso, **kwargs)
        if args.limit is not None:
            stream = itertools.islice(stream, args.limit)
        for m in stream:
            print(json.dumps(structure_to_dict(m), separators=(",", ":")))
    return 0


def _cmd_adjoin_zero(args) -> int:
    m = _load_structure(args.file)
    try:
        out = adjoin_zero(m)
    except ValueError as e:
        raise _CliError(1, str(e))
    print(json.dumps(structure_to_dict(out), indent=2))
    return 0


_EXPR_HELP = "the expression; put -- before one that starts with '-': -- \"-x\""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invhom",
        description="words with a twisted product, their spans, and finite models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prod", help="evaluate an expression")
    p.add_argument("expr", help=_EXPR_HELP)
    p.add_argument("--echo", action="store_true", help="print the parse first, fully parenthesized")
    p.add_argument(
        "--generate",
        action="store_true",
        help="print a product-of-generators expression for the resulting word",
    )
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("alpha", help="apply the involution to an expression")
    p.add_argument("expr", help=_EXPR_HELP)
    p.add_argument("--echo", action="store_true")
    p.set_defaults(func=_cmd_value, generate=False)

    p = sub.add_parser("expand", help="evaluate in the linear span")
    p.add_argument("expr", help=_EXPR_HELP)
    p.add_argument("--echo", action="store_true")
    p.set_defaults(func=_cmd_value, generate=False)

    p = sub.add_parser("check", help="report which laws a structure file satisfies")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a word in a finite target structure")
    p.add_argument("expr", help=_EXPR_HELP)
    p.add_argument("--target", required=True, help="structure file (JSON)")
    p.add_argument(
        "--map",
        action="append",
        metavar="GEN=LABEL",
        help="generator image, repeatable",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("enum", help="census of small structures, optionally streamed")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--filter",
        action="append",
        choices=sorted(_FILTER_LAWS),
        help="require a law; repeatable, streams matching tables as JSON lines",
    )
    p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    p.add_argument("--limit", type=int, help="stop after this many streamed tables")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("adjoin-zero", help="route alpha onto a zero element")
    p.add_argument("file")
    p.set_defaults(func=_cmd_adjoin_zero)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return args.func(args)
    except _CliError as e:
        print(e.message, file=sys.stderr)
        return e.code
    except (ParseError, ModeError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
