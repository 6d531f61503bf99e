"""Command line front end.

Exit status: 0 on success, 1 when validation or an asserted identity
fails or the input does not allow the requested operation (every such
error of the package is a ValueError), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cocycles import COCYCLES, path_sum, walk_values, zero_value
from .earle import d2, d_surface, earle_f
from .flips import apply_path, flip, pentagon_path
from .graphio import GraphParseError, format_graph, parse_graph
from .markings import (MarkingError, Marking, canonical_h_marking,
                       check_marking, is_topological_h, propagate_path)
from .selftest import run_selftest
from .words import FreeAutomorphism, gen_info, parse_word

USAGE_ERROR = 2
FAILURE = 1


class CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CliError(str(err), USAGE_ERROR)


def _load(path: str):
    try:
        return parse_graph(_read_text(path))
    except GraphParseError as err:
        raise CliError("parse error: %s" % err, USAGE_ERROR)


def _require_marking(marking, what: str) -> Marking:
    if marking is None:
        raise CliError("%s needs a marking section in the graph file" % what,
                       FAILURE)
    return marking


def _emit(out, fmt: str, rows) -> None:
    for key, value in rows:
        if fmt == "tsv":
            out.write("%s\t%s\n" % (key, value))
        else:
            out.write("%s: %s\n" % (key, value))


def _cmd_validate(args, out) -> int:
    graph, marking = _load(args.file)
    graph.validate()
    if marking is not None:
        check_marking(graph, marking)
    out.write("ok\n")
    return 0


def _cmd_info(args, out) -> int:
    graph, marking = _load(args.file)
    cycles = graph.boundary_cycles()
    rows = [
        ("vertices", graph.num_vertices),
        ("edges", graph.num_edges),
        ("boundary number", len(cycles)),
        ("genus", graph.genus()),
    ]
    for i, cyc in enumerate(cycles):
        rows.append(("boundary word %d" % i, " ".join(str(h) for h in cyc)))
    if marking is not None:
        rows.append(("marking rank", marking.rank))
    _emit(out, args.format, rows)
    return 0


def _cmd_flip(args, out) -> int:
    graph, marking = _load(args.file)
    new_graph, ctx = flip(graph, args.edge)
    new_marking = None
    if marking is not None:
        new_marking = propagate_path(marking, [ctx])
    out.write(format_graph(new_graph, new_marking))
    return 0


def _parse_edge_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError("bad edge list %r" % text, USAGE_ERROR)


def _cocycle_list(which: str) -> List[str]:
    return list(COCYCLES) if which == "all" else [which]


def _cmd_path(args, out) -> int:
    graph, marking = _load(args.file)
    marking = _require_marking(marking, "path")
    path = apply_path(graph, _parse_edge_list(args.flips))
    for which in _cocycle_list(args.cocycle):
        total = zero_value(which, marking.rank)
        values = walk_values(path, marking, which)
        for i, ctx in enumerate(path.steps):
            try:
                val, _ = next(values)
            except MarkingError as err:
                raise CliError("step %d: %s" % (i, err), FAILURE)
            total = total + val
            _emit(out, args.format, [
                ("%s step %d flip %s a %s b %s c %s d %s new %s"
                 % (which, i, ctx.edge, ctx.a, ctx.b, ctx.c, ctx.d,
                    ctx.new_edge), val)])
        _emit(out, args.format, [("%s total" % which, total)])
    return 0


def _cmd_pentagon(args, out) -> int:
    graph, marking = _load(args.file)
    edges = _parse_edge_list(args.edges)
    if len(edges) != 2:
        raise CliError("--edges needs exactly two edge ids", USAGE_ERROR)
    if marking is None:
        marking, _ = canonical_h_marking(graph)
    path = pentagon_path(graph, edges[0], edges[1])
    status = 0
    for which in _cocycle_list(args.cocycle):
        total, _ = path_sum(path, marking, which)
        _emit(out, args.format, [("%s total" % which, total)])
        if not total.is_zero():
            status = FAILURE
    if status:
        raise CliError("pentagon total is nonzero", FAILURE)
    return 0


def _cmd_marking(args, out) -> int:
    graph, marking = _load(args.file)
    if args.marking_command == "check":
        marking = _require_marking(marking, "marking check")
        check_marking(graph, marking)
        if args.topological:
            _, form = canonical_h_marking(graph)
            if not is_topological_h(graph, marking, form):
                raise CliError("marking violates the intersection "
                               "criterion", FAILURE)
        out.write("ok\n")
        return 0
    if args.marking_command == "canonical":
        new_marking, _ = canonical_h_marking(graph)
        out.write(format_graph(graph, new_marking))
        return 0
    raise CliError("unknown marking command", USAGE_ERROR)


def _infer_genus(word) -> int:
    genus = 0
    for name, _ in word:
        _, idx = gen_info(name)
        genus = max(genus, idx or 0)
    return genus


def _cmd_earle(args, out) -> int:
    if args.earle_command == "d":
        word = parse_word(args.word)
        indexed = [n for n, _ in word if gen_info(n)[1] is not None]
        bare = [n for n, _ in word if gen_info(n)[1] is None]
        if indexed and bare:
            raise CliError("mixed bare and indexed generators", FAILURE)
        value = d_surface(word, _infer_genus(word)) if indexed else d2(word)
        out.write("%d\n" % value)
        return 0
    if args.earle_command == "eval":
        if args.genus < 1:
            raise CliError("--genus must be at least 1", USAGE_ERROR)
        phi = FreeAutomorphism.from_text(_read_text(args.auto))
        value = earle_f(phi, args.genus, inverse_supplied=args.inverse)
        out.write("%s\n" % value)
        return 0
    raise CliError("unknown earle command", USAGE_ERROR)


def _cmd_selftest(args, out) -> int:
    status = run_selftest(seed=args.seed, trials=args.trials,
                          log=lambda msg: out.write(msg + "\n"))
    if status:
        raise CliError("selftest failed", FAILURE)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatflip",
        description="Fatgraphs with tails, flips, markings and cocycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "tsv"), default="plain")

    p = sub.add_parser("validate", help="check all fatgraph/marking axioms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="counts, genus, boundary structure")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("flip", help="flip one edge and print the result")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True)
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("path", help="cocycle values along a flip sequence")
    p.add_argument("file")
    p.add_argument("--flips", required=True,
                   help="comma-separated edge ids, flipped in order")
    p.add_argument("--cocycle", choices=("m", "j", "s", "all"), default="all")
    add_format(p)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("pentagon",
                       help="run a pentagon loop and assert zero totals")
    p.add_argument("file")
    p.add_argument("--edges", required=True,
                   help="two comma-separated edge ids sharing one endpoint")
    p.add_argument("--cocycle", choices=("m", "j", "s", "all"), default="all")
    add_format(p)
    p.set_defaults(func=_cmd_pentagon)

    p = sub.add_parser("marking", help="marking checks and construction")
    msub = p.add_subparsers(dest="marking_command", required=True)
    pc = msub.add_parser("check", help="verify the marking axioms")
    pc.add_argument("file")
    pc.add_argument("--topological", action="store_true",
                    help="also check the homology intersection criterion")
    pc.set_defaults(func=_cmd_marking)
    pm = msub.add_parser("canonical", help="attach the canonical H-marking")
    pm.add_argument("file")
    pm.set_defaults(func=_cmd_marking)

    p = sub.add_parser("earle", help="Morita d-values and the Earle cocycle")
    esub = p.add_subparsers(dest="earle_command", required=True)
    pd = esub.add_parser("d", help="d-value of a word")
    pd.add_argument("--word", required=True)
    pd.set_defaults(func=_cmd_earle)
    pe = esub.add_parser("eval", help="Earle cocycle of an automorphism file")
    pe.add_argument("--genus", type=int, required=True)
    pe.add_argument("--auto", required=True,
                    help="file with lines 'gen -> word'")
    pe.add_argument("--inverse", action="store_true",
                    help="the file gives the images of the inverse map")
    pe.set_defaults(func=_cmd_earle)

    p = sub.add_parser("selftest", help="randomized exact-identity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except CliError as err:
        sys.stderr.write("fatflip: %s\n" % err)
        return err.status
    except ValueError as err:
        sys.stderr.write("fatflip: %s\n" % err)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
