"""The textual fatgraph file format.

Line-oriented, UTF-8, ``#`` starts a comment.  Grammar:

    fatgraph v1
    vertex <vid>: <h> <h> ... <h>     # inward half-edges, counterclockwise
    tail <h>
    marking rank <r>                  # optional section
    mark <h>: <int> <int> ... <int>   # r integers; reverse derived by negation

where ``<h>`` is ``<eid>+`` or ``<eid>-``.  Every half-edge must occur
in exactly one vertex line.  Parse errors report line (and column where
sensible); semantic problems such as bad valences or axiom violations
are left to validate/check_marking.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .abelian import KElement
from .fatgraph import FatGraph, OrientedEdge
from .markings import Marking

_HALF_RE = re.compile(r"^([0-9]+)([+-])$")


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int, col: Optional[int] = None):
        where = "line %d" % line if col is None else "line %d, col %d" % (line, col)
        super().__init__("%s: %s" % (where, message))
        self.line = line
        self.col = col


def _parse_half(tok: str, lineno: int, col: int) -> OrientedEdge:
    m = _HALF_RE.match(tok)
    if not m:
        raise GraphParseError("bad half-edge %r" % tok, lineno, col)
    return OrientedEdge(int(m.group(1)), 1 if m.group(2) == "+" else -1)


def _tokens_with_cols(line: str) -> List[Tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_graph(text: str) -> Tuple[FatGraph, Optional[Marking]]:
    """Parse a graph file into a FatGraph and its optional marking."""
    vertices: List[Tuple[OrientedEdge, ...]] = []
    seen_half: Dict[OrientedEdge, int] = {}
    seen_vids = set()
    tail: Optional[OrientedEdge] = None
    tail_line: Optional[int] = None
    rank: Optional[int] = None
    marks: Dict[OrientedEdge, KElement] = {}
    mark_at: Dict[OrientedEdge, Tuple[int, int]] = {}   # (line, col) of each mark
    header_done = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokens_with_cols(line)
        if not header_done:
            if line.strip() != "fatgraph v1":
                raise GraphParseError("expected header 'fatgraph v1'", lineno)
            header_done = True
            continue
        keyword = toks[0][0]

        if keyword == "vertex":
            if len(toks) < 2 or not toks[1][0].endswith(":"):
                raise GraphParseError("expected 'vertex <vid>:'", lineno)
            vid_tok = toks[1][0][:-1]
            if not vid_tok.isdigit():
                raise GraphParseError("bad vertex id %r" % vid_tok,
                                      lineno, toks[1][1])
            vid = int(vid_tok)
            if vid in seen_vids:
                raise GraphParseError("duplicate vertex id %d" % vid,
                                      lineno, toks[1][1])
            seen_vids.add(vid)
            halves = []
            for tok, col in toks[2:]:
                h = _parse_half(tok, lineno, col)
                if h in seen_half:
                    raise GraphParseError(
                        "half-edge %s already used on line %d"
                        % (h, seen_half[h]), lineno, col)
                seen_half[h] = lineno
                halves.append(h)
            if not halves:
                raise GraphParseError("vertex %d has no half-edges" % vid,
                                      lineno)
            vertices.append(tuple(halves))

        elif keyword == "tail":
            if tail is not None:
                raise GraphParseError("tail already given on line %d"
                                      % tail_line, lineno)
            if len(toks) != 2:
                raise GraphParseError("expected 'tail <h>'", lineno)
            tail = _parse_half(toks[1][0], lineno, toks[1][1])
            tail_line = lineno

        elif keyword == "marking":
            if rank is not None:
                raise GraphParseError("marking section already started", lineno)
            if len(toks) != 3 or toks[1][0] != "rank" or not toks[2][0].isdigit():
                raise GraphParseError("expected 'marking rank <r>'", lineno)
            rank = int(toks[2][0])
            if rank < 1:
                raise GraphParseError("rank must be at least 1", lineno,
                                      toks[2][1])

        elif keyword == "mark":
            if rank is None:
                raise GraphParseError("mark line before 'marking rank'", lineno)
            if len(toks) < 2 or not toks[1][0].endswith(":"):
                raise GraphParseError("expected 'mark <h>:'", lineno)
            h = _parse_half(toks[1][0][:-1], lineno, toks[1][1])
            ints = []
            for tok, col in toks[2:]:
                if not re.match(r"^-?[0-9]+$", tok):
                    raise GraphParseError("bad integer %r" % tok, lineno, col)
                ints.append(int(tok))
            if len(ints) != rank:
                raise GraphParseError(
                    "mark for %s has %d coordinates, rank is %d"
                    % (h, len(ints), rank), lineno)
            if h in marks:
                raise GraphParseError(
                    "duplicate mark for %s, first marked on line %d"
                    % (h, mark_at[h][0]), lineno, toks[1][1])
            value = KElement(ints)
            if h.rev in marks and marks[h.rev] != -value:
                raise GraphParseError(
                    "mark for %s is not the negative of the mark for %s "
                    "on line %d" % (h, h.rev, mark_at[h.rev][0]),
                    lineno, toks[1][1])
            marks[h] = value
            mark_at[h] = (lineno, toks[1][1])

        else:
            raise GraphParseError("unknown directive %r" % keyword,
                                  lineno, toks[0][1])

    if not header_done:
        raise GraphParseError("empty file, expected 'fatgraph v1'", 1)
    if tail is None:
        raise GraphParseError("missing tail line", lineno if text else 1)
    # after the loop: vertex lines may follow the mark lines
    for h in marks:
        if h not in seen_half and h.rev not in seen_half:
            raise GraphParseError("mark for unknown half-edge %s" % (h,),
                                  *mark_at[h])

    graph = FatGraph(vertices, tail)
    marking = None
    if rank is not None:
        marking = Marking(rank, marks)
    return graph, marking


def format_graph(graph: FatGraph, marking: Optional[Marking] = None) -> str:
    """Deterministic textual form; parses back to the same canonical form."""
    lines = ["fatgraph v1"]
    for vi, v in enumerate(graph.vertices):
        lines.append("vertex %d: %s" % (vi, " ".join(str(h) for h in v)))
    lines.append("tail %s" % (graph.tail,))
    if marking is not None:
        lines.append("marking rank %d" % marking.rank)
        for x in graph.edge_ids():
            h = OrientedEdge(x, 1)
            lines.append("mark %s: %s" % (h, marking.value(h)))
    return "\n".join(lines) + "\n"
