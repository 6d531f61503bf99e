r"""Flip moves on trivalent tailed fatgraphs and relation loops.

A flip collapses a non-tail edge e with distinct trivalent endpoints and
re-expands it the other way across its quadrilateral.  The labels below
follow the cyclic orders read at the two endpoints:

    inward at head(e):   (e, a, b)         b \       / a
    inward at head(~e):  (~e, c, d)           o--e'--o          e points up,
                                            c /       \ d       e' to the left
    after the flip:      (e', b, c) and (~e', d, a)

so the quadrilateral corners run (a, b, c, d) counterclockwise and the
oriented pair (e, e') is positively oriented.  All other vertices and
edges are untouched; the new edge gets the fresh id max + 1, so edge ids
are never reused along a path of flips and the k-th flip of a path from
a graph whose fresh id is n creates edge n + k.  The relation loops are
therefore plain edge lists: the involution pair is [e, n], the
commuting square [e1, e2, n, n + 1] and the pentagon [f, g, n, n + 1,
n + 2].
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from .fatgraph import (CorruptedStructureError, FatGraph, FatGraphError,
                       OrientedEdge, _code, _decode, canonical_iso)

# an edge argument: an int id, standing for its + orientation, or an
# (edge, sign) pair of ints; anything else names no edge and raises
EdgeLike = Union[int, OrientedEdge]
# a graph's rows and its index (successor, vertex), flipped in place
_State = Tuple[List[Tuple[int, ...]], Dict[int, int], Dict[int, int]]


class FlipError(FatGraphError):
    """The requested flip is not defined."""


class PathStepError(FlipError):
    """A step of a flip path failed; ``index`` is the failing position."""

    def __init__(self, index: int, cause: Exception):
        super().__init__("step %d: %s" % (index, cause))
        self.index = index
        self.cause = cause


class ClosureError(FatGraphError):
    """A loop that must return to its starting graph failed to do so."""


class FlipContext(NamedTuple):
    """Everything recorded about one flip.

    ``edge`` and the four neighbor labels a, b, c, d are oriented edges
    of the graph *before* the flip; ``new_edge`` lives in the graph
    after it.  A named tuple, so it compares equal to the plain 6-tuple
    of its fields.
    """

    edge: OrientedEdge
    a: OrientedEdge
    b: OrientedEdge
    c: OrientedEdge
    d: OrientedEdge
    new_edge: OrientedEdge


@dataclass(frozen=True)
class FlipPath:
    """Flips in order: the start and end graphs and one record per step."""

    start: FatGraph
    end: FatGraph
    steps: Tuple[FlipContext, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def closing_iso(self) -> Dict[OrientedEdge, OrientedEdge]:
        """The canonical isomorphism from the start graph to the end
        graph; ClosureError if the path does not close."""
        try:
            return canonical_iso(self.start, self.end)
        except FatGraphError as err:
            raise ClosureError(
                "path does not return to its starting graph") from err

    def is_closed(self) -> bool:
        """Is the end graph isomorphic rel tail to the start graph?"""
        try:
            self.closing_iso()
        except ClosureError:
            return False
        return True


def _edge_code(vert: Mapping[int, int], e: EdgeLike) -> int:
    """The code of edge argument e; FlipError unless ``vert`` holds it."""
    c = 2 * e if type(e) is int and e >= 0 else _code(e)
    if c not in vert:
        raise FlipError("no edge %s" % (_decode(c) if c >= 0 else repr(e),))
    return c


def flippable(graph: FatGraph, e: EdgeLike) -> bool:
    """Does ``flip(graph, e)`` succeed?  Read from the index in O(1)."""
    vert = graph._index()[1]
    try:
        c = _edge_code(vert, e)
    except FlipError:
        return False
    return _flippable(graph._rows, vert, graph._tail, c)


def _flippable(rows: Sequence[Tuple[int, ...]], vert: Mapping[int, int],
               tail: int, c: int) -> bool:
    """Is edge c>>1 not the tail, with two distinct trivalent ends?"""
    v, w = vert[c], vert[c ^ 1]
    return (c >> 1 != tail >> 1 and v != w and len(rows[v]) == 3
            and len(rows[w]) == 3)


def flippable_edges(graph: FatGraph) -> List[int]:
    """The flippable edge ids, increasing, from one pass over the index."""
    rows, vert, tail = graph._rows, graph._index()[1], graph._tail
    return sorted(c >> 1 for c in vert
                  if not c & 1 and _flippable(rows, vert, tail, c))


def fresh_edge_id(graph: FatGraph) -> int:
    """The id the next flip of ``graph`` gives its new edge."""
    return graph._fresh


def _flip_codes(state: _State, tail: int, fresh: int,
                e: EdgeLike) -> FlipContext:
    """Flip along e in place, giving the new edge the id ``fresh``; the
    one copy of the flip rule.  A FlipError leaves ``state`` as it was."""
    rows, succ, vert = state
    h = _edge_code(vert, e)
    x, v, w = h >> 1, vert[h], vert[h ^ 1]
    if x == tail >> 1:
        raise FlipError("cannot flip the tail edge")
    if v == w:
        raise FlipError("edge %d is a loop" % x)
    if len(rows[v]) != 3 or len(rows[w]) != 3:
        raise FlipError("endpoints of edge %d are not both trivalent" % x)
    a, c = succ[h], succ[h ^ 1]
    b, d = succ[a], succ[c]
    n = 2 * fresh
    size = len(succ)
    rows[v] = (n, b, c)
    rows[w] = (n + 1, d, a)
    # only the six half-edges at v and w move; e and ~e give way to e', ~e'
    del succ[h], succ[h ^ 1], vert[h], vert[h ^ 1]
    succ[n], succ[b], succ[c] = b, c, n
    succ[n + 1], succ[d], succ[a] = d, a, n + 1
    vert[n] = vert[c] = v
    vert[n + 1] = vert[a] = w
    if len(succ) != size:
        raise CorruptedStructureError(
            "flip of edge %d left %d half-edges, expected %d"
            % (x, len(succ), size))
    # tuple.__new__ skips the named tuple's Python-level constructor
    return tuple.__new__(FlipContext, map(_decode, (h, a, b, c, d, n)))


def _copy(graph: FatGraph) -> _State:
    """The rows and index of ``graph``, copied to be flipped in place;
    copy() clones a hash table, where dict() inserts entry by entry."""
    succ, vert = graph._index()
    return list(graph._rows), succ.copy(), vert.copy()


def flip(graph: FatGraph, e: EdgeLike) -> Tuple[FatGraph, FlipContext]:
    """Flip along e, returning the new graph and the move record."""
    rows, succ, vert = state = _copy(graph)
    ctx = _flip_codes(state, graph._tail, graph._fresh, e)
    return FatGraph._from_codes(tuple(rows), graph._tail, graph._fresh + 1,
                                succ, vert), ctx


def _walk(graph: FatGraph, edge: Callable[[int], EdgeLike], count: int,
          ids: Optional[List[int]] = None) -> FlipPath:
    """Flip edge(0), ..., edge(count - 1) in place on one copy of graph.
    ``ids``, if given, is kept the sorted flippable ids of the graph
    reached, for ``edge`` to draw from."""
    rows, succ, vert = state = _copy(graph)
    tail, fresh, steps = graph._tail, graph._fresh, []
    for i in range(count):
        if i and ids is not None:  # no draw follows the last step
            ctx = steps[-1]
            # a flip moves only a and c to another vertex, and adds its
            # new edge, the largest id
            del ids[bisect_left(ids, ctx.edge.edge)]
            for y in {ctx.a.edge, ctx.c.edge}:
                j = bisect_left(ids, y)
                kept = ids[j:j + 1] == [y]
                if kept != _flippable(rows, vert, tail, 2 * y):
                    ids[j:j + kept] = [] if kept else [y]  # drop or insert
            ids.append(ctx.new_edge.edge)
        try:
            steps.append(_flip_codes(state, tail, fresh + i, edge(i)))
        except FlipError as err:
            raise PathStepError(i, err) from err
    end = FatGraph._from_codes(tuple(rows), tail, fresh + count, succ, vert)
    return FlipPath(graph, end if steps else graph, tuple(steps))


def apply_path(graph: FatGraph, flips: Iterable[EdgeLike]) -> FlipPath:
    """Flip the listed edges in order, each in place on one copy of the
    graph; empty input gives the identity path."""
    edges = list(flips)
    return _walk(graph, edges.__getitem__, len(edges))


def replay_path(graph: FatGraph, moves: Sequence[Tuple[int, int]],
                translation: Mapping[int, int]) -> FlipPath:
    """Replay (flipped, created) edge-id pairs of another path on ``graph``.

    ``translation`` maps the other path's ids to ids of ``graph``; each
    created id is mapped to the id its replay creates, which the fresh-id
    rule fixes in advance, so later moves can flip it.
    """
    translation = dict(translation)
    fresh = fresh_edge_id(graph)
    edges = []
    for k, (flipped, created) in enumerate(moves):
        if flipped not in translation:
            raise PathStepError(k, FlipError(
                "edge %r has no translation" % (flipped,)))
        edges.append(translation[flipped])
        translation[created] = fresh + k
    return apply_path(graph, edges)


def _require_closed(path: FlipPath, what: str) -> FlipPath:
    if not path.is_closed():
        raise ClosureError("%s did not return to its starting graph" % what)
    return path


def reverse_path(path: FlipPath) -> FlipPath:
    """The path undoing ``path``, step by step in reverse.

    Each undo flips the current image of the edge the forward step
    created; images must be tracked because a forward step may flip an
    edge created earlier, whose id the undos recreate afresh.
    """
    return replay_path(path.end,
                       [(c.new_edge.edge, c.edge.edge)
                        for c in reversed(path.steps)],
                       {x: x for x in path.end.edge_ids()})


def concat_paths(first: FlipPath, second: FlipPath) -> FlipPath:
    """Join two paths where ``second`` starts at the end graph of ``first``."""
    if second.start != first.end:
        raise FatGraphError("paths do not share the junction graph")
    return FlipPath(first.start, second.end, first.steps + second.steps)


def involution_pair(graph: FatGraph, e: EdgeLike) -> FlipPath:
    """Flip e, then flip the edge it created.  A closed loop of length 2."""
    path = apply_path(graph, [e, fresh_edge_id(graph)])
    return _require_closed(path, "involution pair")


def commuting_loop(graph: FatGraph, e1: EdgeLike, e2: EdgeLike) -> FlipPath:
    """The length-4 loop flipping two disjoint edges and then undoing both."""
    x1, x2 = (_edge_code(graph._index()[1], e) >> 1 for e in (e1, e2))
    if set(graph.endpoints(x1)) & set(graph.endpoints(x2)):
        raise FlipError("edges %d and %d share an endpoint" % (x1, x2))
    n = fresh_edge_id(graph)
    path = apply_path(graph, [e1, e2, n, n + 1])
    return _require_closed(path, "commuting square")


def pentagon_path(graph: FatGraph, f: EdgeLike, g: EdgeLike) -> FlipPath:
    """The pentagon loop for two edges sharing exactly one endpoint.

    Alternately flips the current images of f and g, which is the edge
    list [f, g, n, n + 1, n + 2] for the fresh id n; by construction no
    flip immediately undoes the previous one.  The result is a closed
    loop.
    """
    x, y = (_edge_code(graph._index()[1], e) >> 1 for e in (f, g))
    if x == y:
        raise FlipError("pentagon needs two distinct edges")
    shared = set(graph.endpoints(x)) & set(graph.endpoints(y))
    if len(shared) != 1:
        raise FlipError("edges %d and %d share %d endpoints, need exactly 1"
                        % (x, y, len(shared)))
    n = fresh_edge_id(graph)
    path = apply_path(graph, [f, g, n, n + 1, n + 2])
    return _require_closed(path, "pentagon loop")


def _flippable_pairs(graph: FatGraph, shared: int) -> List[Tuple[int, int]]:
    """Pairs of flippable edges with exactly ``shared`` common endpoints."""
    ids = flippable_edges(graph)
    ends = {x: set(graph.endpoints(x)) for x in ids}
    return [(x, y) for i, x in enumerate(ids) for y in ids[i + 1:]
            if len(ends[x] & ends[y]) == shared]


def disjoint_flippable_pairs(graph: FatGraph) -> List[Tuple[int, int]]:
    """Pairs of flippable edges with no common endpoint."""
    return _flippable_pairs(graph, 0)


def adjacent_flippable_pairs(graph: FatGraph) -> List[Tuple[int, int]]:
    """Pairs of flippable edges sharing exactly one endpoint."""
    return _flippable_pairs(graph, 1)
