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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .fatgraph import FatGraph, FatGraphError, OrientedEdge

EdgeLike = Union[int, OrientedEdge]


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


@dataclass(frozen=True)
class FlipContext:
    """Everything recorded about one flip.

    ``edge`` and the four neighbor labels a, b, c, d are oriented edges
    of the graph *before* the flip; ``new_edge`` lives in the graph
    after it.
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

    def correspondence(self) -> Dict[OrientedEdge, OrientedEdge]:
        """The composed identification of oriented edges, start to end."""
        out = {h: h for h in self.start.oriented_edges()}
        for ctx in self.steps:
            e, e2 = ctx.edge, ctx.new_edge
            for k, v in out.items():
                if v == e:
                    out[k] = e2
                elif v == e.rev:
                    out[k] = e2.rev
        return out

    def is_closed(self) -> bool:
        return self.start.canonical_key() == self.end.canonical_key()


def _as_oriented(graph: FatGraph, e: EdgeLike) -> OrientedEdge:
    if isinstance(e, OrientedEdge):
        return e
    return OrientedEdge(int(e), 1)


def flippable(graph: FatGraph, e: EdgeLike) -> bool:
    e = _as_oriented(graph, e)
    if e not in graph._at or e.edge == graph.tail.edge:
        return False
    v, w = graph.vertex_of(e), graph.vertex_of(e.rev)
    return v != w and graph.valence(v) == 3 and graph.valence(w) == 3


def flippable_edges(graph: FatGraph) -> List[int]:
    return [x for x in graph.edge_ids() if flippable(graph, x)]


def fresh_edge_id(graph: FatGraph) -> int:
    """The id the next flip of ``graph`` gives its new edge."""
    return max(graph.edge_ids()) + 1


def flip(graph: FatGraph, e: EdgeLike) -> Tuple[FatGraph, FlipContext]:
    """Flip along e, returning the new graph and the move record."""
    e = _as_oriented(graph, e)
    if e not in graph._at:
        raise FlipError("no edge %s" % (e,))
    if e.edge == graph.tail.edge:
        raise FlipError("cannot flip the tail edge")
    v, w = graph.vertex_of(e), graph.vertex_of(e.rev)
    if v == w:
        raise FlipError("edge %d is a loop" % e.edge)
    if graph.valence(v) != 3 or graph.valence(w) != 3:
        raise FlipError("endpoints of edge %d are not both trivalent" % e.edge)

    a = graph.successor(e)
    b = graph.successor(a)
    c = graph.successor(e.rev)
    d = graph.successor(c)
    e2 = OrientedEdge(fresh_edge_id(graph), 1)

    verts = list(graph.vertices)
    verts[v] = (e2, b, c)
    verts[w] = (e2.rev, d, a)
    ctx = FlipContext(edge=e, a=a, b=b, c=c, d=d, new_edge=e2)
    return FatGraph(verts, graph.tail), ctx


def apply_path(graph: FatGraph, flips: Iterable[EdgeLike]) -> FlipPath:
    """Flip the listed edges in order; empty input gives the identity path."""
    cur = graph
    steps: List[FlipContext] = []
    for i, e in enumerate(flips):
        try:
            cur, ctx = flip(cur, e)
        except FlipError as err:
            raise PathStepError(i, err) from err
        steps.append(ctx)
    return FlipPath(graph, cur, tuple(steps))


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
    e1 = _as_oriented(graph, e1)
    e2 = _as_oriented(graph, e2)
    ends1 = set(graph.endpoints(e1.edge))
    ends2 = set(graph.endpoints(e2.edge))
    if ends1 & ends2:
        raise FlipError("edges %d and %d share an endpoint"
                        % (e1.edge, e2.edge))
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
    f = _as_oriented(graph, f)
    g = _as_oriented(graph, g)
    if f.edge == g.edge:
        raise FlipError("pentagon needs two distinct edges")
    shared = set(graph.endpoints(f.edge)) & set(graph.endpoints(g.edge))
    if len(shared) != 1:
        raise FlipError("edges %d and %d share %d endpoints, need exactly 1"
                        % (f.edge, g.edge, len(shared)))
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
