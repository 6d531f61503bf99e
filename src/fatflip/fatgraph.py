"""Fatgraphs with a tail: half-edge combinatorial maps on oriented surfaces.

A fatgraph is a connected graph together with a cyclic ordering of the
half-edges at every vertex plus one distinguished univalent vertex whose
incident edge is the *tail*.  Half-edges at a vertex v are identified
with the oriented edges pointing towards v, so the whole structure is a
list of cyclically ordered tuples of oriented edges.

The thickened surface is never built explicitly; its boundary cycles are
the orbits of the face traversal rule "continue with the reversal of the
cyclic successor", chosen so that the surface lies to the left of the
traverser.  Genus and boundary number come from the Euler characteristic
of the thickening.

Graphs are immutable; every operation returns fresh objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple


class FatGraphError(ValueError):
    """Base class for structural problems with a fatgraph."""


class HalfEdgeStructureError(FatGraphError):
    """A half-edge is missing, duplicated, or the tail does not exist."""


class DisconnectedGraphError(FatGraphError):
    pass


class ValenceError(FatGraphError):
    """A non-tail vertex has valence below three."""


class UnivalentVertexError(FatGraphError):
    """Univalent vertices other than the tail endpoint, or none at all."""


class BoundaryNumberError(FatGraphError):
    """An operation required a single boundary cycle."""


class CorruptedStructureError(FatGraphError):
    """Euler characteristic bookkeeping failed; the graph data is broken."""


class OrientedEdge(NamedTuple):
    """An edge id together with a direction flag (+1 or -1)."""

    edge: int
    sign: int

    @property
    def rev(self) -> "OrientedEdge":
        return OrientedEdge(self.edge, -self.sign)

    def __str__(self) -> str:
        return "%d%s" % (self.edge, "+" if self.sign > 0 else "-")


def oe(edge: int, sign: int = 1) -> OrientedEdge:
    """Shorthand constructor; ``sign`` may be +-1 or the characters +/-."""
    if sign in ("+", "-"):
        sign = 1 if sign == "+" else -1
    if sign not in (1, -1):
        raise ValueError("direction flag must be +1 or -1")
    return OrientedEdge(int(edge), sign)


def _edge_key(e: OrientedEdge) -> Tuple[int, int]:
    # '+' before '-' so that sorting is stable and readable
    return (e.edge, 0 if e.sign > 0 else 1)


class FatGraph:
    """Immutable fatgraph with tail.

    ``vertices`` is a sequence of cyclically ordered tuples of inward
    pointing oriented edges (one tuple per vertex, considered up to
    rotation); ``tail`` is the oriented tail edge, pointing away from
    its univalent endpoint.

    Construction performs the purely structural checks (each oriented
    edge occurs at exactly one vertex, both orientations occur, the tail
    exists).  Connectivity and the valence rules are checked separately
    by :meth:`validate`, so that degenerate graphs such as trees can
    still be built and measured.
    """

    __slots__ = ("vertices", "tail", "_at")

    def __init__(self, vertices: Iterable[Iterable[OrientedEdge]],
                 tail: OrientedEdge):
        verts = tuple(tuple(OrientedEdge(h.edge, h.sign) for h in v)
                      for v in vertices)
        at: Dict[OrientedEdge, Tuple[int, int]] = {}
        for vi, v in enumerate(verts):
            for pos, h in enumerate(v):
                if h in at:
                    raise HalfEdgeStructureError(
                        "half-edge %s occurs at vertices %d and %d"
                        % (h, at[h][0], vi))
                at[h] = (vi, pos)
        for h in at:
            if h.rev not in at:
                raise HalfEdgeStructureError(
                    "half-edge %s has no reverse %s" % (h, h.rev))
        tail = OrientedEdge(tail.edge, tail.sign)
        if tail not in at:
            raise HalfEdgeStructureError("tail %s is not a half-edge" % (tail,))
        self.vertices = verts
        self.tail = tail
        self._at = at

    # -- basic counting ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self._at) // 2

    def edge_ids(self) -> List[int]:
        return sorted({h.edge for h in self._at})

    def oriented_edges(self) -> List[OrientedEdge]:
        return sorted(self._at, key=_edge_key)

    def vertex_of(self, h: OrientedEdge) -> int:
        """Index of the vertex the oriented edge points to."""
        try:
            return self._at[h][0]
        except KeyError:
            raise HalfEdgeStructureError("no half-edge %s" % (h,)) from None

    def endpoints(self, edge: int) -> Tuple[int, int]:
        """Vertex indices of the two ends of an unoriented edge."""
        return (self.vertex_of(OrientedEdge(edge, 1)),
                self.vertex_of(OrientedEdge(edge, -1)))

    def valence(self, vi: int) -> int:
        return len(self.vertices[vi])

    def successor(self, h: OrientedEdge) -> OrientedEdge:
        """The next inward half-edge after h in the cyclic order at its head."""
        vi, pos = self._at[h]
        v = self.vertices[vi]
        return v[(pos + 1) % len(v)]

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise a specific FatGraphError unless all invariants hold."""
        if not self.vertices:
            raise HalfEdgeStructureError("graph has no vertices")
        seen = {0}
        queue = [0]
        while queue:
            vi = queue.pop()
            for h in self.vertices[vi]:
                other = self.vertex_of(h.rev)
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if len(seen) != self.num_vertices:
            raise DisconnectedGraphError(
                "only %d of %d vertices reachable" % (len(seen),
                                                      self.num_vertices))
        univalent = [vi for vi, v in enumerate(self.vertices) if len(v) == 1]
        if len(univalent) != 1:
            raise UnivalentVertexError(
                "expected exactly one univalent vertex, found %d"
                % len(univalent))
        tail_end = self.vertex_of(self.tail.rev)
        if univalent != [tail_end]:
            raise UnivalentVertexError(
                "tail %s does not point away from the univalent vertex"
                % (self.tail,))
        for vi, v in enumerate(self.vertices):
            if vi != tail_end and len(v) < 3:
                raise ValenceError("vertex %d has valence %d < 3"
                                   % (vi, len(v)))

    # -- boundary structure ---------------------------------------------

    def boundary_cycles(self) -> Tuple[Tuple[OrientedEdge, ...], ...]:
        """The boundary cycles of the thickened surface.

        Every oriented edge occurs in exactly one cycle, exactly once.
        The cycle through the tail is listed first and starts at the
        tail; every other cycle starts at its least oriented edge, and
        the cycles are sorted by their starting edge.
        """
        succ = {}
        for v in self.vertices:
            n = len(v)
            for pos, h in enumerate(v):
                succ[h] = v[(pos + 1) % n].rev
        unseen = set(succ)
        cycles = []
        starts = [self.tail] + sorted(unseen, key=_edge_key)
        for start in starts:
            if start not in unseen:
                continue
            cycle = []
            h = start
            while h in unseen:
                unseen.remove(h)
                cycle.append(h)
                h = succ[h]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def boundary_number(self) -> int:
        return len(self.boundary_cycles())

    def genus(self) -> int:
        """Genus of the thickened surface, via 2 - 2g - b = V - E."""
        twice = 2 - self.boundary_number() - self.num_vertices + self.num_edges
        if twice < 0 or twice % 2:
            raise CorruptedStructureError(
                "Euler characteristic gives 2g = %d" % twice)
        return twice // 2

    def boundary_order(self) -> Dict[OrientedEdge, int]:
        """Rank of first appearance along the boundary, starting at the tail.

        Only defined when there is a single boundary cycle.
        """
        cycles = self.boundary_cycles()
        if len(cycles) != 1:
            raise BoundaryNumberError(
                "boundary order needs boundary number 1, got %d" % len(cycles))
        return {h: i for i, h in enumerate(cycles[0])}

    # -- canonical form --------------------------------------------------

    def canonicalize(self) -> Tuple["FatGraph", Dict[OrientedEdge, OrientedEdge]]:
        """Relabel by boundary ranks into a canonical representative.

        Edge x becomes the rank of its smaller-ranked orientation, which
        also becomes the positive direction; vertex lists are rotated to
        start at their least half-edge and sorted.  Two graphs have
        equal canonical forms iff some isomorphism preserving the tail
        and all cyclic orders relates them.  Requires boundary number 1.
        """
        rank = self.boundary_order()
        relabel: Dict[OrientedEdge, OrientedEdge] = {}
        for x in self.edge_ids():
            plus, minus = OrientedEdge(x, 1), OrientedEdge(x, -1)
            rp, rm = rank[plus], rank[minus]
            new = min(rp, rm)
            relabel[plus] = OrientedEdge(new, 1 if rp < rm else -1)
            relabel[minus] = relabel[plus].rev
        verts = []
        for v in self.vertices:
            w = tuple(relabel[h] for h in v)
            k = min(range(len(w)), key=lambda i: _edge_key(w[i]))
            verts.append(w[k:] + w[:k])
        verts.sort(key=lambda w: tuple(_edge_key(h) for h in w))
        return FatGraph(verts, relabel[self.tail]), relabel

    def canonical_key(self):
        """A hashable complete invariant for tail-preserving isomorphism."""
        g, _ = self.canonicalize()
        return (g.vertices, g.tail)

    # -- misc -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Literal structural equality (same tuples, same order)."""
        return (isinstance(other, FatGraph)
                and self.vertices == other.vertices
                and self.tail == other.tail)

    def __hash__(self) -> int:
        return hash((self.vertices, self.tail))

    def __repr__(self) -> str:
        return ("FatGraph(%d vertices, %d edges, tail %s)"
                % (self.num_vertices, self.num_edges, self.tail))


def validate(graph: FatGraph) -> None:
    graph.validate()


def canonical_iso(src: FatGraph, dst: FatGraph) -> Dict[OrientedEdge, OrientedEdge]:
    """The unique tail-preserving isomorphism src -> dst on oriented edges.

    Tailed fatgraphs with one boundary cycle are rigid, so the
    isomorphism is the composite of the two canonical relabelings.
    Raises FatGraphError when the canonical forms differ.
    """
    c_src, m_src = src.canonicalize()
    c_dst, m_dst = dst.canonicalize()
    if c_src != c_dst:
        raise FatGraphError("graphs are not isomorphic rel tail")
    back = {v: k for k, v in m_dst.items()}
    return {h: back[m_src[h]] for h in m_src}
