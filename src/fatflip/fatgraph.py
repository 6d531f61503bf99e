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


# interned canonical oriented edges, shared by all canonical forms: entry
# 2x is x+ and entry 2x + 1 is x-, so an entry depends only on its index
_CANONICAL_EDGES: List[OrientedEdge] = []


def _canonical_edges(size: int) -> List[OrientedEdge]:
    """The interned table with at least ``size`` entries."""
    global _CANONICAL_EDGES
    table = _CANONICAL_EDGES
    if len(table) < size:
        # a new list, bound in one step, so no caller sees a partial table
        table = [OrientedEdge(c // 2, -1 if c % 2 else 1) for c in range(size)]
        _CANONICAL_EDGES = table
    return table


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
    still be built and measured.  The internal constructor :meth:`_of`
    skips the structural checks; only :func:`flips.flip` and
    :meth:`canonicalize` use it, whose results are valid by construction.
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

    @classmethod
    def _of(cls, vertices: Tuple[Tuple[OrientedEdge, ...], ...],
            tail: OrientedEdge,
            at: Dict[OrientedEdge, Tuple[int, int]]) -> "FatGraph":
        """Wrap tuples and a half-edge index known to be consistent."""
        graph = object.__new__(cls)
        graph.vertices = vertices
        graph.tail = tail
        graph._at = at
        return graph

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

    def _cycle(self, start: OrientedEdge) -> List[OrientedEdge]:
        """The boundary cycle through ``start``, beginning there."""
        at, verts = self._at, self.vertices
        cycle = [start]
        vi, pos = at[start]
        for _ in range(len(at)):
            v = verts[vi]
            s = v[(pos + 1) % len(v)]
            # a plain (edge, sign) pair finds the reversal without building it
            vi, pos = at[(s[0], -s[1])]
            h = verts[vi][pos]
            if h == start:
                return cycle
            cycle.append(h)
        raise CorruptedStructureError(
            "boundary walk from %s does not close" % (start,))

    def boundary_cycles(self) -> Tuple[Tuple[OrientedEdge, ...], ...]:
        """The boundary cycles of the thickened surface.

        Every oriented edge occurs in exactly one cycle, exactly once.
        The cycle through the tail is listed first and starts at the
        tail; every other cycle starts at its least oriented edge, and
        the cycles are sorted by their starting edge.
        """
        cycles = [self._cycle(self.tail)]
        seen = set(cycles[0])
        for start in sorted(self._at.keys() - seen, key=_edge_key):
            if start not in seen:
                cycles.append(self._cycle(start))
                seen.update(cycles[-1])
        return tuple(tuple(c) for c in cycles)

    def boundary_number(self) -> int:
        return len(self.boundary_cycles())

    def genus(self) -> int:
        """Genus of the thickened surface, via 2 - 2g - b = V - E."""
        twice = 2 - self.boundary_number() - self.num_vertices + self.num_edges
        if twice < 0 or twice % 2:
            raise CorruptedStructureError(
                "Euler characteristic gives 2g = %d" % twice)
        return twice // 2

    def _tail_cycle(self) -> List[OrientedEdge]:
        """The boundary cycle from the tail, which must be the only one."""
        cycle = self._cycle(self.tail)
        if len(cycle) != len(self._at):
            raise BoundaryNumberError(
                "boundary order needs boundary number 1, got %d"
                % self.boundary_number())
        return cycle

    def boundary_order(self) -> Dict[OrientedEdge, int]:
        """Rank of first appearance along the boundary, starting at the tail.

        Only defined when there is a single boundary cycle.
        """
        return {h: i for i, h in enumerate(self._tail_cycle())}

    # -- canonical form --------------------------------------------------

    def canonicalize(self) -> Tuple["FatGraph", Dict[OrientedEdge, OrientedEdge]]:
        """Relabel by boundary ranks into a canonical representative.

        Edge x becomes the rank of its smaller-ranked orientation, which
        also becomes the positive direction; vertex lists are rotated to
        start at their least half-edge and sorted.  Two graphs have
        equal canonical forms iff some isomorphism preserving the tail
        and all cyclic orders relates them.  Requires boundary number 1.
        """
        cycle = self._tail_cycle()
        # code 2x (x+) or 2x + 1 (x-) sorts like _edge_key; the first
        # orientation of an edge met along the boundary becomes x+
        code: Dict[Tuple[int, int], int] = {}
        for i, h in enumerate(cycle):
            if h not in code:
                code[h] = 2 * i
                code[(h[0], -h[1])] = 2 * i + 1
        rows = []
        for v in self.vertices:
            w = [code[h] for h in v]
            k = w.index(min(w))
            rows.append(w[k:] + w[:k] if k else w)
        rows.sort()
        table = _canonical_edges(2 * len(cycle))
        verts = []
        at: Dict[OrientedEdge, Tuple[int, int]] = {}
        for vi, w in enumerate(rows):
            v = tuple([table[c] for c in w])
            for pos, h in enumerate(v):
                at[h] = (vi, pos)
            verts.append(v)
        if len(at) != len(cycle):
            raise CorruptedStructureError(
                "canonical form has %d half-edges, expected %d"
                % (len(at), len(cycle)))
        relabel = {h: table[code[h]] for h in cycle}
        return FatGraph._of(tuple(verts), table[0], at), relabel

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


def canonical_iso(src: FatGraph, dst: FatGraph) -> Dict[OrientedEdge, OrientedEdge]:
    """The unique tail-preserving isomorphism src -> dst on oriented edges.

    A connected tailed fatgraph is rigid: an isomorphism is fixed on the
    tail, hence on everything reached from it by successor and reversal,
    which is every oriented edge.  So one walk from the two tails finds
    the only candidate.  Raises FatGraphError unless that candidate is a
    bijection respecting successor and reversal.
    """
    iso = {src.tail: dst.tail}
    todo = [src.tail]
    while todo:
        h = todo.pop()
        k = iso[h]
        for h2, k2 in ((h.rev, k.rev), (src.successor(h), dst.successor(k))):
            if h2 not in iso:
                iso[h2] = k2
                todo.append(h2)
            elif iso[h2] != k2:
                raise FatGraphError("graphs are not isomorphic rel tail")
    # the walk must reach all of src (it is connected) and hit all of dst
    if not len(iso) == len(src._at) == len(dst._at) == len(set(iso.values())):
        raise FatGraphError("graphs are not isomorphic rel tail")
    return iso
