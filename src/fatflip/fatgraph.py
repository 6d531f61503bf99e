"""Fatgraphs with a tail: half-edge combinatorial maps on oriented surfaces.

A fatgraph is a connected graph together with a cyclic ordering of the
half-edges at every vertex plus one distinguished univalent vertex whose
incident edge is the *tail*.  Half-edges at a vertex v are identified
with the oriented edges pointing towards v, so the whole structure is a
list of cyclically ordered tuples of oriented edges.

Internally an oriented edge is an int code, 2x for ``x+`` and 2x + 1 for
``x-``: reversal is ``c ^ 1``, and codes sort like (edge, ``+`` before
``-``).  A graph stores one tuple of codes per vertex and the tail's
code.  This is the permutation model of a map (Lando & Zvonkin, *Graphs
on Surfaces and Their Applications*, 2004): the rows give the rotation
permutation, ``c ^ 1`` the edge involution.

The thickened surface is never built explicitly; its boundary cycles are
the orbits of the face traversal rule "continue with the reversal of the
cyclic successor", c -> succ(c) ^ 1, chosen so that the surface lies to
the left of the traverser.  Genus and boundary number come from the
Euler characteristic of the thickening.

Graphs are immutable; every operation returns fresh objects.  The public
view, ``FatGraph.vertices`` and ``FatGraph.tail``, is in
:class:`OrientedEdge` and is decoded from the codes on each read.  This
module is the one codec: :func:`_code` encodes a caller's ``(edge,
sign)``, a 2-tuple of an int id >= 0 and +-1, and anything else names
no half-edge; :func:`_decode`, one bounded cache, turns a code back into
an :class:`OrientedEdge`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Mapping
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


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
    """Shorthand constructor for an int id >= 0 and the int sign +-1."""
    if type(edge) is not int or edge < 0:
        raise ValueError("edge id must be an int >= 0, not %r" % (edge,))
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("direction flag must be +1 or -1, not %r" % (sign,))
    return OrientedEdge(edge, sign)


@functools.lru_cache(maxsize=1 << 15)
def _decode(c: int) -> OrientedEdge:
    """The oriented edge with code c.  Graphs share one object per cached
    code; the bound keeps a huge edge id from costing a table its size."""
    return OrientedEdge(c >> 1, -1 if c & 1 else 1)


def _code(h) -> int:
    """The code of an (edge, sign) pair; -1, which no graph holds, for
    anything but a 2-tuple of an int id >= 0 and the int sign +1 or -1."""
    if not isinstance(h, tuple) or len(h) != 2:
        return -1
    x, s = h
    if type(x) is not int or x < 0 or type(s) is not int or s not in (1, -1):
        return -1
    return 2 * x + (s < 0)


def _checked_code(h) -> int:
    """The code of a half-edge given to the constructor."""
    c = _code((h.edge, h.sign))
    if c < 0:
        raise HalfEdgeStructureError(
            "half-edge (%r, %r) needs an edge id that is an int >= 0 and "
            "a sign of +1 or -1" % (h.edge, h.sign))
    return c


def _successors(rows: Iterable[Tuple[int, ...]]) -> Dict[int, int]:
    """Each code to the next one in the cyclic order of its row."""
    succ: Dict[int, int] = {}
    for row in rows:
        succ.update(zip(row, row[1:] + row[:1]))
    return succ


def _pattern(rows: Iterable[Tuple[int, int]],
             cols: List[Tuple[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """The boundary pattern P(a, b) for a in ``rows`` and b in ``cols``.

    Each oriented edge h is given by its boundary ranks (r(h), r(~h)).
    With I_h the open arc that runs upward, cyclically, from r(h) to
    r(~h),

        P(a, b) = [r(~a) in I_b] - [r(a) in I_b].

    Read as a cyclic word in a, b, A = ~a and B = ~b, sorted by rank,
    this is +1 on rotations of (a, b, A, B), where I_b holds A but not
    a, -1 on rotations of (a, B, A, b), where it holds a but not A, and
    0 when b and B do not separate a from A, or when b is a or A.  So
    P is skew, P(a, b) = [r(b) in I_a] - [r(~b) in I_a], and each entry
    is read straight from the two pairs: with (lo, hi) = (r(a), r(~a)),
    x is in I_a when lo < x < hi, or, for an arc that wraps, when x is
    not in [hi, lo].
    """
    return tuple(
        tuple((lo < r < hi) - (lo < s < hi) for r, s in cols) if lo < hi
        else tuple((hi <= s <= lo) - (hi <= r <= lo) for r, s in cols)
        for lo, hi in rows)


class FatGraph:
    """Immutable fatgraph with tail.

    ``vertices`` is a tuple of cyclically ordered tuples of inward
    pointing oriented edges (one tuple per vertex, considered up to
    rotation); ``tail`` is the oriented tail edge, pointing away from
    its univalent endpoint.  Both are views, decoded by :func:`_decode`
    on each read from what the graph stores: ``_rows``, one tuple of
    codes per vertex in the same cyclic order, and ``_tail``, the tail's
    code.  ``_fresh`` is the next edge id, one more than the largest.
    :meth:`vertex_of` and :meth:`successor` read their argument with
    :func:`_code` and raise HalfEdgeStructureError for any argument
    that is not a half-edge of the graph.

    The half-edge index maps each code to the next code in the cyclic
    order at its head (``_succ``) and to that vertex (``_vert``).  The
    checked constructor builds it; a flip or a flip path in ``flips``
    copies its start graph's once and rewrites six entries per flip; a
    canonical form holds only its rows and builds the index on first
    use, since a flip-graph search drops most of them unread.
    The boundary number is counted once per graph and kept, and so are
    two walks from the tail: the breadth-first tail tree
    (:meth:`_spanning_tree`) and the pairing block of the edges off it
    (:meth:`_pairing_block`).  These three slots stay unset until first
    use, so no constructor stores them, and a walk that raises keeps
    nothing.

    Construction performs the purely structural checks (edge ids are
    ints >= 0 and signs are +-1, each oriented edge occurs at exactly
    one vertex, both orientations occur, the tail exists).
    Connectivity and the valence rules are checked separately by
    :meth:`validate`, so that degenerate graphs such as trees can still
    be built and measured.  The internal constructor :meth:`_from_codes`
    skips the structural checks; only ``flips`` (at the end of a flip or
    a flip path), :meth:`canonicalize` and ``flipgraph`` use it, on
    canonical or flipped rows that are valid by construction.
    """

    __slots__ = ("_rows", "_tail", "_fresh", "_succ", "_vert",
                 "_boundaries", "_tree", "_pairing")

    def __init__(self, vertices: Iterable[Iterable[OrientedEdge]],
                 tail: OrientedEdge):
        rows = tuple(tuple(map(_checked_code, v)) for v in vertices)
        vert: Dict[int, int] = {}
        for vi, row in enumerate(rows):
            for c in row:
                if c in vert:
                    raise HalfEdgeStructureError(
                        "half-edge %s occurs at vertices %d and %d"
                        % (_decode(c), vert[c], vi))
                vert[c] = vi
        for c in vert:
            if c ^ 1 not in vert:
                raise HalfEdgeStructureError(
                    "half-edge %s has no reverse %s"
                    % (_decode(c), _decode(c ^ 1)))
        t = _code((tail.edge, tail.sign))
        if t not in vert:
            raise HalfEdgeStructureError(
                "tail %s is not a half-edge"
                % (OrientedEdge(tail.edge, tail.sign),))
        self._rows = rows
        self._tail = t
        self._fresh = max(vert) // 2 + 1
        self._succ = _successors(rows)
        self._vert = vert

    @classmethod
    def _from_codes(cls, rows: Tuple[Tuple[int, ...], ...], tail: int,
                    fresh: int, succ: Optional[Dict[int, int]] = None,
                    vert: Optional[Dict[int, int]] = None) -> "FatGraph":
        """Wrap code rows, and optionally their index, known to be
        consistent; without an index, it is built on first use."""
        graph = object.__new__(cls)
        graph._rows = rows
        graph._tail = tail
        graph._fresh = fresh
        graph._succ = succ
        graph._vert = vert
        return graph

    def _index(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The half-edge index (successor, vertex), built on first use."""
        if self._succ is None:
            vert: Dict[int, int] = {}
            for vi, row in enumerate(self._rows):
                vert.update(dict.fromkeys(row, vi))
            self._succ, self._vert = _successors(self._rows), vert
        return self._succ, self._vert

    # -- the oriented-edge view -------------------------------------------

    @property
    def vertices(self) -> Tuple[Tuple[OrientedEdge, ...], ...]:
        return tuple(tuple(map(_decode, row)) for row in self._rows)

    @property
    def tail(self) -> OrientedEdge:
        return _decode(self._tail)

    # -- basic counting ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._rows)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._rows)) // 2

    def edge_ids(self) -> List[int]:
        return sorted(c >> 1 for row in self._rows for c in row
                      if not c & 1)

    def oriented_edges(self) -> List[OrientedEdge]:
        return list(map(_decode, sorted(chain.from_iterable(self._rows))))

    def _look_up(self, which: int, h) -> int:
        """Entry h of index table ``which``: 0 successor, 1 vertex."""
        c = _code(h)
        try:
            return self._index()[which][c]
        except KeyError:
            raise HalfEdgeStructureError("no half-edge %s" % (
                _decode(c) if c >= 0 else repr(h),)) from None

    def vertex_of(self, h: OrientedEdge) -> int:
        """Index of the vertex the oriented edge points to."""
        return self._look_up(1, h)

    def endpoints(self, edge: int) -> Tuple[int, int]:
        """Vertex indices of the two ends of an unoriented edge."""
        return (self.vertex_of(OrientedEdge(edge, 1)),
                self.vertex_of(OrientedEdge(edge, -1)))

    def successor(self, h: OrientedEdge) -> OrientedEdge:
        """The next inward half-edge after h in the cyclic order at its head."""
        return _decode(self._look_up(0, h))

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise a specific FatGraphError unless all invariants hold."""
        rows = self._rows
        self._check_connected()
        vert = self._index()[1]
        univalent = [vi for vi, row in enumerate(rows) if len(row) == 1]
        if len(univalent) != 1:
            raise UnivalentVertexError(
                "expected exactly one univalent vertex, found %d"
                % len(univalent))
        tail_end = vert[self._tail ^ 1]
        if univalent != [tail_end]:
            raise UnivalentVertexError(
                "tail %s does not point away from the univalent vertex"
                % (self.tail,))
        for vi, row in enumerate(rows):
            if vi != tail_end and len(row) < 3:
                raise ValenceError("vertex %d has valence %d < 3"
                                   % (vi, len(row)))

    def _check_connected(self) -> None:
        """Raise DisconnectedGraphError unless the tree from the tail spans."""
        reached = len(self._spanning_tree()[0]) + 1
        if reached != len(self._rows):
            raise DisconnectedGraphError("only %d of %d vertices reachable"
                                         % (reached, len(self._rows)))

    def _spanning_tree(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The breadth-first spanning tree grown from the tail vertex,
        listed by its links: the code of the tree edge pointing into each
        vertex it reached, in the order reached; and the ids of the edges
        off it, ascending, those of any other component included.  It
        spans the graph iff it has V - 1 links.  Grown on first use and
        kept."""
        if hasattr(self, "_tree"):
            return self._tree
        rows, vert = self._rows, self._index()[1]
        root = vert[self._tail ^ 1]
        seen, links, queue = {root}, [], [root]
        for vi in queue:  # breadth first: the loop reads what it appends
            for c in rows[vi]:
                other = vert[c ^ 1]
                if other not in seen:
                    seen.add(other)
                    links.append(c ^ 1)
                    queue.append(other)
        tree = {c >> 1 for c in links}
        self._tree = tuple(links), tuple(x for x in self.edge_ids()
                                         if x not in tree)
        return self._tree

    # -- boundary structure ---------------------------------------------

    def _cycle(self, start: int) -> List[int]:
        """The codes of the boundary cycle through ``start``, from there."""
        succ = self._index()[0]
        cycle = [start]
        c = succ[start] ^ 1
        for _ in range(len(succ)):
            if c == start:
                return cycle
            cycle.append(c)
            c = succ[c] ^ 1
        raise CorruptedStructureError(
            "boundary walk from %s does not close" % (_decode(start),))

    def boundary_cycles(self) -> Tuple[Tuple[OrientedEdge, ...], ...]:
        """The boundary cycles of the thickened surface.

        Every oriented edge occurs in exactly one cycle, exactly once.
        The cycle through the tail is listed first and starts at the
        tail; every other cycle starts at its least oriented edge, and
        the cycles are sorted by their starting edge.
        """
        cycles = [self._cycle(self._tail)]
        seen = set(cycles[0])
        for start in sorted(self._index()[0].keys() - seen):
            if start not in seen:
                cycles.append(self._cycle(start))
                seen.update(cycles[-1])
        return tuple(tuple(map(_decode, c)) for c in cycles)

    def boundary_number(self) -> int:
        if not hasattr(self, "_boundaries"):
            self._boundaries = len(self.boundary_cycles())
        return self._boundaries

    def genus(self) -> int:
        """Genus of the thickened surface, via 2 - 2g - b = V - E; a
        disconnected graph raises DisconnectedGraphError."""
        self._check_connected()
        twice = 2 - self.boundary_number() - self.num_vertices + self.num_edges
        if twice < 0 or twice % 2:
            raise CorruptedStructureError(
                "Euler characteristic gives 2g = %d" % twice)
        return twice // 2

    def _tail_cycle(self) -> List[int]:
        """The codes of the boundary cycle from the tail, which must be
        the only one: the gate of every walk that needs boundary number 1."""
        cycle = self._cycle(self._tail)
        if len(cycle) != len(self._index()[0]):
            raise BoundaryNumberError(
                "boundary order needs boundary number 1, got %d"
                % self.boundary_number())
        return cycle

    def _pairing_block(self) -> Tuple[Tuple[int, ...], ...]:
        """The boundary pattern P on the ``+`` orientations of the edges
        off the tail tree, from one walk of the only boundary cycle.
        Built on first use and kept; it holds ints only, so it keeps no
        graph alive."""
        if hasattr(self, "_pairing"):
            return self._pairing
        cycle = self._tail_cycle()
        rank = dict(zip(cycle, range(len(cycle))))  # by code
        ranks = [(rank[2 * x], rank[2 * x + 1])
                 for x in self._spanning_tree()[1]]
        self._pairing = _pattern(ranks, ranks)
        return self._pairing

    def boundary_order(self) -> Dict[OrientedEdge, int]:
        """Rank of first appearance along the boundary, starting at the tail.

        Only defined when there is a single boundary cycle.
        """
        return {_decode(c): i for i, c in enumerate(self._tail_cycle())}

    # -- canonical form --------------------------------------------------

    def _canonical_codes(self) -> Tuple[Dict[int, int],
                                        Tuple[Tuple[int, ...], ...], int]:
        """The relabeling by boundary ranks, the canonical rows and the
        canonical form's fresh edge id, from one walk from the tail."""
        succ = self._index()[0]
        n = len(succ)
        # the first orientation of an edge met along the boundary, at
        # rank i, becomes i+ (code 2i), the other one i- (code 2i + 1);
        # the walk counts r = 2i, so last // 2 is the largest new edge id
        code: Dict[int, int] = {}
        c = t = self._tail
        for r in range(0, 2 * n, 2):
            if c not in code:
                code[c] = r
                code[c ^ 1] = r + 1
                last = r
            c = succ[c] ^ 1
            if c == t:
                break
        if c != t or r + 2 != 2 * n:  # open, or closed early: walk again,
            self._tail_cycle()  # to raise the error that says which
        rows = []
        for row in self._rows:
            if len(row) == 3:  # every vertex but the tail's, in a flip graph
                x, y, z = row
                x, y, z = code[x], code[y], code[z]
                if x < y:
                    rows.append((x, y, z) if x < z else (z, x, y))
                else:
                    rows.append((y, z, x) if y < z else (z, x, y))
            elif len(row) == 1:  # the tail vertex's
                rows.append((code[row[0]],))
            else:
                w = tuple(map(code.__getitem__, row))
                k = w.index(min(w))
                rows.append(w[k:] + w[:k] if k else w)
        rows.sort()
        if sum(map(len, rows)) != n:
            raise CorruptedStructureError(
                "canonical form has %d half-edges, expected %d"
                % (sum(map(len, rows)), n))
        return code, tuple(rows), last // 2 + 1

    def canonicalize(self) -> Tuple["FatGraph", Mapping[OrientedEdge, OrientedEdge]]:
        """Relabel by boundary ranks into a canonical representative.

        Edge x becomes the rank of its smaller-ranked orientation, which
        also becomes the positive direction; vertex lists are rotated to
        start at their least half-edge and sorted.  Two graphs have
        equal canonical forms iff some isomorphism preserving the tail
        and all cyclic orders relates them.  Requires boundary number 1.
        The canonical form holds only its rows; its index is built on
        first use.  The relabeling is a read-only view, decoded on each
        read like :attr:`vertices`; ``dict(...)`` of it is a plain dict.
        """
        code, rows, fresh = self._canonical_codes()
        return FatGraph._from_codes(rows, 0, fresh), _Relabel(code)

    def canonical_key(self) -> Tuple[Tuple[int, ...], ...]:
        """A hashable complete invariant for tail-preserving isomorphism:
        the code rows of the canonical form, whose tail is always 0+."""
        return self._canonical_codes()[1]

    # -- misc -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Literal structural equality (same tuples, same order)."""
        return (isinstance(other, FatGraph)
                and self._rows == other._rows
                and self._tail == other._tail)

    def __hash__(self) -> int:
        return hash((self._rows, self._tail))

    def __repr__(self) -> str:
        return ("FatGraph(%d vertices, %d edges, tail %s)"
                % (self.num_vertices, self.num_edges, self.tail))


class _Relabel(Mapping):
    """The relabeling of :meth:`FatGraph.canonicalize`: a read-only view
    of a code-to-code table that decodes each key and value on read."""

    __slots__ = ("_codes",)

    def __init__(self, codes: Dict[int, int]):
        self._codes = codes

    def __getitem__(self, h) -> OrientedEdge:
        c = _code(h)  # anything but a half-edge is a missing key
        if c not in self._codes:
            raise KeyError(h)
        return _decode(self._codes[c])

    def __iter__(self) -> Iterator[OrientedEdge]:
        return map(_decode, self._codes)

    def __len__(self) -> int:
        return len(self._codes)


def canonical_iso(src: FatGraph, dst: FatGraph) -> Dict[OrientedEdge, OrientedEdge]:
    """The unique tail-preserving isomorphism src -> dst on oriented edges.

    A connected tailed fatgraph is rigid: an isomorphism is fixed on the
    tail, hence on everything reached from it by successor and reversal,
    which is every oriented edge.  So one walk from the two tails finds
    the only candidate.  Raises FatGraphError unless that candidate is a
    bijection respecting successor and reversal.
    """
    src_succ, dst_succ = src._index()[0], dst._index()[0]
    iso = {src._tail: dst._tail}
    todo = [src._tail]
    while todo:
        h = todo.pop()
        k = iso[h]
        for h2, k2 in ((h ^ 1, k ^ 1), (src_succ[h], dst_succ[k])):
            if h2 not in iso:
                iso[h2] = k2
                todo.append(h2)
            elif iso[h2] != k2:
                raise FatGraphError("graphs are not isomorphic rel tail")
    # the walk must reach all of src (it is connected) and hit all of dst
    if not len(iso) == len(src_succ) == len(dst_succ) == len(set(iso.values())):
        raise FatGraphError("graphs are not isomorphic rel tail")
    return {_decode(h): _decode(k) for h, k in iso.items()}
