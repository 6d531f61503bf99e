"""Markings of fatgraphs by a free abelian group K = Z^r.

A marking assigns a vector to every oriented edge subject to three
axioms: Inversion (reversing an edge negates its value), Coherence (the
inward values at each vertex sum to zero) and Surjectivity (the values
generate Z^r).  Markings propagate across flips, and for K = Z^{2g} with
a symplectic form the intersection-number criterion singles out the
markings that come from the surface's homology.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from . import intlinalg
from .abelian import KElement
from .fatgraph import FatGraph, OrientedEdge
from .flips import FlipContext


class MarkingError(ValueError):
    """Base class for marking axiom violations."""


class InversionError(MarkingError):
    pass


class CoherenceError(MarkingError):
    pass


class SurjectivityError(MarkingError):
    pass


class MarkingDomainError(MarkingError):
    """The marking is not defined on every oriented edge of the graph."""


class PairingError(MarkingError):
    """The boundary pairing is not well-defined or not unimodular."""


class Marking:
    """Map from oriented edges to Z^r with Inversion built in.

    ``values`` holds one vector per edge id, the value on the edge's
    ``+`` orientation; the ``-`` orientation carries its negative.  The
    constructor accepts either orientation of an edge or both, and
    checks that both agree.
    """

    __slots__ = ("rank", "values")

    def __init__(self, rank: int, values: Mapping[OrientedEdge, KElement]):
        self.rank = int(rank)
        vals: Dict[int, KElement] = {}
        for e, k in values.items():
            if k.rank != self.rank:
                raise MarkingError("value on %s has rank %d, marking has %d"
                                   % (e, k.rank, self.rank))
            k = k if e.sign > 0 else -k
            if vals.setdefault(e.edge, k) != k:
                raise InversionError(
                    "values on %s and %s are not opposite" % (e.rev, e))
        self.values = vals

    @classmethod
    def _of_edges(cls, rank: int, values: Dict[int, KElement]) -> "Marking":
        """Wrap per-edge values that are already known to be consistent."""
        marking = cls.__new__(cls)
        marking.rank, marking.values = rank, values
        return marking

    def value(self, e: OrientedEdge) -> KElement:
        try:
            k = self.values[e.edge]
        except KeyError:
            raise MarkingDomainError("no value on %s" % (e,)) from None
        return k if e.sign > 0 else -k

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Marking":
        """Post-compose with the integer linear map given by ``matrix``."""
        return Marking._of_edges(len(matrix), {x: k.transform(matrix)
                                               for x, k in self.values.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Marking) and self.rank == other.rank
                and self.values == other.values)

    def __repr__(self) -> str:
        return "Marking(rank=%d, %d edges)" % (self.rank, len(self.values))


class SymplecticForm:
    """Skew unimodular 2g x 2g integer form; standard pairs (Ai, Bi)."""

    __slots__ = ("matrix", "_entries")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        m = [list(map(int, row)) for row in matrix]
        n = len(m)
        if any(len(row) != n for row in m):
            raise MarkingError("form matrix must be square")
        for i in range(n):
            for j in range(n):
                if m[i][j] != -m[j][i]:
                    raise MarkingError("form matrix is not skew-symmetric")
        if not intlinalg.is_unimodular(m):
            raise MarkingError("form matrix is not unimodular")
        self.matrix = tuple(tuple(row) for row in m)
        # the nonzero entries (i, j, m[i][j]), so pairing skips the zeros
        self._entries = tuple((i, j, x) for i, row in enumerate(m)
                              for j, x in enumerate(row) if x)

    @classmethod
    def standard(cls, g: int) -> "SymplecticForm":
        return cls(intlinalg.standard_symplectic(g))

    @property
    def genus(self) -> int:
        return len(self.matrix) // 2

    def pairing(self, x: KElement, y: KElement) -> int:
        if x.rank != len(self.matrix) or y.rank != len(self.matrix):
            raise MarkingError("vector rank does not match the form")
        xc, yc = x.coords, y.coords
        return sum(xc[i] * a * yc[j] for i, j, a in self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix


def check_marking(graph: FatGraph, marking: Marking) -> None:
    """Verify the domain, Coherence and Surjectivity; raise per-axiom errors.

    Inversion holds by construction of :class:`Marking`.
    """
    missing = [x for x in graph.edge_ids() if x not in marking.values]
    if missing:
        raise MarkingDomainError("no value on edge %s"
                                 % ", ".join(map(str, missing)))
    for vi, v in enumerate(graph.vertices):
        total = KElement.zero(marking.rank)
        for h in v:
            total = total + marking.value(h)
        if not total.is_zero():
            raise CoherenceError("vertex %d sums to %s" % (vi, total))
    rows = [list(marking.values[x].coords) for x in graph.edge_ids()]
    res = intlinalg.smith(intlinalg.transpose(rows))
    if res.rank < marking.rank or any(d != 1 for d in res.invariants):
        raise SurjectivityError(
            "values span a subgroup of rank %d with invariants %s in Z^%d"
            % (res.rank, res.invariants, marking.rank))


def _signed_coords(marking: Marking, h: OrientedEdge) -> Iterable[int]:
    """The coordinates of mu(h), read from the stored ``+`` value."""
    try:
        coords = marking.values[h.edge].coords
    except KeyError:
        raise MarkingDomainError("no value on %s" % (h,)) from None
    return coords if h.sign > 0 else map(operator.neg, coords)


def _check_local_coherence(marking: Marking, ctx: FlipContext) -> None:
    e = ctx.edge
    for head, h1, h2 in ((e, ctx.a, ctx.b), (e.rev, ctx.c, ctx.d)):
        inward = zip(_signed_coords(marking, head),
                     _signed_coords(marking, h1), _signed_coords(marking, h2))
        if any(x + y + z for x, y, z in inward):
            raise CoherenceError("marking incoherent at the head of %s"
                                 % (head,))


def propagate(marking: Marking, ctx: FlipContext) -> Marking:
    """Transport a marking across one flip.

    The new edge receives mu(d) + mu(a); everything else is unchanged.
    Coherence at the two vertices involved is required and preserved.
    """
    _check_local_coherence(marking, ctx)
    vals = dict(marking.values)
    del vals[ctx.edge.edge]
    # flip creates the new edge in its + orientation
    vals[ctx.new_edge.edge] = marking.value(ctx.d) + marking.value(ctx.a)
    return Marking._of_edges(marking.rank, vals)


def propagate_path(marking: Marking, steps: Iterable[FlipContext]) -> Marking:
    for ctx in steps:
        marking = propagate(marking, ctx)
    return marking


def _pattern_sign(ra: int, rb: int, rra: int, rrb: int) -> int:
    """Intersection sign from the four boundary ranks of a, b, ~a, ~b.

    The four distinct ranks are read as a cyclic word in the symbols
    a, b, A, B (sorted by rank); the sign is +1 on rotations of
    (a, b, A, B), -1 on rotations of (a, B, A, b) and 0 otherwise.  A
    cyclic sequence of four distinct numbers is a rotation of its sorted
    order exactly when it descends once on the way round.
    """
    if (ra > rb) + (rb > rra) + (rra > rrb) + (rrb > ra) == 1:
        return 1
    if (ra > rrb) + (rrb > rra) + (rra > rb) + (rb > ra) == 1:
        return -1
    return 0


def is_topological_h(graph: FatGraph, marking: Marking,
                     form: SymplecticForm) -> bool:
    """Does the marking respect the intersection numbers of the boundary?

    The criterion is mu(a) . mu(b) == P(a, b) for every pair of oriented
    edges with distinct underlying edges, where P is the cyclic pattern
    of the boundary ranks of a, b and their reversals.  Needs boundary
    number 1 and a marking of rank 2g.

    Both sides are bilinear in the edge classes, so the check runs on a
    basis only: the ``+`` orientations of the 2g edges off a spanning
    tree grown from the tail vertex, which freely generate the group of
    oriented edges modulo inversion and coherence.  This gives the
    all-pairs verdict because
      * P descends to that group with a unimodular form
        (:func:`canonical_h_marking` verifies this on every graph it
        builds);
      * for a coherent mu, mu(a) . mu(b) descends as well, and two
        bilinear forms that agree on a basis agree everywhere;
      * an incoherent mu fails the all-pairs check too: if every pair
        agreed, mu's values would span rank 2g because P has rank 2g,
        each vertex sum would pair to zero with all of them because P
        kills the coherence relations, and the form is unimodular, so
        every vertex sum would be zero.
    So an incoherent marking is rejected before any pairing is read,
    and at most g(2g - 1) pairings are computed.
    """
    rank = graph.boundary_order()
    if marking.rank != 2 * graph.genus():
        raise MarkingError("marking rank %d, expected 2g = %d"
                           % (marking.rank, 2 * graph.genus()))
    if len(form.matrix) != marking.rank:
        raise MarkingError("form size does not match the marking rank")
    for v in graph.vertices:
        # coordinate-wise sums of the inward values at v
        if any(map(sum, zip(*(marking.value(h).coords for h in v)))):
            return False

    start = graph.vertex_of(graph.tail.rev)
    seen, tree, queue = {start}, set(), [start]
    for vi in queue:  # breadth first: the loop reads what it appends
        for h in graph.vertices[vi]:
            other = graph.vertex_of(h.rev)
            if other not in seen:
                seen.add(other)
                tree.add(h.edge)
                queue.append(other)
    if len(seen) != graph.num_vertices:
        raise PairingError("spanning tree from the tail vertex reaches %d "
                           "of %d vertices" % (len(seen), graph.num_vertices))
    basis = [OrientedEdge(x, 1) for x in graph.edge_ids() if x not in tree]
    if len(basis) != marking.rank:
        raise PairingError("%d edges lie off the spanning tree, expected "
                           "2g = %d" % (len(basis), marking.rank))

    value = [marking.value(h) for h in basis]
    for i, a in enumerate(basis):
        for j in range(i + 1, len(basis)):
            b = basis[j]
            want = _pattern_sign(rank[a], rank[b], rank[a.rev], rank[b.rev])
            if form.pairing(value[i], value[j]) != want:
                return False
    return True


def _edge_class_space(graph: FatGraph):
    """Quotient of Z^{oriented edges} by inversion and coherence relations."""
    edges = graph.oriented_edges()
    index = {h: i for i, h in enumerate(edges)}
    n = len(edges)
    relations: List[List[int]] = []
    for x in graph.edge_ids():
        col = [0] * n
        col[index[OrientedEdge(x, 1)]] += 1
        col[index[OrientedEdge(x, -1)]] += 1
        relations.append(col)
    for v in graph.vertices:
        col = [0] * n
        for h in v:
            col[index[h]] += 1
        relations.append(col)
    cok = intlinalg.cokernel(intlinalg.transpose(relations))
    return edges, index, cok


def canonical_h_marking(graph: FatGraph) -> Tuple[Marking, SymplecticForm]:
    """Construct a homology marking realizing the intersection pairing.

    Builds the group of edge classes modulo inversion and coherence,
    puts the boundary-pattern pairing on it, extracts an integer
    symplectic basis and reads off the edge coordinates.  The result
    passes is_topological_h with the standard form and satisfies all
    three marking axioms.  Requires boundary number 1 and genus >= 1.
    """
    rank = graph.boundary_order()
    g = graph.genus()
    if g < 1:
        raise MarkingError("graph has genus 0, no homology marking exists")
    edges, index, cok = _edge_class_space(graph)
    if any(d != 1 for d in cok.invariants):
        raise PairingError("edge class group has torsion %s" % cok.invariants)
    if cok.free_rank != 2 * g:
        raise PairingError("edge class group has rank %d, expected %d"
                           % (cok.free_rank, 2 * g))

    n = len(edges)
    ids = [h.edge for h in edges]
    ranks = [rank[h] for h in edges]
    rev_ranks = [rank[h.rev] for h in edges]
    pattern = [[_pattern_sign(ra, rb, rra, rrb) if xa != xb else 0
                for xb, rb, rrb in zip(ids, ranks, rev_ranks)]
               for xa, ra, rra in zip(ids, ranks, rev_ranks)]
    # the pairing must kill every relation, otherwise it does not
    # descend to the quotient
    for x in graph.edge_ids():
        ip, im = index[OrientedEdge(x, 1)], index[OrientedEdge(x, -1)]
        for j in range(n):
            if pattern[ip][j] + pattern[im][j]:
                raise PairingError("pairing does not vanish on the inversion "
                                   "relation of edge %d" % x)
    for vi, v in enumerate(graph.vertices):
        for j in range(n):
            if sum(pattern[index[h]][j] for h in v):
                raise PairingError("pairing does not vanish on the coherence "
                                   "relation at vertex %d" % vi)

    sect_t = intlinalg.transpose(cok.section)  # rows are section vectors
    pair_m = [[sum(si * pattern[r][c] * tj
                   for r, si in enumerate(s_row) if si
                   for c, tj in enumerate(t_row) if tj)
               for t_row in sect_t] for s_row in sect_t]
    try:
        basis = intlinalg.symplectic_basis(pair_m)
    except intlinalg.LinAlgError as err:
        raise PairingError(str(err)) from err
    basis_inv = intlinalg.invert_unimodular(basis)

    values = {}
    for x in graph.edge_ids():
        i = index[OrientedEdge(x, 1)]
        cls = [row[i] for row in cok.projection]
        values[x] = KElement(intlinalg.mat_vec(basis_inv, cls))
    return Marking._of_edges(2 * g, values), SymplecticForm.standard(g)
