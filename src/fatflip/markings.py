"""Markings of fatgraphs by a free abelian group K = Z^r.

A marking assigns a vector to every oriented edge subject to three
axioms: Inversion (reversing an edge negates its value), Coherence (the
inward values at each vertex sum to zero) and Surjectivity (the values
generate Z^r).  Markings propagate across flips, and for K = Z^{2g} with
a symplectic form the intersection-number criterion singles out the
markings that come from the surface's homology.
"""

from __future__ import annotations

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

    Values are stored on both orientations; giving a value for only one
    orientation fills in the negated reverse, giving both checks them.
    """

    __slots__ = ("rank", "values")

    def __init__(self, rank: int, values: Mapping[OrientedEdge, KElement]):
        self.rank = int(rank)
        vals: Dict[OrientedEdge, KElement] = {}
        for e, k in values.items():
            if k.rank != self.rank:
                raise MarkingError("value on %s has rank %d, marking has %d"
                                   % (e, k.rank, self.rank))
            vals[e] = k
        for e in list(vals):
            r = e.rev
            if r in vals:
                if vals[r] != -vals[e]:
                    raise InversionError(
                        "values on %s and %s are not opposite" % (e, r))
            else:
                vals[r] = -vals[e]
        self.values = vals

    def value(self, e: OrientedEdge) -> KElement:
        try:
            return self.values[e]
        except KeyError:
            raise MarkingDomainError("no value on %s" % (e,)) from None

    def __contains__(self, e: OrientedEdge) -> bool:
        return e in self.values

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Marking":
        """Post-compose with the integer linear map given by ``matrix``."""
        return Marking(len(matrix), {e: k.transform(matrix)
                                     for e, k in self.values.items()
                                     if e.sign > 0})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Marking) and self.rank == other.rank
                and self.values == other.values)

    def __repr__(self) -> str:
        return "Marking(rank=%d, %d oriented edges)" % (self.rank,
                                                        len(self.values))


class SymplecticForm:
    """Skew unimodular 2g x 2g integer form; standard pairs (Ai, Bi)."""

    __slots__ = ("matrix",)

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

    @classmethod
    def standard(cls, g: int) -> "SymplecticForm":
        return cls(intlinalg.standard_symplectic(g))

    @property
    def genus(self) -> int:
        return len(self.matrix) // 2

    def pairing(self, x: KElement, y: KElement) -> int:
        if x.rank != len(self.matrix) or y.rank != len(self.matrix):
            raise MarkingError("vector rank does not match the form")
        return sum(x.coords[i] * self.matrix[i][j] * y.coords[j]
                   for i in range(len(self.matrix))
                   for j in range(len(self.matrix)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix


def check_marking(graph: FatGraph, marking: Marking) -> None:
    """Verify Inversion, Coherence and Surjectivity; raise per-axiom errors."""
    missing = [h for h in graph.oriented_edges() if h not in marking]
    if missing:
        raise MarkingDomainError("no value on %s"
                                 % ", ".join(str(h) for h in missing))
    for e in graph.oriented_edges():
        if marking.value(e.rev) != -marking.value(e):
            raise InversionError("values on %s and %s are not opposite"
                                 % (e, e.rev))
    for vi, v in enumerate(graph.vertices):
        total = KElement.zero(marking.rank)
        for h in v:
            total = total + marking.value(h)
        if not total.is_zero():
            raise CoherenceError("vertex %d sums to %s" % (vi, total))
    rows = [list(marking.value(h).coords) for h in graph.oriented_edges()]
    res = intlinalg.smith(intlinalg.transpose(rows))
    if res.rank < marking.rank or any(d != 1 for d in res.invariants):
        raise SurjectivityError(
            "values span a subgroup of rank %d with invariants %s in Z^%d"
            % (res.rank, res.invariants, marking.rank))


def _check_local_coherence(marking: Marking, ctx: FlipContext) -> None:
    e = ctx.edge
    if not (marking.value(e) + marking.value(ctx.a)
            + marking.value(ctx.b)).is_zero():
        raise CoherenceError("marking incoherent at the head of %s" % (e,))
    if not (marking.value(e.rev) + marking.value(ctx.c)
            + marking.value(ctx.d)).is_zero():
        raise CoherenceError("marking incoherent at the head of %s" % (e.rev,))


def propagate(marking: Marking, ctx: FlipContext) -> Marking:
    """Transport a marking across one flip.

    The new edge receives mu(d) + mu(a); everything else is unchanged.
    Coherence at the two vertices involved is required and preserved.
    """
    _check_local_coherence(marking, ctx)
    vals = dict(marking.values)
    del vals[ctx.edge], vals[ctx.edge.rev]
    new_val = marking.value(ctx.d) + marking.value(ctx.a)
    vals[ctx.new_edge] = new_val
    vals[ctx.new_edge.rev] = -new_val
    return Marking(marking.rank, vals)


def propagate_path(marking: Marking, steps: Iterable[FlipContext]) -> Marking:
    for ctx in steps:
        marking = propagate(marking, ctx)
    return marking


def _pattern_sign(ra: int, rb: int, rra: int, rrb: int) -> int:
    """Intersection sign from the four boundary ranks of a, b, ~a, ~b.

    The four ranks are read as a cyclic word in the symbols a, b, A, B
    (sorted by rank); the sign is +1 on rotations of (a, b, A, B), -1 on
    rotations of (a, B, A, b) and 0 otherwise.
    """
    word = tuple(s for _, s in sorted([(ra, "a"), (rb, "b"),
                                       (rra, "A"), (rrb, "B")]))
    rotations = {word[i:] + word[:i] for i in range(4)}
    if ("a", "b", "A", "B") in rotations:
        return 1
    if ("a", "B", "A", "b") in rotations:
        return -1
    return 0


def is_topological_h(graph: FatGraph, marking: Marking,
                     form: SymplecticForm) -> bool:
    """Does the marking respect the intersection numbers of the boundary?

    Checks mu(a) . mu(b) against the cyclic pattern of the boundary
    ranks of a, b and their reversals, for every pair of oriented edges
    with distinct underlying edges.  Needs boundary number 1 and a
    marking of rank 2g.
    """
    rank = graph.boundary_order()
    if marking.rank != 2 * graph.genus():
        raise MarkingError("marking rank %d, expected 2g = %d"
                           % (marking.rank, 2 * graph.genus()))
    if len(form.matrix) != marking.rank:
        raise MarkingError("form size does not match the marking rank")
    edges = graph.oriented_edges()
    for i, a in enumerate(edges):
        for b in edges[i + 1:]:
            if a.edge == b.edge:
                continue
            want = _pattern_sign(rank[a], rank[b], rank[a.rev], rank[b.rev])
            if form.pairing(marking.value(a), marking.value(b)) != want:
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
    pattern = [[0] * n for _ in range(n)]
    for i, a in enumerate(edges):
        for j, b in enumerate(edges):
            if a.edge != b.edge:
                pattern[i][j] = _pattern_sign(rank[a], rank[b],
                                              rank[a.rev], rank[b.rev])
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
        h = OrientedEdge(x, 1)
        col = [0] * n
        col[index[h]] = 1
        coords = intlinalg.mat_vec(basis_inv, intlinalg.mat_vec(cok.projection, col))
        values[h] = KElement(coords)
    marking = Marking(2 * g, values)
    return marking, SymplecticForm.standard(g)
