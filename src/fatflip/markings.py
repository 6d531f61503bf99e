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
from itertools import compress
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import intlinalg
from .abelian import KElement, Wedge3, _sparse_columns
from .fatgraph import FatGraph, OrientedEdge, _code, _decode
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
    checks that both agree; a key that is not an (edge, sign) pair of an
    int id >= 0 and +-1 raises MarkingDomainError.
    """

    __slots__ = ("rank", "values")

    def __init__(self, rank: int, values: Mapping[OrientedEdge, KElement]):
        self.rank = operator.index(rank)
        vals: Dict[int, KElement] = {}
        for e, k in values.items():
            c = _code(e)
            if c < 0:
                raise MarkingDomainError("key %r is not a half-edge" % (e,))
            if k.rank != self.rank:
                raise MarkingError("value on %s has rank %d, marking has %d"
                                   % (e, k.rank, self.rank))
            k = -k if c & 1 else k
            if vals.setdefault(c >> 1, k) != k:
                raise InversionError("values on %s and %s are not opposite"
                                     % (_decode(c ^ 1), _decode(c)))
        self.values = vals

    @classmethod
    def _of_edges(cls, rank: int, values: Dict[int, KElement]) -> "Marking":
        """Wrap per-edge values that are already known to be consistent."""
        marking = cls.__new__(cls)
        marking.rank, marking.values = rank, values
        return marking

    def value(self, e: OrientedEdge) -> KElement:
        c = _code(e)
        if c >> 1 not in self.values:
            raise MarkingDomainError("no value on %s"
                                     % (_decode(c) if c >= 0 else repr(e),))
        return -self.values[c >> 1] if c & 1 else self.values[c >> 1]

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Marking":
        """Post-compose with the integer linear map given by ``matrix``."""
        cols, width = _sparse_columns(matrix, self.rank), len(matrix)
        return Marking._of_edges(width, {x: k._apply(cols, width)
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
        m = [list(map(operator.index, row)) for row in matrix]
        if not m or any(len(row) != len(m) for row in m):
            raise MarkingError("form matrix must be square and nonempty")
        try:  # decides skew, alternating, even size and unimodular
            intlinalg.symplectic_basis(m)
        except intlinalg.LinAlgError as err:
            raise MarkingError("form matrix: %s" % err) from err
        self.matrix = tuple(map(tuple, m))
        # (i, j, m[i][j]) for the nonzero entries, so gram skips the zeros
        self._entries = tuple((i, j, x) for i, row in enumerate(m)
                              for j, x in enumerate(row) if x)

    @classmethod
    def standard(cls, g: int) -> "SymplecticForm":
        """J, skew and unimodular by construction, so left unchecked; its
        nonzero entries are (2i, 2i + 1, 1) and (2i + 1, 2i, -1)."""
        form = cls.__new__(cls)
        form.matrix = tuple(map(tuple, intlinalg.standard_symplectic(g)))
        form._entries = tuple(e for i in range(0, 2 * g, 2)
                              for e in ((i, i + 1, 1), (i + 1, i, -1)))
        return form

    def pairing(self, x: KElement, y: KElement) -> int:
        return self.gram((x, y))[0][1]

    def gram(self, values: Sequence[KElement]) -> intlinalg.Matrix:
        """The pairings [[x . y for y in values] for x in values], from
        :func:`intlinalg.gram` on the nonzero entries and coordinates."""
        n = len(self.matrix)
        if any(v.rank != n for v in values):
            raise MarkingError("vector rank does not match the form")
        return intlinalg.gram(self._entries, [
            zip(compress(range(n), v.coords), filter(None, v.coords))
            for v in values])

    def contract(self, w: Wedge3) -> KElement:
        """C(x ^ y ^ z) = (x . y) z + (y . z) x + (z . x) y, key by key."""
        m, out = self.matrix, [0] * w.rank
        if w.rank != len(m):
            raise MarkingError("wedge rank does not match the form")
        for (i, j, k), c in w.coeffs.items():
            out[k] += c * m[i][j]
            out[i] += c * m[j][k]
            out[j] += c * m[k][i]
        return KElement._of(tuple(out))

    def broken_pair(self, matrix: Sequence[Sequence[int]]
                    ) -> Optional[Tuple[int, int]]:
        """The first (i, j), in row order, where columns i and j of
        ``matrix`` pair unlike e_i and e_j; None if it keeps the form."""
        cols = [KElement._of(col) for col in zip(*matrix)]
        if len(cols) != len(self.matrix):
            raise MarkingError("matrix size does not match the form")
        gram = tuple(map(tuple, self.gram(cols)))
        if gram == self.matrix:  # one comparison on the common path
            return None
        for i, (row, want) in enumerate(zip(gram, self.matrix)):
            if row != want:
                return i, next(j for j, x in enumerate(row) if x != want[j])

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix


def check_marking(graph: FatGraph, marking: Marking) -> None:
    """Verify the domain, Coherence and Surjectivity; raise per-axiom errors.

    Inversion holds by construction of :class:`Marking`.
    """
    ids = graph.edge_ids()
    missing = [x for x in ids if x not in marking.values]
    if missing:
        raise MarkingDomainError("no value on edge %s"
                                 % ", ".join(map(str, missing)))
    if len(marking.values) != len(ids):  # none missing, so some are extra
        extra = sorted(set(marking.values).difference(ids))
        raise MarkingDomainError("value on edge %s, which the graph lacks"
                                 % ", ".join(map(str, extra)))
    for vi, row in enumerate(graph._rows):
        if row and any(_chain(marking.values, row)):
            total = KElement._of(tuple(_chain(marking.values, row)))
            raise CoherenceError("vertex %d sums to %s"
                                 % (vi, -total if row[0] & 1 else total))
    # by coherence each tree edge's value is an integer combination of
    # the values off the tree (fill the links in from the leaves), and
    # the edges of every other component are all off it, so those span
    # the same subgroup, with the same Smith invariants
    _span(marking, graph._spanning_tree()[1])


def _span(marking: Marking, ids: Iterable[int]) -> intlinalg.SmithResult:
    """The Smith form of the matrix whose columns are the values on the
    edge ids ``ids``; SurjectivityError unless they span Z^r."""
    res = intlinalg.smith(intlinalg.transpose(
        [marking.values[x].coords for x in ids]))
    if res.rank < marking.rank or any(d != 1 for d in res.invariants):
        raise SurjectivityError(
            "values span a subgroup of rank %d with invariants %s in Z^%d"
            % (res.rank, res.invariants, marking.rank))
    return res


def _stored(values: Mapping[int, KElement], h: OrientedEdge) -> KElement:
    """The stored ``+`` value of the edge of h."""
    try:
        return values[h.edge]
    except KeyError:
        raise MarkingDomainError("no value on %s" % (h,)) from None


_DENSE_RANK = 8  # up to it a scan in C beats finding fresh supports


def _coherent(se: int, ve: KElement, sa: int, va: KElement, sb: int,
              vb: KElement) -> bool:
    """Is se * ve + sa * va + sb * vb zero?  Past _DENSE_RANK read on the
    union of the kept supports, else as sa times the sum, negating none."""
    x, y, z = ve.coords, va.coords, vb.coords
    if len(x) <= _DENSE_RANK:
        return not any(map(operator.add if sa == sb else operator.sub,
                           map(operator.add if sa == se else operator.sub,
                               y, x), z))
    for i in {*ve._nonzero(), *va._nonzero(), *vb._nonzero()}:
        if se * x[i] + sa * y[i] + sb * z[i]:
            return False
    return True


def _signed_sum(sx: int, vx: KElement, sy: int, vy: KElement) -> KElement:
    """sx * vx + sy * vy; past _DENSE_RANK with its support, from theirs."""
    x, y = vx.coords, vy.coords
    if len(x) <= _DENSE_RANK:
        t = KElement._of(tuple(map(operator.add if sx == sy
                                   else operator.sub, x, y)))
        return t if sx > 0 else -t
    acc, nz = [0] * len(x), []
    for i in sorted({*vx._nonzero(), *vy._nonzero()}):
        acc[i] = t = sx * x[i] + sy * y[i]
        if t:
            nz.append(i)
    return KElement._of(tuple(acc), tuple(nz))


class _Walker:
    """A marking carried along flips, under :func:`propagate_path` and
    the path sums of ``cocycles``.  The values are copied once; a step
    reads stored ``+`` values and their signs, never negated ones; past
    _DENSE_RANK only their supports, each found once and kept, so it
    costs the nonzeros, not the rank.  It trusts the FlipContexts that
    ``flip`` builds: no ``_code`` checks.
    """

    __slots__ = ("rank", "values")

    def __init__(self, marking: Marking):
        self.rank, self.values = marking.rank, marking.values.copy()

    def step(self, ctx: FlipContext, sums=()) -> None:
        """Check coherence at head(e), then at head(~e); call each
        kernel(out, va, sa, vb, sb, vc, sc, vd, sd) of the (kernel, out)
        pairs in ``sums``; store mu(d) + mu(a) on the new edge."""
        e, a, b, c, d = ctx.edge, ctx.a, ctx.b, ctx.c, ctx.d
        values = self.values
        ve, va, vb = _stored(values, e), _stored(values, a), _stored(values, b)
        if not _coherent(e.sign, ve, a.sign, va, b.sign, vb):
            raise CoherenceError("marking incoherent at the head of %s" % (e,))
        vc, vd = _stored(values, c), _stored(values, d)
        if not _coherent(-e.sign, ve, c.sign, vc, d.sign, vd):
            raise CoherenceError("marking incoherent at the head of %s"
                                 % (e.rev,))
        for kernel, out in sums:
            kernel(out, va, a.sign, vb, b.sign, vc, c.sign, vd, d.sign)
        del values[e.edge]
        # stored on the + orientation the flip creates
        values[ctx.new_edge.edge] = _signed_sum(d.sign, vd, a.sign, va)

    def marking(self) -> Marking:
        """The marking reached; the walker hands its values over."""
        return Marking._of_edges(self.rank, self.values)


def _chain(values: Mapping[int, KElement], codes: Sequence[int]) -> Iterable[int]:
    """The inward sum at ``codes`` (nonempty) times the sign of the first,
    as one lazy chain of maps over the stored ``+`` coordinates: a term of
    the first's parity adds, any other subtracts: none is negated."""
    c = first = codes[0]
    try:
        acc = values[first >> 1].coords
        for c in codes[1:]:
            acc = map(operator.sub if (c ^ first) & 1 else operator.add,
                      acc, values[c >> 1].coords)
    except KeyError:
        raise MarkingDomainError("no value on %s" % (_decode(c),)) from None
    return acc


def propagate(marking: Marking, ctx: FlipContext) -> Marking:
    """Transport a marking across one flip.

    The new edge receives mu(d) + mu(a); everything else is unchanged.
    Coherence at the two vertices involved is required and preserved.
    """
    return propagate_path(marking, (ctx,))


def propagate_path(marking: Marking, steps: Iterable[FlipContext]) -> Marking:
    walker = _Walker(marking)
    for ctx in steps:
        walker.step(ctx)
    return walker.marking()


def _fill(graph: FatGraph, rank: int,
          basis_values: Sequence[Sequence[int]]) -> Marking:
    """The marking with ``basis_values`` on the edges off the tail tree,
    ``graph._spanning_tree()[1]``, extended by coherence; a graph the
    tree does not span raises DisconnectedGraphError.  The ``+``
    orientations of those edges freely generate the group of oriented
    edges modulo inversion and coherence: coherence at the vertex a tree
    link points into writes that link in edges off the tree or further
    out, and there are E - V + 1 of them, the rank of the group.  So the
    links fill from the leaves to the root."""
    graph._check_connected()
    links, basis = graph._spanning_tree()
    values = {x: KElement._of(tuple(v)) for x, v in zip(basis, basis_values)}
    rows, vert = graph._rows, graph._index()[1]
    for h in reversed(links):
        # the chain reads -h.sign * mu(h) times the sign of others[0]
        others = [k for k in rows[vert[h]] if k != h]
        new = KElement._of(tuple(_chain(values, others)) if others
                           else (0,) * rank)
        values[h >> 1] = new if others and (h ^ others[0]) & 1 else -new
    return Marking._of_edges(rank, values)


def is_topological_h(graph: FatGraph, marking: Marking,
                     form: SymplecticForm) -> bool:
    """Does the marking respect the intersection numbers of the boundary?

    The criterion is mu(a) . mu(b) == P(a, b) for every pair of oriented
    edges with distinct underlying edges, where P is the cyclic pattern
    of the boundary ranks of a, b and their reversals.  Needs boundary
    number 1 and a marking of rank 2g.

    Both sides are bilinear in the edge classes, so the check runs on
    the 2g edges off the tail tree (:func:`_fill`) only.  This gives the
    all-pairs verdict because
      * P descends to that group (the proof is in
        :func:`canonical_h_marking`) with a unimodular form, the
        surface's intersection form, as ``symplectic_basis`` confirms
        there;
      * for a coherent mu, mu(a) . mu(b) descends as well, and two
        bilinear forms that agree on a basis agree everywhere;
      * an incoherent mu fails the all-pairs check too: if every pair
        agreed, mu's values would span rank 2g because P has rank 2g,
        each vertex sum would pair to zero with all of them because P
        kills the coherence relations, and the form is unimodular, so
        every vertex sum would be zero.
    So an incoherent marking is rejected before any pairing is read,
    and the pairings come from one :meth:`SymplecticForm.gram` product,
    read as row tuples to compare with the kept block.
    """
    want = graph._pairing_block()
    if marking.rank != len(want):
        raise MarkingError("marking rank %d, expected 2g = %d"
                           % (marking.rank, len(want)))
    if len(form.matrix) != marking.rank:
        raise MarkingError("form size does not match the marking rank")
    if any(row and any(_chain(marking.values, row)) for row in graph._rows):
        return False
    basis = [marking.values[x] for x in graph._spanning_tree()[1]]
    return tuple(map(tuple, form.gram(basis))) == want


def canonical_h_marking(graph: FatGraph) -> Tuple[Marking, SymplecticForm]:
    """Construct a homology marking realizing the intersection pairing.

    Reads the pairing P on the E - V + 1 = 2g edges off the tail tree,
    ``graph._pairing_block()``.  With S^T P S = J from symplectic_basis,
    the basis edges take the columns of S^-1 = J^T S^T P and coherence
    fills in the tree, so the result passes is_topological_h with the
    standard form and all three marking axioms.  Requires boundary
    number 1 and genus >= 1.

    P descends to the edge classes, so its basis block determines it.
    P is skew, so the relations need checking in a only:
      * Inversion: P(~a, b) = -P(a, b) term by term in the arc formula
        of :func:`fatgraph._pattern`.
      * Coherence: let h_1, ..., h_k point into a vertex v, in cyclic
        order.  The boundary walk goes from h_i to ~h_{i+1}, so
        r(~h_{i+1}) = r(h_i) + 1 mod the boundary length and, with
        indices mod k,
            sum_i P(h_i, b) = sum_i [r(h_i) + 1 in I_b] - [r(h_i) in I_b]
                            = sum_i [r(h_i) = r(b)] - [r(h_i) + 1 = r(~b)],
        which is [b points into v] - [the predecessor of ~b points into
        v].  The walk leaves that predecessor by b, the next half-edge
        at its head, so it points into the head of b: the sum is 0.
    """
    pair_m = graph._pairing_block()
    g = len(pair_m) // 2
    if g < 1:
        raise MarkingError("graph has genus 0, no homology marking exists")
    try:
        s = intlinalg.symplectic_basis(pair_m)
    except intlinalg.LinAlgError as err:
        raise PairingError(str(err)) from err
    # the columns of S^-1 = J^T S^T P are the rows of P^T S J = P S (-J).
    # -J sends (x1, y1, x2, y2, ...) to (y1, -x1, y2, -x2, ...), so row k
    # of S (-J) holds S[k][j] at j ^ 1, negated where j is even; row a of
    # the product adds P[a][k] times it for the nonzero P[a][k] only
    n = 2 * g
    s_j = [[(j ^ 1, row[j] if j & 1 else -row[j])
            for j in compress(range(n), row)] for row in s]
    values = [[0] * n for _ in pair_m]
    for acc, p_row in zip(values, pair_m):
        for k in compress(range(n), p_row):
            for j, x in s_j[k]:
                acc[j] += p_row[k] * x
    return _fill(graph, n, values), SymplecticForm.standard(g)
