"""The flip graph of one genus, enumerated once, with the loop identity.

:func:`expand` runs one breadth-first search over the classes of
trivalent tailed one-boundary fatgraphs of genus g, keyed by
``canonical_key``, from the canonical form of
``standard_surface_graph(g)``.  ``max_classes`` stops the search from
finding more classes, which gives a partial ball; every class it has
found is still expanded.  Each class carries a gauge marking, and each
flip the holonomy between the two gauges and the row of the loop
identity it gives.

Conventions (coordinates count from 0):

* K = H_1 = Z^{2g} with the form of ``SymplecticForm.standard``:
  omega(e_{2i}, e_{2i+1}) = 1, the form ``canonical_h_marking`` realizes.
* The contraction C: Lambda^3 K -> K, ``SymplecticForm.contract``, is
  C(x ^ y ^ z) = omega(x, y) z + omega(y, z) x + omega(z, x) y.
* The gauge rule.  The base class takes ``canonical_h_marking`` and
  b^m = b^j = 0.  A flip d from a class X with marking mu_X carries mu_X
  across (``path_sums`` gives m(d), j(d) and the carried marking from
  one walk), and the canonical relabeling moves the result to nu on
  the target class Y.  When d finds Y, it is Y's tree flip: Y takes
  mu_Y = nu, b^m_Y = b^m_X + m(d) and b^j_Y = b^j_X + C(j(d)).
* The holonomy.  On every flip nu = M_d mu_Y for one M_d in Sp(2g, Z):
  with X0 and Y0 the matrices whose columns are nu and mu_Y on the
  edges off Y's tail tree, M_d = X0 Y0^-1.  Those edges span the edge
  classes, and two coherent markings that agree on them agree
  everywhere, so no other edge needs a check.  Y0^-1 = v u comes from
  one ``smith`` per class, and ``SymplecticForm.broken_pair`` checks
  M_d^T J M_d = J on every flip.  A tree flip has M_d = 1.
* The row form.  If phi_X = h + b^m_X + k b^j_X is a potential of
  c = m + k C(j), that is c(d) = M_d phi_Y - phi_X on every flip, then
  every flip gives the 2g rows

      (M_d - 1) h - k r^j = r^m,
      r^m = m(d) + b^m_X - M_d b^m_Y,
      r^j = C(j(d)) + b^j_X - M_d b^j_Y.

  r^m and r^j are the m path sum and C of the j path sum of the flip's
  fundamental loop, from the base along the tree, across d and back
  along the tree, and M_d is the loop's ``induced_k_automorphism``.
  A tree flip's rows are zero.  :func:`solve_identity` solves the
  distinct rows for T = (h, k) with ``solve_transform``: nothing is
  assumed about k.

The 2-complex.  A cell lists its directed flips (class, canonical edge
id) in order: [d, d^-1] for each flip d, d^-1 read off the relabeling
``expand`` makes; [f, g, n, n + 1, n + 2] for each pair of
``adjacent_flippable_pairs`` and [e1, e2, n, n + 1] for each pair of
``disjoint_flippable_pairs``, n the class graph's fresh id.  Its
classes are those of the given expansions: :func:`cells` skips a cell
that leaves them, :func:`h1` refuses a flip that does.  Its generators
are the undirected flips, tree flips set to 0, and d is +1 times its
generator if d < d^-1 as pairs, else -1.  The distinct cell rows up to
sign go to one dense ``smith``: 1,013 over 421 generators at genus 2,
too few to need elimination on unit pivots first.

Per class the search keeps ints only: the key, in its index, and in a
:class:`FlipClass` the basis ids, Y0^-1, b^m, b^j and the tree parent
and edge.  A class's graph and marking live only from its discovery
until it is expanded.
"""

from __future__ import annotations

from collections import deque
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from . import intlinalg
from .cocycles import InducedAutomorphismError, path_sums
from .fatgraph import FatGraph
from .flips import (ClosureError, FlipPath, adjacent_flippable_pairs,
                    disjoint_flippable_pairs, flip, flippable_edges,
                    fresh_edge_id)
from .markings import Marking, SymplecticForm, _span, canonical_h_marking
from .randgen import standard_surface_graph

Vector = Tuple[int, ...]
Row = Tuple[int, ...]   # the coefficients of (h, k), then the right side


class FlipClass(NamedTuple):
    """What the search keeps of one class: the ids of the edges off the
    tail tree of its canonical graph, Y0^-1, b^m and b^j, and the class
    number and canonical edge id of its tree flip (-1 at the base)."""

    basis: Vector
    y_inv: Tuple[Vector, ...]
    b_m: Vector
    b_j: Vector
    parent: int
    edge: int


class Flip(NamedTuple):
    """One directed flip: the canonical id of the flipped edge in its
    source class, the target class number and the canonical id there of
    the inverse flip's edge, the holonomy M_d and the vectors r^m and
    r^j of its rows.  Out of a partial ball: target -1, None the rest."""

    edge: int
    target: int
    inverse: Optional[int]
    holonomy: Optional[intlinalg.Matrix]
    r_m: Optional[Vector]
    r_j: Optional[Vector]


class Expansion(NamedTuple):
    """One class as the search expands it: its number, what is kept of
    it, its canonical graph and gauge marking, and its flips in
    increasing edge id."""

    number: int
    cls: FlipClass
    graph: FatGraph
    marking: Marking
    flips: List[Flip]


def _holonomy(nu_basis: List[Vector], y_inv: Tuple[Vector, ...]
              ) -> intlinalg.Matrix:
    """M_d = X0 Y0^-1, from the values of nu on the basis edges."""
    return intlinalg.mat_mul(intlinalg.transpose(nu_basis), y_inv)


def _loop_sum(b_x: Vector, value: Vector, holonomy: intlinalg.Matrix,
              b_y: Vector) -> Vector:
    """r = value + b_X - M_d b_Y, the sum around the fundamental loop."""
    return tuple(v + x - y for v, x, y in
                 zip(value, b_x, intlinalg.mat_vec(holonomy, b_y)))


def expand(genus: int, max_classes: Optional[int] = None
           ) -> Iterator[Expansion]:
    """Expand the classes of genus ``genus`` breadth first, up to
    ``max_classes`` of them; see the module docstring."""
    if genus < 1:
        raise ValueError("genus must be at least 1, not %d" % genus)
    if max_classes is not None and max_classes < 1:
        raise ValueError("max_classes must be at least 1, not %d"
                         % max_classes)
    n = 2 * genus
    base, _ = standard_surface_graph(genus).canonicalize()
    marking, _ = canonical_h_marking(base)
    form = SymplecticForm.standard(genus)
    zero = (0,) * n
    index: Dict[Tuple[Vector, ...], int] = {}
    classes: List[FlipClass] = []
    queue = deque()

    def discover(key, graph, marking, b_m, b_j, parent, edge):
        basis = graph._spanning_tree()[1]
        res = _span(marking, basis)
        y_inv = tuple(map(tuple, intlinalg.mat_mul(res.v, res.u)))
        index[key] = len(classes)
        classes.append(FlipClass(basis, y_inv, b_m, b_j, parent, edge))
        queue.append((len(classes) - 1, graph, marking))

    discover(base.canonical_key(), base, marking, zero, zero, -1, -1)
    while queue:
        number, graph, marking = queue.popleft()
        cls = classes[number]
        flips = []
        for e in flippable_edges(graph):
            neighbour, ctx = flip(graph, e)
            (m, j), carried = path_sums(FlipPath(graph, neighbour, (ctx,)),
                                        marking, ("m", "j"))
            code, key, fresh = neighbour._canonical_codes()
            nu = {}
            for x, v in carried.values.items():
                c = code[2 * x]
                nu[c >> 1] = -v if c & 1 else v
            cj = form.contract(j).coords
            inverse = code[2 * ctx.new_edge.edge] >> 1
            target = index.get(key)
            if target is None:
                if max_classes is not None and len(classes) >= max_classes:
                    flips.append(Flip(e, -1, None, None, None, None))
                    continue
                discover(key, FatGraph._from_codes(key, 0, fresh),
                         Marking._of_edges(n, nu),
                         tuple(map(sum, zip(cls.b_m, m.coords))),
                         tuple(map(sum, zip(cls.b_j, cj))), number, e)
                flips.append(Flip(e, len(classes) - 1, inverse,
                                  intlinalg.identity(n), zero, zero))
                continue
            other = classes[target]
            holonomy = _holonomy([nu[x].coords for x in other.basis],
                                 other.y_inv)
            if form.broken_pair(holonomy) is not None:
                raise InducedAutomorphismError(
                    "holonomy of the flip of edge %d at class %d is not "
                    "symplectic" % (e, number))
            flips.append(Flip(e, target, inverse, holonomy,
                              _loop_sum(cls.b_m, m.coords, holonomy,
                                        other.b_m),
                              _loop_sum(cls.b_j, cj, holonomy, other.b_j)))
        yield Expansion(number, cls, graph, marking, flips)


def identity_rows(flips: Iterable[Flip]) -> Set[Row]:
    """The distinct nonzero rows (M_d - 1 | -r^j | r^m) of the flips
    inside the ball."""
    rows = set()
    for f in flips:
        if f.target < 0:
            continue
        for i, (m_row, rj, rm) in enumerate(zip(f.holonomy, f.r_j, f.r_m)):
            row = tuple(m_row[:i]) + (m_row[i] - 1,) + tuple(m_row[i + 1:])
            row += (-rj, rm)
            if any(row):
                rows.add(row)
    return rows


def solve_identity(rows: Iterable[Row]) -> Optional[Vector]:
    """The one (h, k), as the tuple h + (k,), that satisfies every row;
    None when the rows are inconsistent.  LinAlgError from
    ``solve_transform`` when they do not fix the solution."""
    rows = sorted(rows)
    t = intlinalg.solve_transform([row[:-1] for row in rows],
                                  [row[-1:] for row in rows])
    return None if t is None else tuple(t[0])


class Cell(NamedTuple):
    """A 2-cell: "involution", "pentagon" or "square", and its directed
    flips (class number, canonical edge id) in order."""

    kind: str
    steps: Tuple[Tuple[int, int], ...]


def _walk_cell(graph: FatGraph, number: int, edges: Sequence[int],
               index: Dict[Tuple[Vector, ...], int]):
    """The steps of the loop flipping ``edges`` from the canonical graph
    of class ``number``, or None if it leaves the ball."""
    steps, at, code = [], number, None
    for x in edges:
        steps.append((at, x if code is None else code[2 * x] >> 1))
        graph = flip(graph, x)[0]
        code, key, _ = graph._canonical_codes()
        at = index.get(key)
    if at != number:
        raise ClosureError("the loop of edges %s at class %d does not close"
                           % (list(edges), number))
    return None if any(c is None for c, _ in steps) else tuple(steps)


def cells(expansions: Sequence[Expansion]) -> Iterator[Cell]:
    """The cells at each expanded class: its flips' involution pairs,
    then its pentagons, then its commuting squares."""
    index = {ex.graph.canonical_key(): ex.number for ex in expansions}
    numbers = {ex.number for ex in expansions}
    for ex in expansions:
        yield from (Cell("involution", ((ex.number, f.edge),
                                        (f.target, f.inverse)))
                    for f in ex.flips if f.target in numbers)
        n = fresh_edge_id(ex.graph)
        for kind, pairs, rest in (
                ("pentagon", adjacent_flippable_pairs(ex.graph),
                 (n, n + 1, n + 2)),
                ("square", disjoint_flippable_pairs(ex.graph), (n, n + 1))):
            for pair in pairs:
                steps = _walk_cell(ex.graph, ex.number, pair + rest, index)
                if steps is not None:
                    yield Cell(kind, steps)


def h1(expansions: Sequence[Expansion], cells: Iterable[Cell]
       ) -> Tuple[int, Tuple[int, ...]]:
    """H_1 of the flip 2-complex: its free rank and its torsion
    invariants > 1.  ValueError on a flip that leaves ``expansions``."""
    numbers = {ex.number for ex in expansions}
    sign = {}  # directed flip -> (its generator, +-1)
    for ex in expansions:
        for f in ex.flips:
            if f.target not in numbers:
                raise ValueError("partial ball: the flip of edge %d at "
                                 "class %d leaves it" % (f.edge, ex.number))
            d = ex.number, f.edge
            rep = min(d, (f.target, f.inverse))
            sign[d] = rep, 1 if d == rep else -1
    tree = {sign[ex.cls.parent, ex.cls.edge][0] for ex in expansions
            if ex.cls.parent >= 0}
    column = {rep: i for i, rep in
              enumerate(sorted({rep for rep, _ in sign.values()} - tree))}
    rows = set()
    for cell in cells:
        row = [0] * len(column)
        for d in cell.steps:
            rep, s = sign[d]
            if rep in column:
                row[column[rep]] += s
        if any(row):  # up to sign: the first nonzero entry is positive
            rows.add(tuple(row) if next(filter(None, row)) > 0
                     else tuple(-x for x in row))
    # sparsest rows first: smith pivots on the first unit it meets
    res = intlinalg.smith(sorted(rows, key=lambda row: -row.count(0)))
    return len(column) - res.rank, tuple(x for x in res.invariants if x > 1)
