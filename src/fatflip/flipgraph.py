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
* The contraction C: Lambda^3 K -> K is
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
  one ``smith`` per class, and M_d^T J M_d = J is checked on every
  flip.  A tree flip has M_d = 1.
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

Per class the search keeps ints only: the key, in its index, and in a
:class:`FlipClass` the basis ids, Y0^-1, b^m, b^j and the tree parent
and edge.  A class's graph and marking live only from its discovery
until it is expanded.
"""

from __future__ import annotations

from collections import deque
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from . import intlinalg
from .abelian import KElement, Wedge3
from .cocycles import InducedAutomorphismError, path_sums
from .fatgraph import FatGraph
from .flips import FlipPath, flip, flippable_edges
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
    source class, the target class number, the holonomy M_d and the
    vectors r^m and r^j of its rows.  A flip out of a partial ball has
    target -1 and None for the rest."""

    edge: int
    target: int
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


def contraction(w: Wedge3) -> KElement:
    """C(w) for the form omega(e_{2i}, e_{2i+1}) = 1.  On a key
    i < j < k only omega(e_i, e_j) with j = i + 1, i even, and
    omega(e_j, e_k) with k = j + 1, j even, can be nonzero."""
    out = [0] * w.rank
    for (i, j, k), c in w.coeffs.items():
        if j == i + 1 and not i & 1:
            out[k] += c
        if k == j + 1 and not j & 1:
            out[i] += c
    return KElement._of(tuple(out))


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
    j_form = intlinalg.standard_symplectic(genus)
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
            cj = contraction(j).coords
            target = index.get(key)
            if target is None:
                if max_classes is not None and len(classes) >= max_classes:
                    flips.append(Flip(e, -1, None, None, None))
                    continue
                discover(key, FatGraph._from_codes(key, 0, fresh),
                         Marking._of_edges(n, nu),
                         tuple(map(sum, zip(cls.b_m, m.coords))),
                         tuple(map(sum, zip(cls.b_j, cj))), number, e)
                flips.append(Flip(e, len(classes) - 1,
                                  intlinalg.identity(n), zero, zero))
                continue
            other = classes[target]
            holonomy = _holonomy([nu[x].coords for x in other.basis],
                                 other.y_inv)
            if form.gram([KElement._of(col)
                          for col in zip(*holonomy)]) != j_form:
                raise InducedAutomorphismError(
                    "holonomy of the flip of edge %d at class %d is not "
                    "symplectic" % (e, number))
            flips.append(Flip(e, target, holonomy,
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
