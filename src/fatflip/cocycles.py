"""Per-flip cocycle values and their accumulation along flip paths.

Three quantities are attached to a flip with neighbor labels a, b, c, d
read off a marking mu:

    m = mu(a) + mu(c)                                  in K
    j = mu(a) ^ mu(b) ^ mu(c)                          in Lambda^3 K
    s = [mu(a)^mu(c)] (x) [mu(b)^mu(d)], symmetrized   in S^2 Lambda^2 K

All three are independent of the orientation chosen for the flipped
edge, and their sums over the involutivity, commutativity and pentagon
loops vanish identically for every coherent marking.  Summing along a
closed path of flips evaluates the corresponding twisted cocycle on the
mapping class the path represents.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple, Union

from . import intlinalg
from .abelian import (KElement, SymWedge, Wedge3, _add_sym, _add_wedge2,
                      _add_wedge3)
from .fatgraph import FatGraph, FatGraphError, OrientedEdge, canonical_iso
from .flips import (ClosureError, FlipContext, FlipPath, concat_paths,
                    replay_path)
from .markings import Marking, _Walker, propagate_path

COCYCLES = ("m", "j", "s")

CocycleValue = Union[KElement, Wedge3, SymWedge]


class CocycleError(ValueError):
    pass


class InducedAutomorphismError(CocycleError):
    """No integer automorphism of K is consistent with the path."""


# Step kernels for _Walker.step: each adds one flip's value, from the
# kept supports of the stored values v and the signs s of a, b, c and d,
# to a dict of coordinates (m) or of coefficients (j, s).

def _add_m(out, va, sa, vb, sb, vc, sc, vd, sd) -> None:
    for v, sign in ((va, sa), (vc, sc)):
        for i in v._nonzero():
            out[i] = out.get(i, 0) + sign * v.coords[i]


def _add_j(out, va, sa, vb, sb, vc, sc, vd, sd) -> None:
    _add_wedge3(out, sa * sb * sc, va, vb, vc)


def _add_s(out, va, sa, vb, sb, vc, sc, vd, sd) -> None:
    ac, bd = {}, {}
    _add_wedge2(ac, 1, va, vc)
    _add_wedge2(bd, 1, vb, vd)
    _add_sym(out, sa * sb * sc * sd, ac, bd)


_KERNELS = {"m": _add_m, "j": _add_j, "s": _add_s}
_VALUE_TYPES = {"m": KElement, "j": Wedge3, "s": SymWedge}


def _kernel(which: str):
    if which not in _KERNELS:
        raise CocycleError("unknown cocycle %r" % which)
    return _KERNELS[which]


def _value(which: str, rank: int, terms: Dict) -> CocycleValue:
    if which == "m":
        return KElement._of(tuple(terms.get(i, 0) for i in range(rank)))
    return _VALUE_TYPES[which]._of(rank, terms)


def _step_value(walker: _Walker, ctx: FlipContext,
                which: str) -> CocycleValue:
    terms: Dict = {}
    walker.step(ctx, ((_kernel(which), terms),))
    return _value(which, walker.rank, terms)


def cocycle_m(ctx: FlipContext, marking: Marking) -> KElement:
    return _step_value(_Walker(marking), ctx, "m")


def cocycle_j(ctx: FlipContext, marking: Marking) -> Wedge3:
    return _step_value(_Walker(marking), ctx, "j")


def cocycle_s(ctx: FlipContext, marking: Marking) -> SymWedge:
    return _step_value(_Walker(marking), ctx, "s")


def walk_values(path: FlipPath, marking: Marking,
                which: str) -> Iterator[CocycleValue]:
    """Yield each step's cocycle value along the path."""
    walker = _Walker(marking)
    for ctx in path.steps:
        yield _step_value(walker, ctx, which)


def path_sums(path: FlipPath, marking: Marking,
              which: Sequence[str] = COCYCLES
              ) -> Tuple[Tuple[CocycleValue, ...], Marking]:
    """Sum each named cocycle along the path in one walk; returns the
    totals in the order of ``which`` and the marking on the end graph."""
    sums = [(_kernel(w), {}) for w in which]
    walker = _Walker(marking)
    for ctx in path.steps:
        walker.step(ctx, sums)
    return (tuple(_value(w, marking.rank, terms)
                  for w, (_, terms) in zip(which, sums)), walker.marking())


def path_sum(path: FlipPath, marking: Marking,
             which: str) -> Tuple[CocycleValue, Marking]:
    """Sum the chosen cocycle along a path, propagating the marking.

    Returns the total and the marking on the final graph.
    """
    (total,), end = path_sums(path, marking, (which,))
    return total, end


def induced_k_automorphism(path: FlipPath, marking: Marking) -> intlinalg.Matrix:
    """The automorphism of K carried by a closed path of flips.

    The path must end at a graph isomorphic rel tail to its start; the
    returned integer matrix T satisfies T * mu(e) = mu_end(psi(e)) for
    the canonical isomorphism psi, and is invertible over Z.  T is the
    identity exactly when the path preserves the marking.
    """
    return _induced_matrix(path.start, path.closing_iso(), marking,
                           propagate_path(marking, path.steps))


def _induced_matrix(start: FatGraph, psi: Dict, marking: Marking,
                    end_marking: Marking) -> intlinalg.Matrix:
    """The unimodular T with T * mu(e) = mu_end(psi(e)) on every oriented
    edge e of ``start``, for a path already walked and closed by psi.
    Both sides negate under reversal, so the ``+`` orientations carry
    every condition.

    T is invertible over Z with no test, as both callers walked the path:
    a step stores mu(d) + mu(a) and drops mu(e), which coherence at
    head(e), checked first, writes in the kept mu(a), mu(b), so the walk
    keeps the span L of the values.  psi is a bijection, so T(L) = L; L
    has rank r, or ``solve_transform`` raises; [Z^r : T L] = |det T|
    [Z^r : L] then forces |det T| = 1.
    """
    edges = [OrientedEdge(x, 1) for x in start.edge_ids()]
    xs = [list(marking.value(e).coords) for e in edges]
    ys = [list(end_marking.value(psi[e]).coords) for e in edges]
    try:
        t = intlinalg.solve_transform(xs, ys)
    except intlinalg.LinAlgError as err:
        raise InducedAutomorphismError(str(err)) from err
    if t is None:
        raise InducedAutomorphismError(
            "end marking is not an integer transform of the start marking")
    return t


def compose_closed(path1: FlipPath, path2: FlipPath) -> FlipPath:
    """Concatenate two closed paths based at the same graph.

    The second path is replayed on the end graph of the first through
    the canonical isomorphism.
    """
    try:
        psi = canonical_iso(path2.start, path1.end)
    except FatGraphError as err:
        raise ClosureError("paths are not based at the same graph") from err
    iso = {e.edge: psi[e].edge for e in path2.start.oriented_edges()}
    return concat_paths(path1, replay_path(
        path1.end, [(c.edge.edge, c.new_edge.edge) for c in path2.steps], iso))


class CocycleConditionError(CocycleError):
    def __init__(self, which, lhs, rhs):
        super().__init__(
            "twisted cocycle condition fails for %s: composite gives %s, "
            "expected %s" % (which, lhs, rhs))
        self.lhs = lhs
        self.rhs = rhs


def verify_cocycle_condition(path1: FlipPath, path2: FlipPath,
                             marking: Marking, which: str) -> None:
    """Check value(path1 * path2) == value(path1) + T1 . value(path2).

    Both paths must be closed loops based at the marking's graph; T1 is
    the coefficient automorphism induced by the first path, read off the
    end marking of the walk that sums it (see
    :func:`induced_k_automorphism`), so each path is walked once.
    """
    composite = compose_closed(path1, path2)
    total_comp, _ = path_sum(composite, marking, which)
    total1, end1 = path_sum(path1, marking, which)
    total2, _ = path_sum(path2, marking, which)
    t1 = _induced_matrix(path1.start, path1.closing_iso(), marking, end1)
    expected = total1 + total2.transform(t1)
    if total_comp != expected:
        raise CocycleConditionError(which, total_comp, expected)
