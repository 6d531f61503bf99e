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

from typing import Dict, Iterator, Tuple, Union

from . import intlinalg
from .abelian import KElement, SymWedge, Wedge3, sym_pair, wedge2, wedge3
from .fatgraph import FatGraph, FatGraphError, canonical_iso
from .flips import (ClosureError, FlipContext, FlipPath, concat_paths,
                    replay_path)
from .markings import (Marking, _check_local_coherence, _propagate,
                       propagate_path)

COCYCLES = ("m", "j", "s")

CocycleValue = Union[KElement, Wedge3, SymWedge]


class CocycleError(ValueError):
    pass


class InducedAutomorphismError(CocycleError):
    """No integer automorphism of K is consistent with the path."""


def cocycle_m(ctx: FlipContext, marking: Marking) -> KElement:
    _check_local_coherence(marking, ctx)
    return marking.value(ctx.a) + marking.value(ctx.c)


def cocycle_j(ctx: FlipContext, marking: Marking) -> Wedge3:
    _check_local_coherence(marking, ctx)
    return wedge3(marking.value(ctx.a), marking.value(ctx.b),
                  marking.value(ctx.c))


def cocycle_s(ctx: FlipContext, marking: Marking) -> SymWedge:
    _check_local_coherence(marking, ctx)
    return sym_pair(wedge2(marking.value(ctx.a), marking.value(ctx.c)),
                    wedge2(marking.value(ctx.b), marking.value(ctx.d)))


_COCYCLE_FUNCS = {"m": cocycle_m, "j": cocycle_j, "s": cocycle_s}
_VALUE_TYPES = {"m": KElement, "j": Wedge3, "s": SymWedge}


def zero_value(which: str, rank: int) -> CocycleValue:
    if which not in _VALUE_TYPES:
        raise CocycleError("unknown cocycle %r" % which)
    return _VALUE_TYPES[which].zero(rank)


def walk_values(path: FlipPath, marking: Marking,
                which: str) -> Iterator[Tuple[CocycleValue, Marking]]:
    """Yield each step's cocycle value and the marking after that step.

    The cocycle function checks local coherence at the flip, which is
    the check :func:`propagate` would repeat, so the step propagates
    unchecked.
    """
    func = _COCYCLE_FUNCS[which]
    for ctx in path.steps:
        value = func(ctx, marking)
        marking = _propagate(marking, ctx)
        yield value, marking


class RunningTotal:
    """A sum of cocycle values kept in one dict of coordinates (m) or
    coefficients (j, s), turned into a value once instead of per step."""

    __slots__ = ("_zero", "_terms")

    def __init__(self, which: str, rank: int):
        self._zero, self._terms = zero_value(which, rank), {}

    def add(self, value: CocycleValue) -> None:
        terms = self._terms
        for key, c in (enumerate(value.coords) if isinstance(value, KElement)
                       else value.coeffs.items()):
            terms[key] = terms.get(key, 0) + c

    def value(self) -> CocycleValue:
        zero, terms = self._zero, self._terms
        if isinstance(zero, KElement):
            return KElement._of(tuple(terms.get(i, 0)
                                      for i in range(zero.rank)))
        return type(zero)(zero.rank, terms)


def path_sum(path: FlipPath, marking: Marking,
             which: str) -> Tuple[CocycleValue, Marking]:
    """Sum the chosen cocycle along a path, propagating the marking.

    Returns the total and the marking on the final graph.
    """
    total = RunningTotal(which, marking.rank)
    for value, marking in walk_values(path, marking, which):
        total.add(value)
    return total.value(), marking


def induced_k_automorphism(path: FlipPath, marking: Marking) -> intlinalg.Matrix:
    """The automorphism of K carried by a closed path of flips.

    The path must end at a graph isomorphic rel tail to its start; the
    returned integer matrix T satisfies T * mu(e) = mu_end(psi(e)) for
    the canonical isomorphism psi, and is invertible over Z.  T is the
    identity exactly when the path preserves the marking.
    """
    try:
        psi = canonical_iso(path.start, path.end)
    except FatGraphError as err:
        raise ClosureError(
            "path does not return to its starting graph") from err
    end_marking = propagate_path(marking, path.steps)
    edges = path.start.oriented_edges()
    xs = [list(marking.value(e).coords) for e in edges]
    ys = [list(end_marking.value(psi[e]).coords) for e in edges]
    try:
        t = intlinalg.solve_transform(xs, ys)
    except intlinalg.LinAlgError as err:
        raise InducedAutomorphismError(str(err)) from err
    if t is None:
        raise InducedAutomorphismError(
            "end marking is not an integer transform of the start marking")
    if not intlinalg.is_unimodular(t):
        raise InducedAutomorphismError(
            "induced transform %r is not invertible over Z" % (t,))
    return t


def replay_on(path: FlipPath, target: FatGraph,
              iso: Dict[int, int]) -> FlipPath:
    """Replay a flip sequence on an isomorphic graph.

    ``iso`` translates unoriented edge ids of ``path.start`` to ids of
    ``target``; ids created along the way are translated positionally.
    """
    return replay_path(target,
                       [(c.edge.edge, c.new_edge.edge) for c in path.steps],
                       iso)


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
    return concat_paths(path1, replay_on(path2, path1.end, iso))


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
    the coefficient automorphism induced by the first path.
    """
    composite = compose_closed(path1, path2)
    total_comp, _ = path_sum(composite, marking, which)
    total1, _ = path_sum(path1, marking, which)
    total2, _ = path_sum(path2, marking, which)
    t1 = induced_k_automorphism(path1, marking)
    expected = total1 + total2.transform(t1)
    if total_comp != expected:
        raise CocycleConditionError(which, total_comp, expected)
