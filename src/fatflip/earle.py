"""Morita's d-function and the Earle cocycle on explicit automorphisms.

The integer d(x) of a rank-two word x comes from packing x into the
normal form a^{e1} b^{d1} ... a^{en} b^{dn} with exponents in {0, +-1}
and taking a double sum over the exponent sequences.  Summing d over the
handle projections extends it to surface words, and the d-differences of
an automorphism assemble into a homology class via the intersection
pairing.  The reference bounding-pair automorphism evaluates to -2*B2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import intlinalg
from .abelian import KElement
from .markings import SymplecticForm
from .words import (FreeAutomorphism, Word, WordError, abelianized_matrix,
                    commutator, concat, gen, gen_info, inverse,
                    reduce_word, surface_generators)

NormalForm = List[Tuple[int, int]]


class NotAHomomorphismError(ValueError):
    """The d-difference of the supplied map is not additive."""


def morita_normal_form(word: Word) -> NormalForm:
    """Greedy packing of a reduced rank-two word into (eps, delta) pairs.

    Each pair consumes at most one a^{+-1} followed by at most one
    b^{+-1}; no (0, 0) pair ever occurs, and concatenating
    a^{eps} b^{delta} over the pairs reconstructs the word exactly.
    """
    pairs: NormalForm = []
    i = 0
    while i < len(word):
        eps = delta = 0
        name, sign = word[i]
        kind, idx = gen_info(name)
        if idx is not None:
            raise WordError("normal form needs a rank-two word, got %s" % name)
        if kind == "a":
            eps = sign
            i += 1
        if i < len(word) and word[i][0] == "b":
            delta = word[i][1]
            i += 1
        pairs.append((eps, delta))
    return pairs


def reconstruct(pairs: NormalForm) -> Word:
    letters = []
    for eps, delta in pairs:
        if eps:
            letters.append(("a", eps))
        if delta:
            letters.append(("b", delta))
    return reduce_word(letters)


def d2(word: Word) -> int:
    """Morita's d on reduced words in the rank-two free group."""
    pairs = morita_normal_form(word)
    n = len(pairs)
    d = 0
    delta_suffix = 0  # sum of delta_l for l >= k, built backwards
    eps_suffix = 0    # sum of eps_l for l > k
    for k in range(n - 1, -1, -1):
        eps, delta = pairs[k]
        delta_suffix += delta
        d += eps * delta_suffix - delta * eps_suffix
        eps_suffix += eps
    return d


def project(word: Word, i: int, genus: int) -> Word:
    """Kill every handle but the i-th and rename its generators to a, b."""
    if not 1 <= i <= genus:
        raise WordError("handle index %d out of range 1..%d" % (i, genus))
    letters = []
    for name, sign in word:
        kind, idx = gen_info(name)
        if idx is None:
            raise WordError("expected a surface word, got bare %s" % name)
        if idx > genus:
            raise WordError("generator %s outside genus %d" % (name, genus))
        if idx == i:
            letters.append((kind, sign))
    return reduce_word(letters)


def _check_genus(genus: int) -> None:
    if genus < 1:
        raise WordError("genus must be at least 1, got %d" % genus)


def d_surface(word: Word, genus: int) -> int:
    """d on surface words: the sum of d2 over the handle projections."""
    _check_genus(genus)
    d = d2(project(word, 1, genus))  # checks every letter of the word
    # a handle the word does not use projects to the empty word, d = 0
    used = {gen_info(name)[1] for name, _ in word} - {1}
    return d + sum(d2(project(word, i, genus)) for i in used)


def d_differences(phi: FreeAutomorphism, genus: int) -> Dict[str, int]:
    """d(phi(x)) - d(x) on every generator x."""
    out = {}
    for name in surface_generators(genus):
        w = gen(name)
        out[name] = d_surface(phi(w), genus) - d_surface(w, genus)
    return out


def check_d_difference_additive(phi: FreeAutomorphism,
                                genus: int) -> intlinalg.Matrix:
    """Raise unless lambda = d(phi(.)) - d is additive; return T, the
    action of phi on H.

    As d(xy) = d(x) + d(y) + omega([x], [y]), lambda(xy) - lambda(x) -
    lambda(y) = omega(Tx, Ty) - omega(x, y): lambda is additive exactly
    when T^T J T, the Gram matrix of T's columns under J, equals J, and
    it fails on x_i, x_j for an unequal entry (i, j).  Such a map
    induces no topological automorphism, so the homology class below
    would be meaningless.
    """
    t_mat = abelianized_matrix(phi, genus)
    pair = SymplecticForm.standard(genus).broken_pair(t_mat)
    if pair is not None:
        gens = surface_generators(genus)
        raise NotAHomomorphismError(
            "d-difference is not additive on %s and %s"
            % (gens[pair[0]], gens[pair[1]]))
    return t_mat


def h_str(h: KElement) -> str:
    """``h`` in the basis (A1, B1, ..., Ag, Bg) of H, e.g. ``-2*B2``."""
    parts = ["%s%d*%s%d" % ("+" if c > 0 else "-", abs(c), "AB"[i % 2],
                            i // 2 + 1)
             for i, c in enumerate(h.coords) if c]
    return " ".join(parts).lstrip("+") or "0"


def d_difference_class(phi: FreeAutomorphism, genus: int) -> KElement:
    """The element h of H with h . y = d(phi(y)) - d(y) for all y.

    H = Z^{2g} has the basis (A1, B1, ..., Ag, Bg) and the form J, with
    A_i . B_i = 1, so h = J lambda: sum_i lambda(b_i) A_i - lambda(a_i) B_i.
    """
    lam = d_differences(phi, genus)
    return KElement(lam[x] for x in surface_generators(genus)).transform(
        SymplecticForm.standard(genus).matrix)


def earle_f(phi: FreeAutomorphism, genus: int, *,
            inverse_supplied: bool = False) -> KElement:
    """Evaluate the Earle cocycle on the mapping class of ``phi``.

    The cocycle pairs against d-differences of the *inverse* map.  With
    ``inverse_supplied`` the given images are taken to be those of the
    inverse and used directly; otherwise the supplied map is phi itself
    and the value is corrected through its homology action, which never
    requires inverting phi symbolically.
    """
    _check_genus(genus)
    t_mat = check_d_difference_additive(phi, genus)
    h = d_difference_class(phi, genus)
    if inverse_supplied:
        return h
    return -h.transform(t_mat)


def reference_bp_automorphism(genus: int = 2) -> FreeAutomorphism:
    """The bounding-pair map used for the -2*B2 evaluation.

    Conjugates the first handle by gamma = a2 b2' a2' [b1, a1] and sends
    a2 to gamma a2 b2, fixing b2 and all higher handles.  The published
    form of gamma with [b1, a2] in place of [b1, a1] does not give -2*B2.
    """
    if genus < 2:
        raise WordError("the bounding-pair map needs genus >= 2")
    a1, b1 = gen("a1"), gen("b1")
    a2, b2 = gen("a2"), gen("b2")
    gamma = concat(a2, inverse(b2), inverse(a2), commutator(b1, a1))
    images = {
        "a1": concat(gamma, a1, inverse(gamma)),
        "b1": concat(gamma, b1, inverse(gamma)),
        "a2": concat(gamma, a2, b2),
        "b2": b2,
    }
    for i in range(3, genus + 1):
        images["a%d" % i] = gen("a%d" % i)
        images["b%d" % i] = gen("b%d" % i)
    return FreeAutomorphism(images)


# m-cocycle contributions of the fourteen flips expressing a torus
# bounding-pair map, grouped into the four phases of the move (first
# twist, first edge slide, second twist, second edge slide), written in
# the free coefficient basis (a, b, c, d) of Z^4.
def _k(a=0, b=0, c=0, d=0) -> KElement:
    return KElement((a, b, c, d))


BP_M_CONTRIBUTIONS: Tuple[Tuple[KElement, ...], ...] = (
    (_k(a=1, c=-1), _k(a=1, b=-1), _k(), _k(a=1, c=1), _k(a=1, b=1)),
    (_k(a=3, b=1, c=-1, d=2), _k(a=3, b=1, c=-1, d=2)),
    (_k(b=1), _k(a=-2, c=1), _k(), _k(a=-2, b=-1), _k(c=-1)),
    (_k(a=-1, b=-1, c=1, d=-2), _k(a=-1, b=-1, c=1, d=-2)),
)


def bp_m_phase_sums() -> Tuple[List[KElement], KElement]:
    """Per-phase totals of the bounding-pair m-contributions, plus the sum."""
    totals = [sum(phase, KElement.zero(4)) for phase in BP_M_CONTRIBUTIONS]
    return totals, sum(totals, KElement.zero(4))
