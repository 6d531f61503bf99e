"""Morita's d-function and the Earle cocycle on explicit automorphisms.

The integer d(x) of a rank-two word x comes from packing x into the
normal form a^{e1} b^{d1} ... a^{en} b^{dn} with exponents in {0, +-1}
and taking a double sum over the exponent sequences.  Summing d over the
handle projections extends it to surface words, and the d-differences of
an automorphism assemble into a homology class via the intersection
pairing.  The reference bounding-pair automorphism evaluates to -2*B2.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from . import intlinalg
from .abelian import KElement
from .words import (FreeAutomorphism, Word, WordError, abelianized_matrix,
                    commutator, concat, gen, gen_info, inverse,
                    reduce_word, surface_generators, word_str)

NormalForm = List[Tuple[int, int]]


class NotAHomomorphismError(ValueError):
    """The d-difference of the supplied map failed the additivity probe."""


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


def d_surface(word: Word, genus: int) -> int:
    """d on surface words: the sum of d2 over the handle projections."""
    return sum(d2(project(word, i, genus)) for i in range(1, genus + 1))


def d_differences(phi: FreeAutomorphism, genus: int) -> Dict[str, int]:
    """d(phi(x)) - d(x) on every generator x."""
    out = {}
    for name in surface_generators(genus):
        w = gen(name)
        out[name] = d_surface(phi(w), genus) - d_surface(w, genus)
    return out


def _random_word(rng: random.Random, genus: int, length: int) -> Word:
    gens = surface_generators(genus)
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]
    return reduce_word(letters)


def check_d_difference_additive(phi: FreeAutomorphism, genus: int,
                                trials: int = 32,
                                rng: Optional[random.Random] = None) -> None:
    """Probe lambda(xy) = lambda(x) + lambda(y) on random word pairs.

    A failure means the supplied map does not induce a topological
    automorphism, so the homology class below would be meaningless.
    """
    rng = rng or random.Random(0)

    def lam(w: Word) -> int:
        return d_surface(phi(w), genus) - d_surface(w, genus)

    for _ in range(trials):
        x = _random_word(rng, genus, rng.randint(0, 12))
        y = _random_word(rng, genus, rng.randint(0, 12))
        if lam(concat(x, y)) != lam(x) + lam(y):
            raise NotAHomomorphismError(
                "d-difference is not additive on %s and %s"
                % (word_str(x), word_str(y)))


class HElement:
    """Element of H = Z^{2g} in the basis (A1, B1, ..., Ag, Bg)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        self.coords = tuple(int(c) for c in coords)
        if len(self.coords) % 2:
            raise ValueError("H has even rank")

    @classmethod
    def zero(cls, genus: int) -> "HElement":
        return cls((0,) * (2 * genus))

    @classmethod
    def basis(cls, genus: int, kind: str, i: int) -> "HElement":
        """A_i for kind 'A', B_i for kind 'B' (i is 1-based)."""
        if kind not in ("A", "B") or not 1 <= i <= genus:
            raise ValueError("no basis vector %s%d in genus %d"
                             % (kind, i, genus))
        coords = [0] * (2 * genus)
        coords[2 * (i - 1) + (0 if kind == "A" else 1)] = 1
        return cls(coords)

    @property
    def genus(self) -> int:
        return len(self.coords) // 2

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "HElement") -> "HElement":
        return HElement(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "HElement":
        return HElement(-a for a in self.coords)

    def __mul__(self, n: int) -> "HElement":
        return HElement(n * a for a in self.coords)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, HElement) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            name = ("A" if i % 2 == 0 else "B") + str(i // 2 + 1)
            parts.append("%s%d*%s" % ("+" if c > 0 else "-", abs(c), name))
        out = " ".join(parts)
        return out[1:] if out.startswith("+") else out

    def __repr__(self) -> str:
        return "HElement(%r)" % (self.coords,)


def d_difference_class(phi: FreeAutomorphism, genus: int) -> HElement:
    """The element h of H with h . y = d(phi(y)) - d(y) for all y.

    With A_i . B_i = 1 the solution is sum_i lambda(b_i) A_i -
    lambda(a_i) B_i.
    """
    lam = d_differences(phi, genus)
    coords = []
    for i in range(1, genus + 1):
        coords.append(lam["b%d" % i])
        coords.append(-lam["a%d" % i])
    return HElement(coords)


def earle_f(phi: FreeAutomorphism, genus: int, *,
            inverse_supplied: bool = False,
            probe_trials: int = 32,
            rng: Optional[random.Random] = None) -> HElement:
    """Evaluate the Earle cocycle on the mapping class of ``phi``.

    The cocycle pairs against d-differences of the *inverse* map.  With
    ``inverse_supplied`` the given images are taken to be those of the
    inverse and used directly; otherwise the supplied map is phi itself
    and the value is corrected through its homology action, which never
    requires inverting phi symbolically.
    """
    check_d_difference_additive(phi, genus, trials=probe_trials, rng=rng)
    h = d_difference_class(phi, genus)
    if inverse_supplied:
        return h
    action = abelianized_matrix(phi, genus)
    return -HElement(intlinalg.mat_vec(action, h.coords))


def reference_bp_automorphism(genus: int = 2, *,
                              text_variant: bool = False) -> FreeAutomorphism:
    """The bounding-pair map used for the -2*B2 evaluation.

    Conjugates the first handle by gamma = a2 b2' a2' [b1, a1] and sends
    a2 to gamma a2 b2, fixing b2 and all higher handles.  The
    ``text_variant`` flag swaps in the commutator [b1, a2] instead; the
    two published forms of gamma disagree and only the default
    reproduces the -2*B2 value.
    """
    if genus < 2:
        raise WordError("the bounding-pair map needs genus >= 2")
    a1, b1 = gen("a1"), gen("b1")
    a2, b2 = gen("a2"), gen("b2")
    comm = commutator(b1, a2 if text_variant else a1)
    gamma = concat(a2, inverse(b2), inverse(a2), comm)
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
    totals = []
    for phase in BP_M_CONTRIBUTIONS:
        t = KElement.zero(4)
        for v in phase:
            t = t + v
        totals.append(t)
    grand = KElement.zero(4)
    for t in totals:
        grand = grand + t
    return totals, grand
