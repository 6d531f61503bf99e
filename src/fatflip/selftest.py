"""Randomized self-test harness tying all the pieces together.

Each section draws seeded random inputs and checks an exact identity:
structural invariance of flips, vanishing of the three cocycles on the
relation loops, preservation and topologicality of markings, coefficient
equivariance, and the word-algebra normal form.  Everything is
deterministic for a fixed seed.

The per-item identities are public ``check_*`` functions that raise
:class:`SelfTestFailure`, an ``AssertionError`` (the marking axioms
raise the ``MarkingError`` of ``check_marking``); the acceptance suite
calls the same functions from its own seeded drivers.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from . import intlinalg
from .abelian import KElement
from .cocycles import COCYCLES, path_sums
from .fatgraph import FatGraph, FatGraphError, canonical_iso
from .flips import (FlipPath, adjacent_flippable_pairs, commuting_loop,
                    disjoint_flippable_pairs, flippable_edges,
                    involution_pair, pentagon_path)
from .markings import (Marking, MarkingError, SymplecticForm,
                       canonical_h_marking, check_marking, is_topological_h,
                       propagate_path)
from .randgen import (random_coherent_marking, random_flip_path, random_gl,
                      random_graph)
from .words import parse_word, reduce_word, word_str
from .earle import (bp_m_phase_sums, d2, earle_f, morita_normal_form,
                    reconstruct, reference_bp_automorphism)


class SelfTestFailure(AssertionError):
    pass


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def check_flip_step(before: FatGraph, after: FatGraph,
                    marking: Marking) -> None:
    """A flip keeps V, E, the boundary number and the genus, and the
    propagated marking passes :func:`check_marking` on ``after``."""
    _check(after.num_vertices == before.num_vertices, "flip changed V")
    _check(after.num_edges == before.num_edges, "flip changed E")
    _check(after.boundary_number() == before.boundary_number(),
           "flip changed boundary number")
    _check(after.genus() == before.genus(), "flip changed genus")
    check_marking(after, marking)


def random_relation_loops(graph: FatGraph,
                          rng: random.Random) -> List[FlipPath]:
    """One involution pair, then a pentagon and a commuting loop when
    the graph has an adjacent or a disjoint flippable pair."""
    loops = [involution_pair(graph, rng.choice(flippable_edges(graph)))]
    adj = adjacent_flippable_pairs(graph)
    if adj:
        loops.append(pentagon_path(graph, *rng.choice(adj)))
    dis = disjoint_flippable_pairs(graph)
    if dis:
        loops.append(commuting_loop(graph, *rng.choice(dis)))
    return loops


def check_relation_loop(loop: FlipPath, marking: Marking) -> None:
    """The loop closes, the marking comes back under ``canonical_iso``
    and the m, j and s totals vanish, from one walk.  So T = 1 on K with
    no solve: T * mu(e) = mu_end(psi(e)) on every edge defines T, the
    return gives mu_end(psi(e)) = mu(e), and the values span Z^r."""
    try:
        psi = canonical_iso(loop.start, loop.end)
    except FatGraphError:
        raise SelfTestFailure("relation loop did not close") from None
    totals, m_end = path_sums(loop, marking)
    _check(all(m_end.value(psi[e]) == marking.value(e)
               for e in loop.start.oriented_edges()),
           "marking did not return around a relation loop")
    for which, total in zip(COCYCLES, totals):
        _check(total.is_zero(),
               "cocycle %s nonzero on a relation loop" % which)


def check_topological_path(path: FlipPath, marking: Marking,
                           form: SymplecticForm) -> Marking:
    """The marking passes :func:`check_marking` and the intersection
    criterion at the start of the path, and the criterion still holds
    at its end; returns the marking at the end."""
    check_marking(path.start, marking)
    _check(is_topological_h(path.start, marking, form),
           "start marking fails the intersection criterion")
    m_end = propagate_path(marking, path.steps)
    _check(is_topological_h(path.end, m_end, form),
           "marking stopped being topological after flips")
    return m_end


def check_equivariance(path: FlipPath, marking: Marking,
                       t_mat: intlinalg.Matrix) -> None:
    """Moving the marking by T moves each of the m, j and s path sums
    by the induced map of T."""
    m_t = marking.transform(t_mat)
    totals, _ = path_sums(path, marking)
    moved, _ = path_sums(path, m_t)
    for which, total, total_t in zip(COCYCLES, totals, moved):
        _check(total_t == total.transform(t_mat),
               "cocycle %s is not equivariant" % which)


def _section_structural(rng: random.Random, trials: int, log) -> None:
    for t in range(trials):
        genus = rng.randint(1, 3)
        g = random_graph(genus, rng, extra_flips=0)
        m = random_coherent_marking(g, rng.randint(2, 2 * genus), rng)
        for _ in range(10):
            path = random_flip_path(g, 1, rng)
            m = propagate_path(m, path.steps)
            check_flip_step(g, path.end, m)
            g = path.end
    log("ok structural invariance (%d flips)" % (10 * trials))


def _section_relation_loops(rng: random.Random, trials: int, log) -> None:
    loops = 0
    for t in range(trials):
        genus = rng.randint(1, 3)
        g = random_graph(genus, rng)
        m = random_coherent_marking(g, rng.randint(2, 2 * genus), rng)
        for loop in random_relation_loops(g, rng):
            check_relation_loop(loop, m)
            loops += 1
    log("ok relation loops (%d loops, cocycles m j s)" % loops)


def _section_topological(rng: random.Random, trials: int, log) -> None:
    for t in range(trials):
        genus = rng.randint(1, 3)
        g = random_graph(genus, rng)
        m, form = canonical_h_marking(g)
        check_topological_path(random_flip_path(g, 12, rng), m, form)
    log("ok homology markings (%d graphs, 12 flips each)" % trials)


def _section_equivariance(rng: random.Random, trials: int, log) -> None:
    for t in range(trials):
        genus = rng.randint(1, 3)
        g = random_graph(genus, rng)
        r = rng.randint(2, 2 * genus)
        m = random_coherent_marking(g, r, rng)
        t_mat = random_gl(r, rng)
        check_equivariance(random_flip_path(g, rng.randint(1, 8), rng), m,
                           t_mat)
    log("ok equivariance (%d random transforms)" % trials)


def _section_words(rng: random.Random, trials: int, log) -> None:
    for t in range(trials):
        letters = [("ab"[rng.randrange(2)], rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 14))]
        w = reduce_word(letters)
        _check(reconstruct(morita_normal_form(w)) == w,
               "normal form does not reconstruct %s" % word_str(w))
    _check(d2(parse_word("b a b' a'")) == -2, "d(b a b' a') must be -2")
    phi = reference_bp_automorphism(2)
    _check(earle_f(phi, 2) == -2 * KElement.basis(4, 3),
           "reference bounding-pair value is not -2*B2")
    totals, grand = bp_m_phase_sums()
    _check(grand.coords == (4, 0, 0, 0), "bounding-pair grand total is not 4a")
    log("ok word algebra and bounding-pair values (%d words)" % trials)


SECTIONS = (
    ("structural", _section_structural),
    ("relation-loops", _section_relation_loops),
    ("topological", _section_topological),
    ("equivariance", _section_equivariance),
    ("words", _section_words),
)


def run_selftest(seed: int = 0, trials: int = 25,
                 log: Optional[Callable[[str], None]] = None) -> int:
    """Run all sections; returns 0 on success, 1 on the first failure,
    a failed check or a marking that breaks an axiom, after logging
    ``FAIL <section>: <message>``."""
    log = log or print
    rng = random.Random(seed)
    for name, section in SECTIONS:
        try:
            section(rng, trials, log)
        except (SelfTestFailure, MarkingError) as err:
            log("FAIL %s: %s" % (name, err))
            return 1
    return 0
