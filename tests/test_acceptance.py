"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion summary lines).
"""

import random
import time

from fatflip.abelian import KElement, SymWedge, sym_pair, wedge2
from fatflip.earle import (bp_m_phase_sums, d_differences, earle_f,
                           reference_bp_automorphism)
from fatflip.flips import (adjacent_flippable_pairs, commuting_loop,
                           disjoint_flippable_pairs, flip, flippable_edges,
                           involution_pair, pentagon_path)
from fatflip.markings import canonical_h_marking, propagate
from fatflip.randgen import (random_coherent_marking, random_gl, random_graph,
                             random_flip_path)
from fatflip.selftest import (check_equivariance, check_flip_step,
                              check_relation_loop, check_topological_path,
                              random_relation_loops)


def report(criterion, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (criterion, detail))


def test_c1_relation_loop_cocycles_vanish():
    """Sums of m, j, s over involutivity/commutativity/pentagon loops."""
    rng = random.Random(101)
    t0 = time.time()
    trials = 210
    loops_checked = 0
    for trial in range(trials):
        genus = 1 + trial % 3
        g = random_graph(genus, rng, extra_flips=4)
        rank = rng.randint(2, 2 * genus)
        m = random_coherent_marking(g, rank, rng)
        if trial < 3:  # first trial of each genus checks all loops
            loops = ([involution_pair(g, e) for e in flippable_edges(g)]
                     + [pentagon_path(g, *p)
                        for p in adjacent_flippable_pairs(g)]
                     + [commuting_loop(g, *p)
                        for p in disjoint_flippable_pairs(g)])
        else:
            loops = random_relation_loops(g, rng)
        for loop in loops:
            check_relation_loop(loop, m)
            loops_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, "criterion 1 exceeded 10 s (%.1f s)" % elapsed
    report("1 cocycle-vanishing",
           "%d trials, %d loops, all m/j/s sums exactly 0, markings "
           "return, T = 1, %.1f s"
           % (trials, loops_checked, elapsed))


def test_c2_pentagon_proof_identities():
    """Symbolic pentagon sums over free generators a..e of Z^5."""
    a, b, c, d, e = (KElement.basis(5, i) for i in range(5))

    m_values = [b + d, b + e, c + e, a + c, a + d]
    m_total = KElement.zero(5)
    for v in m_values:
        m_total = m_total + v
    assert m_total == 2 * (a + b + c + d + e)

    s_values = [
        sym_pair(wedge2(b, d), wedge2(c, a + e)),
        sym_pair(wedge2(e, b), wedge2(a, c + d)),
        sym_pair(wedge2(e, c), wedge2(a + b, d)),
        sym_pair(wedge2(a, c), wedge2(b, d + e)),
        sym_pair(wedge2(a, d), wedge2(b + c, e)),
    ]
    s_total = SymWedge.zero(5)
    for v in s_values:
        s_total = s_total + v
    assert s_total.is_zero()
    report("2 pentagon-identities",
           "m sum = 2(a+b+c+d+e); s sum = 0 after coherence substitution")


def test_c3_bounding_pair_phase_sums():
    """The four phase totals of the fourteen-flip m-evaluation in Z^4."""
    totals, grand = bp_m_phase_sums()
    assert [t.coords for t in totals] == [
        (4, 0, 0, 0),        # 4a
        (6, 2, -2, 4),        # 6a + 2b - 2c + 4d
        (-4, 0, 0, 0),        # -4a
        (-2, -2, 2, -4),      # -2a - 2b + 2c - 4d
    ]
    assert grand.coords == (4, 0, 0, 0)
    report("3 phase-sums", "totals 4a, 6a+2b-2c+4d, -4a, -2a-2b+2c-4d; "
           "grand total 4a")


def test_c4_earle_value_on_reference_map():
    """d-differences and the -2*B2 evaluation, exact and under 1 s."""
    t0 = time.time()
    phi = reference_bp_automorphism(2)
    lam = d_differences(phi, 2)
    assert lam == {"a1": 0, "b1": 0, "a2": -2, "b2": 0}
    value = earle_f(phi, 2)
    assert value == -2 * KElement.basis(4, 3)
    elapsed = time.time() - t0
    assert elapsed < 1.0, "criterion 4 exceeded 1 s (%.2f s)" % elapsed
    report("4 earle-cocycle", "d-differences (0, 0, -2, 0); value -2*B2, "
           "%.2f s" % elapsed)


def test_c5_lemma_consistency():
    """4*B2 equals -2 times the Earle value, as integers in H."""
    b2 = KElement.basis(4, 3)
    m_value = 4 * b2
    f_value = earle_f(reference_bp_automorphism(2), 2)
    assert m_value == -2 * f_value
    report("5 lemma-consistency", "4*B2 == -2 * (-2*B2)")


def test_c6_structural_invariance():
    """Ten thousand flips keep V, E, genus, boundary and the marking axioms."""
    rng = random.Random(606)
    t0 = time.time()
    flips_done = 0
    target = 10_000
    while flips_done < target:
        genus = rng.randint(1, 3)
        g = random_graph(genus, rng, extra_flips=0)
        rank = rng.randint(2, 2 * genus)
        m = random_coherent_marking(g, rank, rng)
        for _ in range(40):
            g2, ctx = flip(g, rng.choice(flippable_edges(g)))
            m = propagate(m, ctx)
            check_flip_step(g, g2, m)
            g = g2
            flips_done += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, "criterion 6 exceeded 30 s (%.1f s)" % elapsed
    report("6 structural-invariance",
           "%d flips, V/E/genus/boundary constant, marking axioms hold "
           "throughout, %.1f s" % (flips_done, elapsed))


def brute_force_intersection_check(graph, marking, form):
    """Independent all-pairs oracle for the intersection criterion.

    Rotates the four boundary ranks so the first edge sits at zero and
    compares the pairing against plain linear comparisons.
    """
    order = graph.boundary_order()
    total = 2 * graph.num_edges
    edges = graph.oriented_edges()
    for i, x in enumerate(edges):
        for y in edges[i + 1:]:
            if x.edge == y.edge:
                continue
            b = (order[y] - order[x]) % total
            xr = (order[x.rev] - order[x]) % total
            yr = (order[y.rev] - order[x]) % total
            if b < xr < yr:
                want = 1
            elif yr < xr < b:
                want = -1
            else:
                want = 0
            if form.pairing(marking.value(x), marking.value(y)) != want:
                return False
    return True


def test_c7_topological_markings():
    """Canonical markings pass both checks and survive 100 flips."""
    rng = random.Random(707)
    graphs = 100
    for trial in range(graphs):
        genus = 1 + trial % 3
        g = random_graph(genus, rng, extra_flips=3)
        m, form = canonical_h_marking(g)
        path = random_flip_path(g, 100, rng)
        m_end = check_topological_path(path, m, form)
        assert brute_force_intersection_check(g, m, form)
        assert brute_force_intersection_check(path.end, m_end, form)
    report("7 topological-markings",
           "%d graphs of genus 1..3, oracle agreement, still topological "
           "after 100 flips each" % graphs)


def test_c8_equivariance():
    """Transforming the marking transforms the sums functorially."""
    rng = random.Random(808)
    trials = 110
    for trial in range(trials):
        genus = 1 + trial % 3
        g = random_graph(genus, rng, extra_flips=2)
        rank = rng.randint(2, 2 * genus)
        m = random_coherent_marking(g, rank, rng)
        t_mat = random_gl(rank, rng)
        check_equivariance(random_flip_path(g, rng.randint(1, 7), rng), m,
                           t_mat)
    report("8 equivariance",
           "%d random GL transforms: sums move by T, wedge^3 T, S^2wedge^2 T"
           % trials)
