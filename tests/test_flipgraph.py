"""The flip-graph enumerator and the loop identity of the flip cocycles.

No test types in h or k: each solves them, and the checks compare one
computed result with another or with an independent replay.
"""

import pytest

from fatflip import cocycles, flipgraph, intlinalg
from fatflip.cocycles import induced_k_automorphism, path_sums
from fatflip.fatgraph import canonical_iso, oe
from fatflip.flips import (FlipPath, adjacent_flippable_pairs, commuting_loop,
                           concat_paths, disjoint_flippable_pairs, flip,
                           flippable_edges, involution_pair, pentagon_path,
                           replay_path, reverse_path)
from fatflip.selftest import check_relation_loop


def rows_of(expansions):
    return set().union(*(flipgraph.identity_rows(ex.flips)
                         for ex in expansions))


def holds(row, solution):
    return sum(x * t for x, t in zip(row[:-1], solution)) == row[-1]


@pytest.fixture(scope="module")
def genus2():
    return list(flipgraph.expand(2))


@pytest.fixture(scope="module")
def solved2(genus2):
    rows = rows_of(genus2)
    return rows, flipgraph.solve_identity(rows)


def test_genus2_solution_satisfies_every_row(solved2):
    rows, solution = solved2
    assert solution is not None and len(solution) == 5
    assert all(type(x) is int for x in solution)
    assert all(holds(row, solution) for row in rows)


def test_genus3_ball_gives_the_genus2_factor(solved2):
    rows = rows_of(flipgraph.expand(3, max_classes=1000))
    solution = flipgraph.solve_identity(rows)
    assert solution is not None and len(solution) == 7
    assert all(holds(row, solution) for row in rows)
    assert solution[-1] == solved2[1][-1]


def test_genus1_leaves_the_factor_undetermined():
    # Lambda^3 Z^2 = 0: j vanishes, so no row reads k
    expansions = list(flipgraph.expand(1))
    assert [len(ex.flips) for ex in expansions] == [4]
    rows = rows_of(expansions)
    assert all(row[-2] == 0 for row in rows)
    with pytest.raises(intlinalg.LinAlgError, match="rank 2 < 3"):
        flipgraph.solve_identity(rows)


def test_partial_ball_is_closed_under_its_own_flips():
    expansions = list(flipgraph.expand(3, max_classes=40))
    assert [ex.number for ex in expansions] == list(range(40))
    targets = [f.target for ex in expansions for f in ex.flips]
    assert len(targets) == 40 * 16 and -1 in targets
    assert max(targets) == 39
    assert all(f.holonomy is None for ex in expansions for f in ex.flips
               if f.target < 0)


@pytest.mark.parametrize("genus, max_classes", [(0, None), (2, 0)])
def test_refuses_bad_arguments(genus, max_classes):
    with pytest.raises(ValueError, match="at least 1"):
        next(flipgraph.expand(genus, max_classes))


def tree_edges(classes, number):
    """The canonical edge ids of the tree path from the base to a class."""
    edges = []
    while classes[number].parent >= 0:
        edges.append(classes[number].edge)
        number = classes[number].parent
    return edges[::-1]


def replay(graph, edges):
    """Flip each edge, named by its canonical id in the class reached."""
    cur, steps = graph, []
    for e in edges:
        _, rel = cur.canonicalize()
        back = {v: k for k, v in rel.items()}
        cur, ctx = flip(cur, back[oe(e)])
        steps.append(ctx)
    return FlipPath(graph, cur, tuple(steps))


def fundamental_loop(base, classes, number, f):
    """Along the tree to the class, across the flip and back home."""
    out = replay(base, tree_edges(classes, number) + [f.edge])
    home = reverse_path(replay(base, tree_edges(classes, f.target)))
    psi = canonical_iso(home.start, out.end)
    return concat_paths(out, replay_path(
        out.end, [(c.edge.edge, c.new_edge.edge) for c in home.steps],
        {h.edge: psi[h].edge for h in home.start.oriented_edges()}))


def test_flips_match_a_replay_of_their_fundamental_loops(genus2):
    classes = [ex.cls for ex in genus2]
    base, marking = genus2[0].graph, genus2[0].marking
    checked = 0
    for ex in genus2:
        for f in ex.flips:
            if (classes[f.target].parent, classes[f.target].edge) == (
                    ex.number, f.edge):
                assert f.holonomy == intlinalg.identity(4)
                continue
            loop = fundamental_loop(base, classes, ex.number, f)
            assert induced_k_automorphism(loop, marking) == f.holonomy
            (m, j), _ = path_sums(loop, marking, ("m", "j"))
            assert m.coords == f.r_m
            assert flipgraph.contraction(j).coords == f.r_j
            checked += 1
    assert checked == sum(len(ex.flips) for ex in genus2) - len(classes) + 1


def test_every_relation_cell_at_genus2(genus2):
    # every involution pair, pentagon and commuting square at every
    # class, on the graph and gauge marking the enumerator yields
    for ex in genus2:
        graph, marking = ex.graph, ex.marking
        loops = [involution_pair(graph, e) for e in flippable_edges(graph)]
        loops += [pentagon_path(graph, *p)
                  for p in adjacent_flippable_pairs(graph)]
        loops += [commuting_loop(graph, *p)
                  for p in disjoint_flippable_pairs(graph)]
        assert len(loops) > 10
        for loop in loops:
            check_relation_loop(loop, marking)


def _m_as_a_minus_c(out, xa, sa, xb, sb, xc, sc, xd, sd):
    cocycles._add_m(out, xa, sa, xb, sb, xc, -sc, xd, sd)


def _j_as_adc(out, xa, sa, xb, sb, xc, sc, xd, sd):
    cocycles._add_j(out, xa, sa, xd, sd, xc, sc, xb, sb)


def test_faults_leave_no_solution(monkeypatch):
    monkeypatch.setitem(cocycles._KERNELS, "m", _m_as_a_minus_c)
    assert flipgraph.solve_identity(rows_of(flipgraph.expand(2))) is None
    monkeypatch.undo()
    holonomy = flipgraph._holonomy
    monkeypatch.setattr(flipgraph, "_holonomy", lambda nu, y_inv:
                        intlinalg.transpose(holonomy(nu, y_inv)))
    assert flipgraph.solve_identity(rows_of(flipgraph.expand(2))) is None


def test_j_read_as_adc_negates_the_factor(monkeypatch, solved2):
    # a ^ d ^ c = -(a ^ b ^ c) on a coherent marking, as a + b = -e = -(c
    # + d) across the flip: the identity holds with the opposite k
    monkeypatch.setitem(cocycles._KERNELS, "j", _j_as_adc)
    solution = flipgraph.solve_identity(rows_of(flipgraph.expand(2)))
    assert solution[:-1] == solved2[1][:-1]
    assert solution[-1] == -solved2[1][-1]
