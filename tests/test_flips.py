import random
import re
from math import factorial

import pytest

from fatflip.fatgraph import FatGraph, OrientedEdge, canonical_iso, oe
from fatflip.flipgraph import expand
from fatflip.flips import (FlipContext, FlipError, PathStepError,
                           adjacent_flippable_pairs, apply_path,
                           commuting_loop, disjoint_flippable_pairs, flip,
                           flippable, flippable_edges, fresh_edge_id,
                           involution_pair, pentagon_path, reverse_path)
from fatflip.randgen import random_graph, standard_surface_graph


def correspondence(path):
    """Oriented edges of the start graph to the end graph, composing the
    renames ctx.edge -> ctx.new_edge (and reversals) of the steps."""
    out = {h: h for h in path.start.oriented_edges()}
    for ctx in path.steps:
        rename = {ctx.edge: ctx.new_edge, ctx.edge.rev: ctx.new_edge.rev}
        out = {h: rename.get(k, k) for h, k in out.items()}
    return out


# arguments that name no edge: a negative id, a sign other than +-1 and
# an id that is not an int
NOT_EDGES = (-1, OrientedEdge(-1, 1), OrientedEdge(3, 2), OrientedEdge(3, 0),
             1.5, "1", True, OrientedEdge("x", 1))


def loopy_graph():
    """Edge 3 is a loop at a 4-valent vertex, which edges 1 and 2 join."""
    return FatGraph([
        [oe(0, -1)],
        [oe(0, 1), oe(1, -1), oe(2, -1)],
        [oe(1, 1), oe(3, 1), oe(3, -1), oe(2, 1)],
    ], oe(0, 1))


def walsh_lehman(genus):
    """Rooted one-face cubic maps of genus g: 2(6g-3)! / (12^g g! (3g-2)!)
    (Walsh & Lehman, JCT B 1972)."""
    num = 2 * factorial(6 * genus - 3)
    den = 12 ** genus * factorial(genus) * factorial(3 * genus - 2)
    assert num % den == 0
    return num // den


class TestFlip:
    def test_preconditions(self, g1):
        with pytest.raises(FlipError):
            flip(g1, 0)  # the tail
        loopy = loopy_graph()
        with pytest.raises(FlipError):
            flip(loopy, 3)  # a loop edge
        with pytest.raises(FlipError):
            flip(loopy, 1)  # 4-valent endpoint

    def test_rejects_edges_not_in_graph(self, g1):
        # the error shows the argument as given
        for bad in NOT_EDGES:
            with pytest.raises(FlipError,
                               match=re.escape("no edge %r" % (bad,))):
                flip(g1, bad)
            assert not flippable(g1, bad)

    def test_missing_edge_named_by_orientation(self, g1):
        for bad, text in ((99, "99+"), (oe(99, -1), "99-")):
            with pytest.raises(FlipError, match=re.escape("no edge " + text)):
                flip(g1, bad)

    def test_all_reference_edges_flippable(self, g1):
        assert flippable_edges(g1) == [1, 2, 3, 4]
        assert not flippable(g1, 0)

    def test_flippable_agrees_with_flippable_edges(self):
        rng = random.Random(7)
        graphs = [random_graph(genus, rng) for genus in (1, 2, 3, 4)]
        graphs.append(loopy_graph())
        for g in graphs:
            ids = flippable_edges(g)
            for x in g.edge_ids() + [fresh_edge_id(g)]:
                assert flippable(g, x) is (x in ids)
                assert flippable(g, oe(x, -1)) is (x in ids)
        # every edge of the loopy graph but the tail meets its 4-valent vertex
        assert flippable_edges(graphs[-1]) == []
        for bad in NOT_EDGES:
            assert flippable(graphs[0], bad) is False

    def test_flip_preserves_shape(self, g1):
        for e in flippable_edges(g1):
            g, ctx = flip(g1, e)
            g.validate()
            assert g.num_vertices == g1.num_vertices
            assert g.num_edges == g1.num_edges
            assert g.boundary_number() == 1
            assert g.genus() == 1
            assert ctx.new_edge.edge not in g1.edge_ids()

    def test_quadrilateral_labels(self, g1):
        g, ctx = flip(g1, oe(1, 1))
        # head of 1+ is vertex 1 with order (0+, 1+, 3+... ) rotated;
        # successors of 1+ there are 3- then 0+
        assert (ctx.a, ctx.b) == (oe(3, -1), oe(0, 1))
        # head of 1- is vertex 3: successors of 1- are 2- then 4+
        assert (ctx.c, ctx.d) == (oe(2, -1), oe(4, 1))

    def test_orientation_choice_same_graph(self, g1):
        plus, _ = flip(g1, oe(2, 1))
        minus, _ = flip(g1, oe(2, -1))
        assert plus.canonical_key() == minus.canonical_key()

    def test_random_flips_preserve_invariants(self):
        rng = random.Random(6)
        for _ in range(20):
            genus = rng.randint(1, 3)
            g = random_graph(genus, rng, extra_flips=0)
            for _ in range(15):
                g, _ = flip(g, rng.choice(flippable_edges(g)))
                assert g.genus() == genus
                assert g.boundary_number() == 1


class TestRelationLoops:
    def test_involution_restores(self, g1):
        for e in flippable_edges(g1):
            path = involution_pair(g1, e)
            assert len(path) == 2
            assert path.is_closed()

    def test_involution_unoriented_correspondence(self, g1):
        path = involution_pair(g1, 1)
        iso_inv = {v: k for k, v in
                   canonical_iso(path.start, path.end).items()}
        corr = correspondence(path)
        for h in path.start.oriented_edges():
            # identity on unoriented edges through the canonical iso
            assert iso_inv[corr[h]].edge == h.edge

    def test_commuting_loop(self, g2):
        pairs = disjoint_flippable_pairs(g2)
        assert pairs
        for pair in pairs[:4]:
            path = commuting_loop(g2, *pair)
            assert len(path) == 4
            assert path.is_closed()

    def test_commuting_rejects_adjacent(self, g1):
        with pytest.raises(FlipError):
            commuting_loop(g1, 1, 3)

    def test_loops_reject_ids_that_are_not_ints(self, g1, g2):
        # int(1.5) would be edge 1, an edge of both graphs
        _, y = disjoint_flippable_pairs(g2)[0]
        with pytest.raises(FlipError, match="no edge 1.5"):
            commuting_loop(g2, 1.5, y)
        with pytest.raises(FlipError, match="no edge 1.5"):
            pentagon_path(g1, 1.5, 2)
        with pytest.raises(FlipError, match="no edge 1.5"):
            pentagon_path(g1, 2, 1.5)
        with pytest.raises(FlipError, match=re.escape("no edge 99+")):
            pentagon_path(g1, 1, 99)

    def test_commutation_both_orders(self, g2):
        x, y = disjoint_flippable_pairs(g2)[0]
        one = apply_path(g2, [x, y])
        other = apply_path(g2, [y, x])
        assert one.end.canonical_key() == other.end.canonical_key()

    def test_pentagon(self, g1):
        for pair in adjacent_flippable_pairs(g1):
            path = pentagon_path(g1, *pair)
            assert len(path) == 5
            assert path.is_closed()

    def test_loops_close_with_several_boundary_cycles(self, three_boundary):
        assert three_boundary.boundary_number() == 3
        assert involution_pair(three_boundary, 1).is_closed()
        assert pentagon_path(three_boundary, 1, 2).is_closed()

    def test_pentagon_rejects_disjoint(self, g2):
        x, y = disjoint_flippable_pairs(g2)[0]
        with pytest.raises(FlipError):
            pentagon_path(g2, x, y)

    def test_pentagon_matches_explicit_edges(self, g1):
        f, g = adjacent_flippable_pairs(g1)[0]
        path = pentagon_path(g1, f, g)
        edges = [ctx.edge.edge for ctx in path.steps]
        replay = apply_path(g1, edges)
        assert replay.end.canonical_key() == path.end.canonical_key()


class TestPaths:
    def test_empty_path(self, g1):
        path = apply_path(g1, [])
        assert len(path) == 0
        assert path.end is g1
        assert correspondence(path) == {h: h for h in g1.oriented_edges()}

    def test_step_error_reports_index(self, g1):
        with pytest.raises(PathStepError) as exc:
            apply_path(g1, [1, 0])
        assert exc.value.index == 1

    def test_explicit_involution(self, g1):
        first = apply_path(g1, [2])
        new_edge = first.steps[0].new_edge.edge
        closed = apply_path(g1, [2, new_edge])
        assert closed.is_closed()

    def test_reversed_path_inverts(self):
        from fatflip.randgen import random_flip_path
        rng = random.Random(8)
        g = standard_surface_graph(2)
        fwd = random_flip_path(g, 4, rng)
        back = reverse_path(fwd)
        assert back.end.canonical_key() == g.canonical_key()
        # composed correspondence is the identity on unoriented edges
        iso_inv = {v: k for k, v in canonical_iso(g, back.end).items()}
        corr_f = correspondence(fwd)
        corr_b = correspondence(back)
        for h in g.oriented_edges():
            assert iso_inv[corr_b[corr_f[h]]].edge == h.edge


class TestFlipContext:
    def test_fields_in_order(self):
        assert FlipContext._fields == ("edge", "a", "b", "c", "d",
                                       "new_edge")

    def test_positional_and_keyword_construction_agree(self, g1):
        _, ctx = flip(g1, 1)
        by_keyword = FlipContext(edge=ctx.edge, a=ctx.a, b=ctx.b, c=ctx.c,
                                 d=ctx.d, new_edge=ctx.new_edge)
        by_position = FlipContext(ctx.edge, ctx.a, ctx.b, ctx.c, ctx.d,
                                  ctx.new_edge)
        assert by_keyword == by_position == ctx
        # a named tuple: equal to the plain tuple of its fields
        assert ctx == (oe(1, 1), oe(3, -1), oe(0, 1), oe(2, -1), oe(4, 1),
                       oe(5, 1))

    def test_immutable_and_hashable(self, g1):
        _, ctx = flip(g1, 1)
        for field in FlipContext._fields:
            with pytest.raises(AttributeError):
                setattr(ctx, field, oe(7, 1))
        again = flip(g1, 1)[1]
        assert hash(again) == hash(ctx)
        assert {ctx, again} == {ctx}

    def test_apply_path_records_equal_single_flips(self):
        rng = random.Random(36)
        for genus in (1, 2, 3):
            start = random_graph(genus, rng)
            cur, edges, records = start, [], []
            for _ in range(20):
                e = rng.choice(flippable_edges(cur))
                cur, ctx = flip(cur, e)
                edges.append(e)
                records.append(ctx)
            path = apply_path(start, edges)
            assert path.steps == tuple(records)
            assert path.end == cur


class TestFlipGraph:
    @pytest.mark.parametrize("genus, classes, flips",
                             [(1, 1, 4), (2, 105, 1050)])
    def test_walsh_lehman_counts(self, genus, classes, flips):
        # the enumerator's classes and flips: every non-tail edge of a
        # trivalent one-boundary graph flips, 6g - 2 per class
        found = list(expand(genus))
        made = sum(len(ex.flips) for ex in found)
        assert all(f.target >= 0 for ex in found for f in ex.flips)
        want = walsh_lehman(genus)
        assert (len(found), made) == (want, want * (6 * genus - 2))
        assert (len(found), made) == (classes, flips)
