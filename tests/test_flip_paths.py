"""Flip paths against the step-by-step fold of ``flip``.

``apply_path`` and ``random_flip_path`` copy their start graph once and
flip the copy in place, and ``random_flip_path`` keeps the sorted
flippable ids from step to step.  The loops they replaced, which built a
new graph after every flip and listed the flippable edges before every
draw, are kept here as oracles.
"""

import random
import re

import pytest

from fatflip.fatgraph import FatGraph, FatGraphError, OrientedEdge, oe
from fatflip.flips import (FlipError, PathStepError, _walk,
                           adjacent_flippable_pairs, apply_path,
                           commuting_loop, disjoint_flippable_pairs, flip,
                           flippable_edges, involution_pair, pentagon_path,
                           replay_path, reverse_path)
from fatflip.randgen import random_flip_path, random_graph, rose_vertices


def fold(graph, edges):
    """The end graph and the steps of ``edges``, one new graph per flip."""
    cur, steps = graph, []
    for i, e in enumerate(edges):
        try:
            cur, ctx = flip(cur, e)
        except FlipError as err:
            raise PathStepError(i, err) from err
        steps.append(ctx)
    return cur, tuple(steps)


def drawn(graph, steps, rng):
    """The random path loop: list the flippable edges before each draw."""
    cur, ctxs = graph, []
    for _ in range(steps):
        cur, ctx = flip(cur, rng.choice(flippable_edges(cur)))
        ctxs.append(ctx)
    return cur, tuple(ctxs)


def kept(graph):
    """Copies of what a graph stores: its rows and its half-edge index."""
    succ, vert = graph._index()
    return graph._rows, dict(succ), dict(vert)


def same_end(end, oracle):
    assert (end._rows, end._tail, end._fresh) == (
        oracle._rows, oracle._tail, oracle._fresh)
    # the kept index is the one a fresh build gives
    fresh = FatGraph(end.vertices, end.tail)
    assert end._index() == fresh._index()
    assert end._fresh == fresh._fresh


def partly_split(genus, splits, rng):
    """The rose with its tail, split only ``splits`` times: a big vertex
    beside trivalent ones, so edges turn flippable and back as they move
    between vertices of different valence."""
    verts = [[oe(0, -1)], [oe(0, 1)] + rose_vertices(genus)]
    next_id = 2 * genus + 1
    for _ in range(splits):
        vi = rng.choice([i for i, v in enumerate(verts) if len(v) > 3])
        cut = rng.randrange(len(verts[vi]))
        v = verts[vi][cut:] + verts[vi][:cut]
        verts[vi] = [v[0], v[1], oe(next_id)]
        verts.insert(vi + 1, [oe(next_id, -1)] + v[2:])
        next_id += 1
    return FatGraph(verts, oe(0, 1))


def random_cubic(n, rng):
    """A connected tailed graph on n trivalent vertices (n odd) from a
    random matching of their half-edges: loops, bigons and several
    boundary cycles included, so a flip can make an edge a loop or undo
    one."""
    while True:
        slots = [(0, 0)] + [(v, k) for v in range(1, n + 1) for k in range(3)]
        rest = slots[1:]
        rng.shuffle(rest)
        pairs = [(slots[0], rest[0])] + list(zip(rest[1::2], rest[2::2]))
        verts = [[None] * (1 if v == 0 else 3) for v in range(n + 1)]
        for x, ((v, i), (w, j)) in enumerate(pairs):
            verts[v][i], verts[w][j] = oe(x, -1), oe(x, 1)
        graph = FatGraph(verts, oe(0, 1))
        try:
            graph.validate()
        except FatGraphError:
            continue
        return graph


def start_graphs():
    rng = random.Random(34)
    for genus in range(1, 9):
        yield random_graph(genus, rng)
    for genus, splits in ((2, 4), (3, 8), (4, 11)):
        yield partly_split(genus, splits, rng)
    for n in (5, 7, 9, 15, 25, 41):
        yield random_cubic(n, rng)


class TestApplyPath:
    @pytest.mark.parametrize("genus", range(1, 9))
    def test_equals_the_fold_of_flip(self, genus):
        rng = random.Random(genus)
        graph = random_graph(genus, rng)
        before = kept(graph)
        _, steps = drawn(graph, 40, rng)
        # mixed edge arguments: plain ids and either orientation
        edges = [c.edge if i % 3 else c.edge.edge if i % 2 else c.edge.rev
                 for i, c in enumerate(steps)]
        path = apply_path(graph, edges)
        end, oracle_steps = fold(graph, edges)
        assert path.start is graph
        assert path.steps == oracle_steps
        same_end(path.end, end)
        assert kept(graph) == before

    def test_equals_the_fold_on_every_relation_loop(self, g1, g2,
                                                    three_boundary):
        loops = []
        g3 = random_graph(3, random.Random(3))
        for graph in (g1, g2, three_boundary, g3):
            loops += [involution_pair(graph, e)
                      for e in flippable_edges(graph)]
            loops += [pentagon_path(graph, f, g)
                      for f, g in adjacent_flippable_pairs(graph)]
            loops += [commuting_loop(graph, e1, e2)
                      for e1, e2 in disjoint_flippable_pairs(graph)[:5]]
        assert len(loops) > 30
        for loop in loops:
            edges = [c.edge for c in loop.steps]
            end, steps = fold(loop.start, edges)
            assert loop.steps == steps
            same_end(loop.end, end)
            back = reverse_path(loop)
            end, steps = fold(loop.end, [c.edge for c in back.steps])
            assert back.steps == steps
            same_end(back.end, end)

    @pytest.mark.parametrize("bad", [0, 99, OrientedEdge(3, 2), "x"])
    def test_a_failing_step_matches_the_fold(self, bad):
        rng = random.Random(5)
        for genus in (1, 2, 3):
            graph = random_graph(genus, rng)
            before = kept(graph)
            _, steps = drawn(graph, 6, rng)
            for i in (0, 3, 6):
                edges = [c.edge for c in steps[:i]] + [bad, 1]
                with pytest.raises(PathStepError) as got:
                    apply_path(graph, edges)
                with pytest.raises(PathStepError) as want:
                    fold(graph, edges)
                assert got.value.index == want.value.index == i
                assert str(got.value) == str(want.value)
                assert type(got.value.cause) is type(want.value.cause)
                assert kept(graph) == before

    def test_loops_and_valence_failures_match_the_fold(self):
        # edge 3 is a loop at a 4-valent vertex; edges 1 and 2 touch it
        loopy = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, -1), oe(2, -1)],
            [oe(1, 1), oe(3, 1), oe(3, -1), oe(2, 1)],
        ], oe(0, 1))
        before = kept(loopy)
        for e in (3, 1, oe(2, -1)):
            with pytest.raises(PathStepError) as got:
                apply_path(loopy, [e])
            with pytest.raises(PathStepError) as want:
                fold(loopy, [e])
            assert str(got.value) == str(want.value)
        assert kept(loopy) == before


class TestRandomFlipPath:
    @pytest.mark.parametrize("steps", [-1, 0, 1, 2, 7, 200])
    def test_draws_what_the_listing_loop_draws(self, steps):
        for k, graph in enumerate(start_graphs()):
            before = kept(graph)
            rng, oracle_rng = random.Random(k), random.Random(k)
            path = random_flip_path(graph, steps, rng)
            end, oracle_steps = drawn(graph, steps, oracle_rng)
            assert path.steps == oracle_steps
            same_end(path.end, end)
            # the same draws, so the same generator state after them
            assert rng.getstate() == oracle_rng.getstate()
            assert kept(graph) == before
            if steps <= 0:
                assert path.end is graph

    def test_kept_ids_equal_flippable_edges_after_every_step(self):
        for k, graph in enumerate(start_graphs()):
            rng = random.Random(100 + k)
            ids = flippable_edges(graph)
            lists = []

            def draw(i):
                lists.append(list(ids))
                return rng.choice(ids)

            path = _walk(graph, draw, 60, ids)
            cur = graph
            for i, ctx in enumerate(path.steps):
                assert lists[i] == flippable_edges(cur)
                cur, _ = flip(cur, ctx.edge)
            assert len(lists) == 60

    def test_a_graph_with_no_flippable_edge_raises_flip_error(self):
        # edges 1 and 2 are loops at the 5-valent vertex, 0 is the tail
        graph = FatGraph([[oe(0, -1)],
                          [oe(0, 1), oe(1, 1), oe(2, 1), oe(1, -1),
                           oe(2, -1)]], oe(0, 1))
        with pytest.raises(FlipError,
                           match=r"^the graph has no flippable edge$"):
            random_flip_path(graph, 3, random.Random(1))
        for steps in (0, -1):
            path = random_flip_path(graph, steps, random.Random(1))
            assert path.end is graph and not path.steps


class TestReplayPath:
    def test_a_move_without_translation_names_its_index_and_id(self):
        graph = random_graph(2, random.Random(1))
        with pytest.raises(PathStepError,
                           match=r"^step 0: edge 99 has no translation$"):
            replay_path(graph, [(99, 100)], {})
        x = flippable_edges(graph)[0]
        with pytest.raises(PathStepError) as err:
            replay_path(graph, [(x, 50), (50, 51), (98, 52)], {x: x})
        assert err.value.index == 2
        assert isinstance(err.value.cause, FlipError)
        assert str(err.value) == "step 2: edge 98 has no translation"

    def test_an_unknown_move_id_is_named_as_given(self):
        graph = random_graph(1, random.Random(1))
        with pytest.raises(PathStepError,
                           match=re.escape("step 0: edge 'a' has no "
                                           "translation")):
            replay_path(graph, [("a", 9)], {})
