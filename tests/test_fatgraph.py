import random
import re

import pytest

from fatflip import fatgraph
from fatflip.fatgraph import (BoundaryNumberError, CorruptedStructureError,
                              DisconnectedGraphError, FatGraph, FatGraphError,
                              HalfEdgeStructureError, OrientedEdge,
                              UnivalentVertexError, ValenceError,
                              canonical_iso, oe)
from fatflip.flips import flip, flippable_edges, fresh_edge_id
from fatflip.randgen import (random_flip_path, random_graph,
                             standard_surface_graph)

# hand traversal of the g1 fixture (see conftest), starting at the tail
G1_BOUNDARY = ["0+", "1-", "2+", "4+", "1+", "3+", "2-", "4-", "3-", "0-"]


def shuffle_graph(graph, rng):
    """Random relabeling: new edge ids/signs, rotations, vertex order."""
    ids = graph.edge_ids()
    new_ids = ids[:]
    rng.shuffle(new_ids)
    fate = {}
    for old, new in zip(ids, new_ids):
        s = rng.choice((1, -1))
        fate[oe(old, 1)] = oe(new, s)
        fate[oe(old, -1)] = oe(new, -s)
    verts = []
    for v in graph.vertices:
        w = tuple(fate[h] for h in v)
        cut = rng.randrange(len(w))
        verts.append(w[cut:] + w[:cut])
    rng.shuffle(verts)
    return FatGraph(verts, fate[graph.tail])


def edge_key(h):
    return (h.edge, 0 if h.sign > 0 else 1)


def sorted_canonicalize(graph):
    """The sort-based canonical form, kept as an oracle for ``canonicalize``.

    Ranks come from a walk over a successor dict built from the vertex
    tuples; each edge is relabeled by its smaller rank, and the vertex
    tuples are rotated and sorted by edge key.
    """
    succ = {}
    for v in graph.vertices:
        for i, h in enumerate(v):
            succ[h] = v[(i + 1) % len(v)].rev
    rank, h = {}, graph.tail
    while h not in rank:
        rank[h] = len(rank)
        h = succ[h]
    assert len(rank) == len(succ)
    relabel = {}
    for x in graph.edge_ids():
        plus, minus = oe(x, 1), oe(x, -1)
        rp, rm = rank[plus], rank[minus]
        relabel[plus] = oe(min(rp, rm), 1 if rp < rm else -1)
        relabel[minus] = relabel[plus].rev
    verts = []
    for v in graph.vertices:
        w = tuple(relabel[h] for h in v)
        k = min(range(len(w)), key=lambda i: edge_key(w[i]))
        verts.append(w[k:] + w[:k])
    verts.sort(key=lambda w: tuple(edge_key(h) for h in w))
    return FatGraph(verts, relabel[graph.tail]), relabel


def rose(genus):
    """The tailed rose: the tail vertex and one vertex (0+, x1, y1, ~x1,
    ~y1, ...) of valence 4g + 1, with x_k = 2k - 1 and y_k = 2k."""
    row = [oe(0, 1)]
    for k in range(1, genus + 1):
        x, y = 2 * k - 1, 2 * k
        row += [oe(x, 1), oe(y, 1), oe(x, -1), oe(y, -1)]
    return FatGraph([[oe(0, -1)], row], oe(0, 1))


def split_roses():
    """One-boundary graphs with a 4- or 5-valent vertex, each a rose whose
    big vertex is split by hand into two or three along new edges."""
    return [
        FatGraph([[oe(0, -1)], [oe(0, 1), oe(1, 1), oe(3, 1)],
                  [oe(3, -1), oe(2, 1), oe(1, -1), oe(2, -1)]], oe(0, 1)),
        FatGraph([[oe(0, -1)], [oe(0, 1), oe(1, 1), oe(2, 1), oe(3, 1)],
                  [oe(3, -1), oe(1, -1), oe(2, -1)]], oe(0, 1)),
        FatGraph([[oe(0, -1)],
                  [oe(0, 1), oe(1, 1), oe(2, 1), oe(1, -1), oe(5, 1)],
                  [oe(5, -1), oe(2, -1), oe(3, 1), oe(4, 1), oe(3, -1),
                   oe(4, -1)]], oe(0, 1)),
        FatGraph([[oe(0, -1)], [oe(0, 1), oe(1, 1), oe(2, 1), oe(5, 1)],
                  [oe(5, -1), oe(1, -1), oe(2, -1), oe(3, 1), oe(6, 1)],
                  [oe(6, -1), oe(4, 1), oe(3, -1), oe(4, -1)]], oe(0, 1)),
    ]


def tail_star(leaves):
    """The tree whose tail vertex has one neighbour, joined to ``leaves``
    univalent leaves: rows (0-), (0+, 1-, ..., k-), (1+), ..., (k+)."""
    hub = [oe(0, 1)] + [oe(x, -1) for x in range(1, leaves + 1)]
    return FatGraph([[oe(0, -1)], hub]
                    + [[oe(x, 1)] for x in range(1, leaves + 1)], oe(0, 1))


def tail_path(length):
    """The path of ``length`` edges after the tail, 2-valent inside:
    rows (0-), (0+, 1-), ..., (k-1+, k-), (k+)."""
    return FatGraph([[oe(0, -1)]]
                    + [[oe(x, 1), oe(x + 1, -1)] for x in range(length)]
                    + [[oe(length, 1)]], oe(0, 1))


def path_graphs(path):
    """Every graph a flip path passes through after its start, in order."""
    cur, out = path.start, []
    for ctx in path.steps:
        cur, _ = flip(cur, ctx.edge)
        out.append(cur)
    assert cur == path.end
    return out


class TestStructure:
    def test_reference_is_valid(self, g1):
        g1.validate()
        assert g1.num_vertices == 4
        assert g1.num_edges == 5

    def test_two_univalent_vertices(self):
        g = FatGraph([[oe(0, -1)], [oe(0, 1)]], oe(0, 1))
        with pytest.raises(UnivalentVertexError):
            g.validate()

    def test_bivalent_vertex(self):
        g = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, -1), oe(2, -1)],
            [oe(1, 1), oe(2, 1)],
        ], oe(0, 1))
        with pytest.raises(ValenceError):
            g.validate()

    def test_tree_fails_validation(self, tree):
        with pytest.raises(UnivalentVertexError):
            tree.validate()

    def test_duplicate_half_edge(self):
        with pytest.raises(HalfEdgeStructureError):
            FatGraph([[oe(0, 1)], [oe(0, 1), oe(0, -1)]], oe(0, 1))

    def test_missing_reverse(self):
        with pytest.raises(HalfEdgeStructureError):
            FatGraph([[oe(0, 1)], [oe(1, 1), oe(1, -1), oe(2, 1)]], oe(0, 1))

    def test_disconnected(self):
        g = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, 1), oe(1, -1)],
            [oe(2, 1), oe(2, -1), oe(3, 1), oe(3, -1)],
        ], oe(0, 1))
        with pytest.raises(DisconnectedGraphError) as err:
            g.validate()
        assert str(err.value) == "only 2 of 3 vertices reachable"

    @pytest.mark.parametrize("bad", [
        OrientedEdge(0, 2), OrientedEdge(0, 0), OrientedEdge(0, True),
        OrientedEdge(0, 1.0), OrientedEdge(-1, 1), OrientedEdge(True, 1),
        OrientedEdge(1.0, 1), OrientedEdge("0", 1)])
    def test_half_edge_id_and_sign(self, bad):
        # under int codes a sign of 2 or an id of True would pass for
        # another half-edge, so the constructor names it instead
        verts = [[oe(5, -1)], [oe(5, 1), oe(6, 1), oe(6, -1), bad]]
        with pytest.raises(HalfEdgeStructureError,
                           match=re.escape("half-edge (%r, %r) needs" % bad)):
            FatGraph(verts, oe(5, 1))

    @pytest.mark.parametrize("tail", [OrientedEdge(0, 2), OrientedEdge(0, 0),
                                      OrientedEdge(-1, 1), OrientedEdge(7, 1)])
    def test_tail_not_a_half_edge(self, g1, tail):
        with pytest.raises(HalfEdgeStructureError, match="not a half-edge"):
            FatGraph(g1.vertices, tail)

    def test_huge_edge_ids(self, g1):
        # decoding goes through a bounded cache, so a huge id costs no
        # table of its size
        big = 10 ** 12
        shift = {h: oe(h.edge + big, h.sign) for h in g1.oriented_edges()}
        g = FatGraph([[shift[h] for h in v] for v in g1.vertices],
                     shift[g1.tail])
        assert g.vertices == tuple(tuple(shift[h] for h in v)
                                   for v in g1.vertices)
        assert g.tail == oe(big, 1)
        assert g.canonical_key() == g1.canonical_key()
        flipped, ctx = flip(g, big + 1)
        assert ctx.new_edge == oe(big + 5, 1)
        assert flipped.canonical_key() == flip(g1, 1)[0].canonical_key()
        info = fatgraph._decode.cache_info()
        assert info.currsize <= info.maxsize == 1 << 15

    @pytest.mark.parametrize("h, text", [
        (oe(99, 1), "99+"), (oe(99, -1), "99-"), ((99, 1), "99+"),
        (OrientedEdge(1, 2), "OrientedEdge(edge=1, sign=2)"),
        (OrientedEdge("x", 1), "OrientedEdge(edge='x', sign=1)"),
        ((1.5, 1), "(1.5, 1)"), (1, "1")])
    def test_accessors_name_what_is_not_a_half_edge(self, g1, h, text):
        # a well-formed half-edge is named x+ or x-, anything else as given
        for accessor in (g1.vertex_of, g1.successor):
            with pytest.raises(HalfEdgeStructureError,
                               match=re.escape("no half-edge %s" % text)):
                accessor(h)

    @pytest.mark.parametrize("sign", ["+", "-", 0, 2, 1.0, True])
    def test_oe_takes_only_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="direction flag"):
            oe(1, sign)

    @pytest.mark.parametrize("edge", [1.5, -1, True, "1"])
    def test_oe_takes_only_an_int_id_from_zero(self, edge):
        with pytest.raises(ValueError, match=re.escape(
                "edge id must be an int >= 0, not %r" % (edge,))):
            oe(edge)

    def test_tail_into_wrong_vertex(self):
        g = FatGraph([
            [oe(0, 1)],
            [oe(0, -1), oe(1, 1), oe(1, -1)],
        ], oe(0, 1))
        with pytest.raises(UnivalentVertexError):
            g.validate()


class TestDecodeCache:
    def test_bounded_exact_and_shared(self):
        decode, size = fatgraph._decode, 1 << 15
        codes = [*range(size + 100), *range(2 * 10 ** 12, 2 * 10 ** 12 + 10)]
        for c in codes:
            assert decode(c) == OrientedEdge(c >> 1, -1 if c & 1 else 1)
        assert decode.cache_info().currsize <= size
        # code 0 has been evicted: it is decoded afresh, to an equal value
        misses = decode.cache_info().misses
        assert decode(0) == OrientedEdge(0, 1)
        assert decode.cache_info().misses == misses + 1
        # two reads of a graph share their oriented edges
        g = random_graph(4, random.Random(4))
        first, second = g.vertices, g.vertices
        assert all(h is k for v, w in zip(first, second)
                   for h, k in zip(v, w))


class TestBoundary:
    def test_reference_cycle_frozen(self, g1):
        cycles = g1.boundary_cycles()
        assert len(cycles) == 1
        assert [str(h) for h in cycles[0]] == G1_BOUNDARY

    def test_reference_genus(self, g1):
        assert g1.boundary_number() == 1
        assert g1.genus() == 1

    def test_reversed_vertex_splits_boundary(self, g1):
        # reversing one cyclic order drops the genus: 3 cycles, by hand
        verts = list(g1.vertices)
        verts[2] = tuple(reversed(verts[2]))
        g = FatGraph(verts, g1.tail)
        cycles = g.boundary_cycles()
        assert len(cycles) == 3
        assert g.genus() == 0

    def test_tree_is_a_disk(self, tree):
        assert tree.boundary_number() == 1
        assert tree.genus() == 0

    def test_partition_property(self, g1, g2):
        for g in (g1, g2):
            cycles = g.boundary_cycles()
            seen = [h for c in cycles for h in c]
            assert len(seen) == 2 * g.num_edges
            assert len(set(seen)) == len(seen)

    def test_oracle_face_count(self, g2):
        # independent face count: orbits of sigma followed by reversal,
        # starting from the raw permutation dictionaries
        sigma = {}
        for v in g2.vertices:
            for i, h in enumerate(v):
                sigma[h] = v[(i + 1) % len(v)]
        nxt = {h: sigma[h].rev for h in sigma}
        seen = set()
        count = 0
        for h in nxt:
            if h in seen:
                continue
            count += 1
            while h not in seen:
                seen.add(h)
                h = nxt[h]
        assert count == g2.boundary_number()

    def test_standard_genus2(self, g2):
        g2.validate()
        assert (g2.num_vertices, g2.num_edges) == (8, 11)
        assert g2.boundary_number() == 1
        assert g2.genus() == 2

    def test_boundary_order(self, g1):
        order = g1.boundary_order()
        assert order[g1.tail] == 0
        assert sorted(order.values()) == list(range(10))

    def test_boundary_order_needs_one_cycle(self, g1):
        verts = list(g1.vertices)
        verts[2] = tuple(reversed(verts[2]))
        with pytest.raises(BoundaryNumberError):
            FatGraph(verts, g1.tail).boundary_order()

    def test_one_walk_for_boundary_number_and_genus(self, g2, monkeypatch):
        walks = []
        cycles = FatGraph.boundary_cycles
        monkeypatch.setattr(FatGraph, "boundary_cycles",
                            lambda self: walks.append(self) or cycles(self))
        g = FatGraph(g2.vertices, g2.tail)
        for _ in range(2):
            assert (g.boundary_number(), g.genus()) == (1, 2)
        assert len(walks) == 1

    def test_genus_bookkeeping_error_on_disconnected(self):
        # planar extra components read 2g < 0 by Euler: connectivity is
        # checked first, so the error names what is wrong
        three = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, 1), oe(1, -1)],
            [oe(2, 1), oe(2, -1), oe(3, 1), oe(3, -1)],
        ], oe(0, 1))
        four = FatGraph([[oe(0, -1)], [oe(0, 1)], [oe(1, 1)], [oe(1, -1)]],
                        oe(0, 1))
        for g, message in ((three, "only 2 of 3 vertices reachable"),
                           (four, "only 2 of 4 vertices reachable")):
            with pytest.raises(DisconnectedGraphError) as err:
                g.genus()
            assert str(err.value) == message

    def test_genus_of_a_disconnected_graph_is_refused(self, g1):
        # a genus-1 theta beside g1: 2 - b - V + E = 2 would read genus 1
        g = FatGraph(list(g1.vertices) + [[oe(5, 1), oe(6, 1), oe(7, 1)],
                                          [oe(5, -1), oe(6, -1), oe(7, -1)]],
                     g1.tail)
        with pytest.raises(DisconnectedGraphError) as err:
            g.genus()
        assert str(err.value) == "only 4 of 6 vertices reachable"

    def test_disconnected_refusal_is_not_kept(self, g1):
        # the graph keeps its tail tree, which is short here, so the
        # length test fails again on every call
        g = FatGraph(list(g1.vertices) + [[oe(5, 1), oe(6, 1), oe(7, 1)],
                                          [oe(5, -1), oe(6, -1), oe(7, -1)]],
                     g1.tail)
        for _ in range(3):
            for check in (g.genus, g.validate):
                with pytest.raises(DisconnectedGraphError) as err:
                    check()
                assert str(err.value) == "only 4 of 6 vertices reachable"
        assert len(g._spanning_tree()[0]) == 3


class TestCanonical:
    def test_idempotent(self, g1):
        c1, _ = g1.canonicalize()
        c2, _ = c1.canonicalize()
        assert c1 == c2

    def test_relabeling_collides(self, g1, g2):
        rng = random.Random(4)
        for g in (g1, g2):
            key = g.canonical_key()
            for _ in range(25):
                assert shuffle_graph(g, rng).canonical_key() == key

    def test_structural_edit_differs(self, g2):
        # flipping edge 1 of the standard genus-2 graph lands in a
        # different isomorphism class (checked once, frozen here)
        from fatflip.flips import flip
        flipped, _ = flip(g2, 1)
        assert flipped.boundary_number() == 1
        assert flipped.canonical_key() != g2.canonical_key()

    def test_invariants_under_relabeling(self, g2):
        rng = random.Random(13)
        for _ in range(20):
            h = shuffle_graph(g2, rng)
            assert h.genus() == g2.genus()
            assert h.boundary_number() == g2.boundary_number()

    def test_canonical_iso_roundtrip(self, g2):
        rng = random.Random(2)
        h = shuffle_graph(g2, rng)
        iso = canonical_iso(g2, h)
        assert set(iso) == set(g2.oriented_edges())
        assert set(iso.values()) == set(h.oriented_edges())
        # incidence preserved: iso respects vertices up to rotation
        for v in g2.vertices:
            image_vertex = h.vertices[h.vertex_of(iso[v[0]])]
            assert set(iso[x] for x in v) == set(image_vertex)


def relabeling_iso(src, dst):
    """The composite of the two canonical relabelings (one boundary only)."""
    c_src, m_src = src.canonicalize()
    c_dst, m_dst = dst.canonicalize()
    assert c_src == c_dst
    back = {v: k for k, v in m_dst.items()}
    return {h: back[m_src[h]] for h in m_src}


class TestCanonicalIso:
    def test_matches_relabeling_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng.randint(1, 3), rng)
            h = shuffle_graph(g, rng)
            assert canonical_iso(g, h) == relabeling_iso(g, h)

    def test_rejects_different_keys(self):
        rng = random.Random(24)
        rejected = 0
        for _ in range(30):
            g = random_graph(rng.randint(1, 3), rng)
            flipped, _ = flip(g, rng.choice(flippable_edges(g)))
            for other in (flipped, random_graph(rng.randint(1, 3), rng)):
                if other.canonical_key() != g.canonical_key():
                    with pytest.raises(FatGraphError):
                        canonical_iso(g, shuffle_graph(other, rng))
                    rejected += 1
        assert rejected > 30

    def test_rejects_extra_component(self):
        part = [[oe(0, -1)], [oe(0, 1), oe(1, 1), oe(1, -1)]]
        whole = FatGraph(part + [[oe(2, 1), oe(2, -1)]], oe(0, 1))
        part = FatGraph(part, oe(0, 1))
        for src, dst in ((part, whole), (whole, part)):
            with pytest.raises(FatGraphError):
                canonical_iso(src, dst)

    def test_several_boundary_cycles(self, three_boundary):
        rng = random.Random(25)
        for _ in range(10):
            h = shuffle_graph(three_boundary, rng)
            iso = canonical_iso(three_boundary, h)
            assert sorted(iso.values()) == sorted(h.oriented_edges())
            for x in three_boundary.oriented_edges():
                assert iso[x.rev] == iso[x].rev
                assert iso[three_boundary.successor(x)] == \
                    h.successor(iso[x])


class TestCanonicalOracle:
    """``canonicalize`` against the sort-based oracle, and the trusted
    half-edge index against the one the checked constructor builds."""

    @staticmethod
    def assert_matches_oracle(graph):
        got, relabel = graph.canonicalize()
        want, want_relabel = sorted_canonicalize(graph)
        assert got == want
        assert relabel == want_relabel == canonical_iso(graph, got)
        assert dict(relabel) == want_relabel

    @staticmethod
    def assert_index_rebuilds(graph):
        rebuilt = FatGraph(graph.vertices, graph.tail)
        assert rebuilt == graph
        assert hash(rebuilt) == hash(graph)
        assert rebuilt._rows == graph._rows
        assert rebuilt._tail == graph._tail
        assert rebuilt._index() == graph._index()
        assert rebuilt._fresh == graph._fresh
        assert fresh_edge_id(graph) == max(graph.edge_ids()) + 1

    def test_random_graphs_and_relabelings(self):
        rng = random.Random(31)
        for genus in (1, 2, 3, 4):
            for _ in range(6):
                g = random_graph(genus, rng)
                self.assert_matches_oracle(g)
                for _ in range(3):
                    self.assert_matches_oracle(shuffle_graph(g, rng))

    def test_along_flip_paths(self):
        rng = random.Random(32)
        for genus in (1, 2, 3, 4):
            path = random_flip_path(random_graph(genus, rng), 50, rng)
            for g in path_graphs(path):
                self.assert_matches_oracle(g)

    def test_flip_and_canonical_index_rebuild(self):
        rng = random.Random(33)
        for genus in (1, 2, 3, 4):
            path = random_flip_path(random_graph(genus, rng), 50, rng)
            for g in path_graphs(path):
                self.assert_index_rebuilds(g)
                self.assert_index_rebuilds(g.canonicalize()[0])

    def test_canonical_form_builds_its_index_on_first_use(self, g2):
        canon, _ = flip(g2, 1)[0].canonicalize()
        assert canon._succ is None and canon._vert is None
        assert canon == FatGraph(canon.vertices, canon.tail)
        assert canon._succ is None
        self.assert_index_rebuilds(canon)
        assert canon._index()[0] is canon._index()[0] is canon._succ

    def test_keys_over_the_genus2_flip_graph(self):
        # the full genus-2 flip graph: the key is distinct per class,
        # equals the key of the canonical form and splits the graphs
        # into the same classes as the sort-based oracle
        start = standard_surface_graph(2)
        key = start.canonical_key()
        classes = {key: start.canonicalize()[0]}
        oracle = {key: sorted_canonicalize(start)[0]}
        queue = [classes[key]]
        for g in queue:
            for e in flippable_edges(g):
                neighbour, _ = flip(g, e)
                key = neighbour.canonical_key()
                canon, _ = neighbour.canonicalize()
                assert key == canon.canonical_key() == canon._rows
                want, _ = sorted_canonicalize(neighbour)
                if key in oracle:
                    assert oracle[key] == want
                else:
                    oracle[key], classes[key] = want, canon
                    queue.append(canon)
        assert len(classes) == 105
        assert len(set(oracle.values())) == len(set(classes.values())) == 105
        assert all(classes[k] == oracle[k] for k in classes)

    def test_several_boundary_cycles_rejected(self, three_boundary):
        with pytest.raises(BoundaryNumberError, match="got 3"):
            three_boundary.canonicalize()

    def test_general_rows(self):
        # the other tests of this class feed graphs that are trivalent
        # apart from the tail vertex
        rng = random.Random(34)
        graphs = [rose(genus) for genus in (1, 2, 3, 4)] + split_roses()
        assert {len(v) for g in graphs for v in g.vertices} >= {4, 5, 17}
        for g in graphs:
            g.validate()
            assert g.boundary_number() == 1
            for h in [g] + [shuffle_graph(g, rng) for _ in range(4)]:
                self.assert_matches_oracle(h)
                assert h.canonical_key() == sorted_canonicalize(h)[0]._rows

    def test_one_boundary_trees(self):
        # leaves are univalent rows other than the tail's and inner path
        # vertices are 2-valent; trees fail validate(), so they are kept
        # out of test_general_rows
        rng = random.Random(36)
        graphs = ([tail_star(k) for k in (1, 2, 3, 5)]
                  + [tail_path(k) for k in (1, 2, 3, 6)])
        assert {len(v) for g in graphs for v in g.vertices} >= {1, 2, 3, 4, 6}
        for g in graphs:
            assert g.boundary_number() == 1
            assert sum(len(v) == 1 for v in g.vertices) >= 2
            for h in [g] + [shuffle_graph(g, rng) for _ in range(4)]:
                self.assert_matches_oracle(h)
                assert h.canonical_key() == sorted_canonicalize(h)[0]._rows

    def test_several_boundary_cycles_have_no_key(self, three_boundary):
        with pytest.raises(BoundaryNumberError, match="got 3"):
            three_boundary.canonical_key()

    @pytest.mark.parametrize("method", ["canonicalize", "canonical_key"])
    def test_open_tail_walk(self, g1, method):
        graph = FatGraph(g1.vertices, g1.tail)
        succ = graph._index()[0]
        # the walk from the tail 0+ goes on to c; from then on it stays at c
        c = succ[graph._tail] ^ 1
        succ[c] = c ^ 1
        with pytest.raises(CorruptedStructureError,
                           match=r"^boundary walk from 0\+ does not close$"):
            getattr(graph, method)()


class TestRelabelView:
    """The relabeling from ``canonicalize`` is a read-only mapping over the
    code table; the oracle tests above compare it with the dict."""

    def test_reads_like_a_dict(self):
        rng = random.Random(35)
        for genus in (1, 2, 3, 4):
            g = shuffle_graph(random_graph(genus, rng), rng)
            canon, relabel = g.canonicalize()
            assert len(relabel) == 2 * g.num_edges
            assert sorted(relabel) == sorted(g.oriented_edges())
            assert sorted(relabel.values()) == sorted(canon.oriented_edges())
            assert relabel[g.tail] == relabel.get(g.tail) == oe(0, 1)
            h = g.oriented_edges()[-1]
            assert relabel.get(tuple(h)) == relabel[h.rev].rev
            assert dict(relabel.items()) == dict(relabel)

    def test_foreign_keys_are_missing(self, g1):
        _, relabel = g1.canonicalize()
        assert oe(1, -1) in relabel and (1, -1) in relabel
        for key in (1, (1, 2), (1, 0), (1, "+"), (-1, 1), (5, 1), oe(99),
                    (1, 1, 1), "1+", None):
            assert key not in relabel
            assert relabel.get(key) is None
            with pytest.raises(KeyError):
                relabel[key]

    def test_read_only(self, g1):
        _, relabel = g1.canonicalize()
        with pytest.raises(TypeError):
            relabel[oe(1)] = oe(2)
        with pytest.raises(TypeError):
            del relabel[oe(1)]
        with pytest.raises(AttributeError):
            relabel.update({})

    def test_canonicalize_decodes_nothing(self, monkeypatch):
        # the relabeling is decoded when it is read, not by canonicalize
        rng = random.Random(36)
        graphs = [random_graph(genus, rng) for genus in (1, 2, 3, 4)]
        graphs += [shuffle_graph(g, rng) for g in graphs]
        wants = [sorted_canonicalize(g) for g in graphs]

        def fail(*args):
            raise AssertionError("canonicalize decoded an oriented edge")
        monkeypatch.setattr(fatgraph, "_decode", fail)
        got = [g.canonicalize() for g in graphs]
        assert [canon._rows for canon, _ in got] == \
            [g.canonical_key() for g in graphs]
        monkeypatch.undo()
        for (canon, relabel), (want, want_relabel) in zip(got, wants):
            assert canon == want
            assert dict(relabel) == want_relabel
