import collections
import gc
import importlib.resources
import itertools
import operator
import random
import re

import pytest

from fatflip import intlinalg
from fatflip.abelian import KElement, RankMismatchError, Wedge3, wedge3
from fatflip.fatgraph import (BoundaryNumberError, DisconnectedGraphError,
                              FatGraph, OrientedEdge, _decode, _pattern,
                              canonical_iso, oe)
from fatflip.flips import flip, flippable_edges, involution_pair
from fatflip.graphio import parse_graph
from fatflip.markings import (CoherenceError, InversionError, Marking,
                              MarkingDomainError, MarkingError,
                              SurjectivityError, SymplecticForm, _fill,
                              canonical_h_marking, check_marking,
                              is_topological_h, propagate, propagate_path)
from fatflip.randgen import (random_coherent_marking, random_flip_path,
                             random_gl, random_graph)
from fatflip.selftest import SelfTestFailure, check_topological_path
from test_fatgraph import rose, split_roses


def k(*coords):
    return KElement(coords)


def reference_marking(g1):
    """The hand marking of the g1 fixture: loops 1, 2 carry the basis."""
    return Marking(2, {
        oe(0, 1): k(0, 0),
        oe(1, 1): k(0, 1),
        oe(2, 1): k(1, 0),
        oe(3, 1): k(0, 1),
        oe(4, 1): k(1, 1),
    })


class TestAxioms:
    def test_reference_marking_passes(self, g1):
        check_marking(g1, reference_marking(g1))

    def test_all_zero_fails_surjectivity(self, g1):
        zero = Marking(2, {oe(x, 1): k(0, 0) for x in g1.edge_ids()})
        with pytest.raises(SurjectivityError) as exc:
            check_marking(g1, zero)
        assert str(exc.value) == ("values span a subgroup of rank 0 with "
                                  "invariants [] in Z^2")

    def test_inversion_enforced_at_construction(self):
        with pytest.raises(InversionError):
            Marking(2, {oe(1, 1): k(1, 0), oe(1, -1): k(1, 0)})

    def test_coherence_reports_vertex(self, g1):
        bad = Marking(2, {
            oe(0, 1): k(0, 0),
            oe(1, 1): k(0, 1),
            oe(2, 1): k(1, 0),
            oe(3, 1): k(0, 1),
            oe(4, 1): k(1, 2),
        })
        with pytest.raises(CoherenceError) as exc:
            check_marking(g1, bad)
        assert str(exc.value) == "vertex 2 sums to 0 -1"

    def test_proper_subgroup_fails(self, g1):
        doubled = reference_marking(g1).transform([[2, 0], [0, 1]])
        with pytest.raises(SurjectivityError) as exc:
            check_marking(g1, doubled)
        assert str(exc.value) == ("values span a subgroup of rank 2 with "
                                  "invariants [1, 2] in Z^2")

    def test_genus2_index_three_subgroup_fails(self, g2):
        marking, _ = canonical_h_marking(g2)
        moved = marking.transform([[3, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(SurjectivityError) as exc:
            check_marking(g2, moved)
        assert str(exc.value) == ("values span a subgroup of rank 4 with "
                                  "invariants [1, 1, 1, 3] in Z^4")

    def test_values_off_the_graph_named(self, g1):
        # format_graph would drop edge 99 without a word
        values = {oe(x, 1): reference_marking(g1).value(oe(x, 1))
                  for x in g1.edge_ids()}
        for extra in ((99,), (7, 99)):
            m = Marking(2, {**values, **{oe(x, 1): k(5, 7) for x in extra}})
            with pytest.raises(MarkingDomainError) as err:
                check_marking(g1, m)
            assert str(err.value) == ("value on edge %s, which the graph lacks"
                                      % ", ".join(map(str, extra)))

    def test_disconnected_graph_uses_every_component(self):
        # loops 2 and 3 sit on a component away from the tail
        graph = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, 1), oe(1, -1)],
            [oe(2, 1), oe(2, -1), oe(3, 1), oe(3, -1)],
        ], oe(0, 1))
        values = {oe(0, 1): k(0, 0), oe(1, 1): k(0, 0), oe(2, 1): k(1, 0)}
        check_marking(graph, Marking(2, {**values, oe(3, 1): k(0, 1)}))
        with pytest.raises(SurjectivityError) as exc:
            check_marking(graph, Marking(2, {**values, oe(3, 1): k(0, 2)}))
        assert str(exc.value) == ("values span a subgroup of rank 2 with "
                                  "invariants [1, 2] in Z^2")


class TestRepresentation:
    def test_either_orientation(self):
        v = k(1, -2)
        assert Marking(2, {oe(3, 1): v}) == Marking(2, {oe(3, -1): -v})
        assert Marking(2, {oe(3, 1): v, oe(3, -1): -v}).values == {3: v}
        # a plain pair reads like the OrientedEdge it equals
        m = Marking(2, {(3, -1): -v})
        assert m.value((3, -1)) == m.value(oe(3, -1)) == -v
        assert m.value((3, 1)) == v

    @pytest.mark.parametrize("key", [
        OrientedEdge(1, 2), OrientedEdge(-3, 1), OrientedEdge(1.0, 1),
        OrientedEdge(True, 1), 1])
    def test_keys_must_be_half_edges(self, key):
        # under int codes each of these would pass for another key
        text = "key %r is not a half-edge" % (key,)
        with pytest.raises(MarkingDomainError, match=re.escape(text)):
            Marking(2, {oe(1, -1): k(0, -1), key: k(0, 1)})
        # nor does value read one as a half-edge of edge 1
        m = Marking(2, {oe(1, -1): k(0, -1)})
        with pytest.raises(MarkingDomainError) as err:
            m.value(key)
        assert str(err.value) == "no value on %r" % (key,)
        with pytest.raises(MarkingDomainError) as err:
            m.value(oe(99, 1))
        assert str(err.value) == "no value on 99+"

    def test_inversion_on_every_source(self):
        rng = random.Random(15)
        for _ in range(8):
            genus = rng.randint(1, 3)
            g = random_graph(genus, rng)
            h_marking, _ = canonical_h_marking(g)
            m = random_coherent_marking(g, rng.randint(2, 2 * genus), rng)
            g2, ctx = flip(g, rng.choice(flippable_edges(g)))
            for graph, marking in ((g, h_marking), (g, m),
                                   (g2, propagate(m, ctx)),
                                   (g, m.transform(random_gl(m.rank, rng)))):
                assert sorted(marking.values) == graph.edge_ids()
                for e in graph.oriented_edges():
                    assert marking.value(e.rev) == -marking.value(e)

    def test_transform_checks_the_width(self):
        m = Marking(3, {oe(1, 1): k(1, 2, 3), oe(2, 1): k(0, 0, 1)})
        with pytest.raises(RankMismatchError) as err:
            m.transform([[1, 0, 0], [0, 1], [0, 0, 1]])
        assert str(err.value) == "matrix row 1 has 2 columns, value has rank 3"


class TestPropagate:
    def test_formula(self, g1):
        # basis values e1, e2, e3 and -e1-e2-e3 around one flip square
        _, ctx = flip(g1, 1)
        e1, e2, e3 = (KElement.basis(4, i) for i in range(3))
        vals = {
            ctx.a: e1,
            ctx.b: e2,
            ctx.c: e3,
            ctx.d: -(e1 + e2 + e3),
            ctx.edge: -(e1 + e2),  # forced by coherence at the head of e
        }
        four = Marking(4, vals)
        out = propagate(four, ctx)
        expected = k(0, -1, -1, 0)
        assert out.value(ctx.new_edge) == expected
        # cross-check the equivalent form -mu(c) - mu(b)
        assert expected == -(vals[ctx.c] + vals[ctx.b])

    def test_involutive_pair_restores(self, g1):
        m = reference_marking(g1)
        path = involution_pair(g1, 3)
        m_end = propagate_path(m, path.steps)
        psi = canonical_iso(path.start, path.end)
        for h in g1.oriented_edges():
            assert m_end.value(psi[h]) == m.value(h)

    def test_incoherent_input_rejected(self, g1):
        bad = Marking(2, {oe(x, 1): k(1, 0) for x in g1.edge_ids()})
        _, ctx = flip(g1, 1)
        with pytest.raises(CoherenceError):
            propagate(bad, ctx)


def oracle_sign(ra, rb, rra, rrb, total):
    """Arithmetic formulation: rotate so a sits at 0, then compare."""
    b = (rb - ra) % total
    a2 = (rra - ra) % total
    b2 = (rrb - ra) % total
    if b < a2 < b2:
        return 1
    if b2 < a2 < b:
        return -1
    return 0


def pattern_sign(ra, rb, rra, rrb):
    """The entry P(a, b) of the 1 x 1 pattern of the four boundary ranks
    of a, b, ~a and ~b."""
    return _pattern([(ra, rra)], [(rb, rrb)])[0][0]


def sort_and_rotate_sign(ra, rb, rra, rrb):
    """The cyclic word of a, b, A, B sorted by rank, matched by rotation."""
    word = tuple(s for _, s in sorted([(ra, "a"), (rb, "b"),
                                       (rra, "A"), (rrb, "B")]))
    rotations = {word[i:] + word[:i] for i in range(4)}
    if ("a", "b", "A", "B") in rotations:
        return 1
    if ("a", "B", "A", "b") in rotations:
        return -1
    return 0


class TestPatternMatcher:
    def test_against_oracle(self):
        rng = random.Random(1)
        for _ in range(300):
            total = rng.randrange(8, 30, 2)
            ra, rb, rra, rrb = rng.sample(range(total), 4)
            assert (pattern_sign(ra, rb, rra, rrb)
                    == oracle_sign(ra, rb, rra, rrb, total))

    def test_block_against_oracle(self):
        rng = random.Random(4)
        for genus in (1, 2, 3, 4):
            graph = random_graph(genus, rng)
            rank = graph.boundary_order()
            edges = graph.oriented_edges()
            ranks = [(rank[h], rank[h.rev]) for h in edges]
            block = _pattern(ranks, ranks)
            for a, row in zip(edges, block):
                assert list(row) == [
                    0 if a.edge == b.edge else
                    oracle_sign(rank[a], rank[b], rank[a.rev], rank[b.rev],
                                len(rank))
                    for b in edges]

    def test_descends_to_edge_classes(self):
        # the inversion and coherence relations have zero pattern rows,
        # the two facts the proof in canonical_h_marking shows
        rng = random.Random(37)
        for trial in range(40):
            graph = random_graph(1 + trial % 8, rng)
            rank = graph.boundary_order()
            edges = graph.oriented_edges()
            ranks = [(rank[h], rank[h.rev]) for h in edges]
            row = dict(zip(edges, _pattern(ranks, ranks)))
            zero = [0] * len(edges)
            for x in graph.edge_ids():
                assert [p + m for p, m in zip(row[oe(x, 1)], row[oe(x, -1)])
                        ] == zero, "inversion of edge %d" % x
            for vi, v in enumerate(graph.vertices):
                assert [sum(col) for col in zip(*(row[h] for h in v))
                        ] == zero, "coherence at vertex %d" % vi

    def test_plain_cases(self):
        assert pattern_sign(0, 1, 2, 3) == 1
        assert pattern_sign(0, 3, 2, 1) == -1
        assert pattern_sign(0, 2, 1, 3) == 0

    @pytest.mark.parametrize("ranks", [(0, 1, 2, 3), (2, 5, 7, 13)])
    def test_every_ordering_against_sort_and_rotate(self, ranks):
        perms = list(itertools.permutations(ranks))
        signs = [pattern_sign(*perm) for perm in perms]
        assert signs == [sort_and_rotate_sign(*perm) for perm in perms]
        assert sorted(signs) == [-1] * 4 + [0] * 16 + [1] * 4


def dense_gram(matrix, vectors):
    """V^T F V by dense products, the reference for ``SymplecticForm.gram``."""
    v = intlinalg.transpose([x.coords for x in vectors])
    return intlinalg.mat_mul(intlinalg.transpose(v),
                             intlinalg.mat_mul(matrix, v))


def conjugated_form(g, rng):
    """A^T J A for a random A in GL(2g, Z): a form that is not J."""
    a, j = random_gl(2 * g, rng), intlinalg.standard_symplectic(g)
    return SymplecticForm(intlinalg.mat_mul(intlinalg.transpose(a),
                                            intlinalg.mat_mul(j, a)))


def parity_contraction(w):
    """C(w) for the standard form by the rule of index parity: on a key
    i < j < k only omega(e_i, e_j) with j = i + 1, i even, and
    omega(e_j, e_k) with k = j + 1, j even, can be nonzero."""
    out = [0] * w.rank
    for (i, j, k), c in w.coeffs.items():
        if j == i + 1 and not i & 1:
            out[k] += c
        if k == j + 1 and not j & 1:
            out[i] += c
    return KElement(out)


def dense_contraction(form, w):
    """C(w) summed over the keys of w, each term from ``form.pairing`` on
    the basis vectors."""
    e = [KElement.basis(w.rank, i) for i in range(w.rank)]
    out = KElement.zero(w.rank)
    for (i, j, k), c in w.coeffs.items():
        out += c * (form.pairing(e[i], e[j]) * e[k]
                    + form.pairing(e[j], e[k]) * e[i]
                    + form.pairing(e[k], e[i]) * e[j])
    return out


def random_wedge3(n, rng):
    """A sum of two wedges of short random vectors in Z^n."""
    def vector():
        return KElement([rng.choice((0, 0, 1, -1, 2)) for _ in range(n)])
    return wedge3(vector(), vector(), vector()) + wedge3(
        vector(), vector(), vector())


def dense_broken_pair(form, t):
    """The first (i, j), row by row, where T^T F T differs from F."""
    gram = intlinalg.mat_mul(intlinalg.transpose(t),
                             intlinalg.mat_mul(form.matrix, t))
    return next(((i, j) for i, (row, want) in enumerate(zip(gram, form.matrix))
                 for j, (x, y) in enumerate(zip(row, want)) if x != y), None)


def transvection(form, v):
    """x -> x + (v . x) v, which keeps the form: 1 + v v^T F."""
    vf = intlinalg.mat_vec(intlinalg.transpose(form.matrix), v)
    return [[(i == j) + x * y for j, y in enumerate(vf)]
            for i, x in enumerate(v)]


class TestSymplecticForm:
    def test_standard_skips_the_checks(self, monkeypatch):
        checked = [SymplecticForm(intlinalg.standard_symplectic(g))
                   for g in range(1, 9)]

        def fail(*args):
            raise AssertionError("the standard form was checked")
        monkeypatch.setattr(intlinalg, "smith", fail)
        monkeypatch.setattr(intlinalg, "symplectic_basis", fail)
        rng = random.Random(36)
        for g, want in enumerate(checked, start=1):
            form = SymplecticForm.standard(g)
            assert form == want
            vectors = [KElement([rng.randint(-3, 3) for _ in range(2 * g)])
                       for _ in range(6)]
            pairs = dense_gram(want.matrix, vectors)
            assert [[form.pairing(x, y) for y in vectors]
                    for x in vectors] == pairs

    @pytest.mark.parametrize("matrix", [
        [[0, 1, 0], [-1, 0, 0]],
        [],
        [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
        [[1, 1], [-1, 0]],
        [[0, 1], [1, 0]],
        [[0, 2], [-2, 0]],
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ], ids=["non-square", "empty", "odd", "diagonal", "non-skew",
            "not-unimodular", "rank-2"])
    def test_rejects_non_symplectic(self, matrix):
        with pytest.raises(MarkingError):
            SymplecticForm(matrix)

    def test_gram_matches_dense_product(self):
        rng = random.Random(37)
        for g in range(1, 6):
            form = conjugated_form(g, rng)
            vectors = [KElement([rng.choice((0, 0, 0, 1, -2, 5))
                                 for _ in range(2 * g)]) for _ in range(7)]
            assert form.gram(vectors) == dense_gram(form.matrix, vectors)
        with pytest.raises(MarkingError, match="rank does not match"):
            form.gram([KElement.zero(2 * g + 1)])

    def test_contract_matches_the_parity_rule(self):
        # every basis key, then seeded values, at ranks 2 to 8
        rng = random.Random(38)
        for g in range(1, 5):
            n, form = 2 * g, SymplecticForm.standard(g)
            values = [Wedge3(n, {key: 1})
                      for key in itertools.combinations(range(n), 3)]
            values += [random_wedge3(n, rng) for _ in range(30)]
            for w in values:
                assert form.contract(w) == parity_contraction(w)
        assert sum(not w.is_zero() for w in values) > 50

    def test_contract_matches_the_pairing_on_other_forms(self):
        # C(x ^ y ^ z) = (x . y) z + (y . z) x + (z . x) y on a form
        # whose entries lie off the pairs (2i, 2i + 1)
        rng = random.Random(39)
        for g in range(2, 5):
            n, form = 2 * g, conjugated_form(g, rng)
            assert form != SymplecticForm.standard(g)
            for key in itertools.combinations(range(n), 3):
                w = Wedge3(n, {key: 1})
                assert form.contract(w) == dense_contraction(form, w)
            for _ in range(20):
                x, y, z = (KElement([rng.randint(-3, 3) for _ in range(n)])
                           for _ in range(3))
                assert form.contract(wedge3(x, y, z)) == (
                    form.pairing(x, y) * z + form.pairing(y, z) * x
                    + form.pairing(z, x) * y)
        with pytest.raises(MarkingError, match="rank does not match"):
            form.contract(Wedge3.zero(n + 1))

    def test_broken_pair_matches_a_dense_product(self):
        # products of transvections keep the form; GL moves mostly break
        # it
        rng = random.Random(40)
        first_rows = collections.Counter()
        for g in range(1, 5):
            for form in (SymplecticForm.standard(g), conjugated_form(g, rng)):
                n = 2 * g
                for _ in range(10):
                    t = intlinalg.identity(n)
                    for _ in range(3):
                        t = intlinalg.mat_mul(t, transvection(
                            form, [rng.randint(-2, 2) for _ in range(n)]))
                    assert dense_broken_pair(form, t) is None
                    assert form.broken_pair(t) is None
                    # one elementary move, col l += q col k, also breaks
                    # the form first in a late row
                    k, l = rng.sample(range(n), 2)
                    move = intlinalg.identity(n)
                    move[k][l] = rng.choice((-2, -1, 1, 2))
                    for m in (random_gl(n, rng), move):
                        moved = intlinalg.mat_mul(t, m)
                        want = dense_broken_pair(form, moved)
                        assert form.broken_pair(moved) == want
                        first_rows[want and want[0]] += 1
        assert first_rows[None] and first_rows[0] and len(first_rows) > 5
        with pytest.raises(MarkingError, match="size does not match"):
            form.broken_pair([row[:-1] for row in t])
        with pytest.raises(MarkingError, match="rank does not match"):
            form.broken_pair(t[:-1])


class TestTopologicalH:
    def test_reference_marking_is_topological(self, g1):
        m = reference_marking(g1)
        assert is_topological_h(g1, m, SymplecticForm.standard(1))

    def test_negating_one_edge_breaks_it(self, g1):
        m = reference_marking(g1)
        vals = {oe(x, 1): m.value(oe(x, 1)) for x in g1.edge_ids()}
        vals[oe(2, 1)] = -vals[oe(2, 1)]
        # still coherent? not necessarily; only the criterion matters here
        broken = Marking(2, vals)
        assert not is_topological_h(g1, broken, SymplecticForm.standard(1))

    def test_missing_edge_named(self):
        # the shipped g1.fg marking without edge 2: the coherence sums
        # meet 2+ first and name it
        text = (importlib.resources.files("fatflip") / "data" / "g1.fg") \
            .read_text()
        graph, marking = parse_graph(text)
        m = Marking(2, {oe(x, 1): v for x, v in marking.values.items()
                        if x != 2})
        with pytest.raises(MarkingDomainError) as err:
            is_topological_h(graph, m, SymplecticForm.standard(1))
        assert str(err.value) == "no value on 2+"

    def test_rank_check(self, g1):
        m = random_coherent_marking(g1, 1, random.Random(0))
        with pytest.raises(MarkingError):
            is_topological_h(g1, m, SymplecticForm.standard(1))

    def test_genus_zero_rank_message(self, tree):
        m = Marking(1, {oe(0, 1): k(0), oe(1, 1): k(0)})
        with pytest.raises(MarkingError) as err:
            is_topological_h(tree, m, SymplecticForm.standard(1))
        assert str(err.value) == "marking rank 1, expected 2g = 0"

    def test_three_boundaries_rejected(self, three_boundary):
        m = random_coherent_marking(three_boundary, 2, random.Random(0))
        with pytest.raises(BoundaryNumberError, match="got 3"):
            is_topological_h(three_boundary, m, SymplecticForm.standard(1))

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(33)
        verdicts = {True: 0, False: 0}
        for trial in range(30):
            genus = 1 + trial % 6
            g = random_graph(genus, rng)
            m, form = canonical_h_marking(g)
            edge = rng.choice(g.edge_ids())
            bumped = {oe(x, 1): m.value(oe(x, 1)) for x in g.edge_ids()}
            negated = dict(bumped)
            bumped[oe(edge, 1)] += KElement.basis(2 * genus,
                                                  rng.randrange(2 * genus))
            negated[oe(edge, 1)] = -negated[oe(edge, 1)]
            markings = [m, m.transform(random_gl(2 * genus, rng)),
                        m.transform(symplectic_transvections(genus, rng)),
                        random_coherent_marking(g, 2 * genus, rng),
                        Marking(2 * genus, bumped),
                        Marking(2 * genus, negated)]
            for marking in markings:
                want = all_pairs_is_topological_h(g, marking, form)
                assert is_topological_h(g, marking, form) == want
                verdicts[want] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts

    def test_matches_all_pairs_oracle_non_standard_form(self):
        # F = A^T J A pairs A^-1 x with A^-1 y as J pairs x with y, so
        # moving the markings by A^-1 keeps every verdict; F has none of
        # J's block structure
        rng = random.Random(35)
        verdicts = {True: 0, False: 0}
        for trial in range(16):
            genus = 1 + trial % 4
            n = 2 * genus
            g = random_graph(genus, rng)
            m, j_form = canonical_h_marking(g)
            a = random_gl(n, rng)
            a_inv = intlinalg.solve_transform(intlinalg.transpose(a),
                                              intlinalg.identity(n))
            form = SymplecticForm(intlinalg.mat_mul(
                intlinalg.transpose(a), intlinalg.mat_mul(j_form.matrix, a)))
            bumped = {oe(x, 1): m.value(oe(x, 1)) for x in g.edge_ids()}
            bumped[oe(rng.choice(g.edge_ids()), 1)] += KElement.basis(
                n, rng.randrange(n))
            for marking in (m, m.transform(random_gl(n, rng)),
                            m.transform(symplectic_transvections(genus, rng)),
                            Marking(n, bumped)):
                moved = marking.transform(a_inv)
                want = all_pairs_is_topological_h(g, moved, form)
                assert want == all_pairs_is_topological_h(g, marking, j_form)
                assert is_topological_h(g, moved, form) == want
                verdicts[want] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts

    def test_pairing_calls(self):
        rng = random.Random(34)
        for genus in (1, 3, 5):
            g = random_graph(genus, rng)
            m, _ = canonical_h_marking(g)
            form = CountingForm(intlinalg.standard_symplectic(genus))
            assert is_topological_h(g, m, form)
            assert form.calls == 1
            # an incoherent marking is rejected before any pairing
            vals = {oe(x, 1): m.value(oe(x, 1)) for x in g.edge_ids()}
            vals[oe(g.edge_ids()[-1], 1)] += KElement.basis(2 * genus, 0)
            form.calls = 0
            assert not is_topological_h(g, Marking(2 * genus, vals), form)
            assert form.calls == 0


class CountingForm(SymplecticForm):
    calls = 0

    def gram(self, values):
        self.calls += 1
        return super().gram(values)


def symplectic_transvections(genus, rng, count=4):
    """A product of transvections x -> x + (x . v) v, which keep the form."""
    omega = intlinalg.standard_symplectic(genus)
    t = intlinalg.identity(2 * genus)
    for _ in range(count):
        v = [rng.randint(-1, 1) for _ in range(2 * genus)]
        omega_v = intlinalg.mat_vec(omega, v)
        step = [[int(i == j) + v[i] * omega_v[j] for j in range(2 * genus)]
                for i in range(2 * genus)]
        t = intlinalg.mat_mul(step, t)
    assert intlinalg.mat_eq(
        intlinalg.mat_mul(intlinalg.transpose(t), intlinalg.mat_mul(omega, t)),
        omega)
    return t


def all_pairs_is_topological_h(graph, marking, form):
    """The intersection check on every pair of oriented edges.

    The reference for the 2g basis check: the earlier loop of
    ``is_topological_h``, with the earlier sign rule.
    """
    rank = graph.boundary_order()
    if marking.rank != 2 * graph.genus():
        raise MarkingError("marking rank %d, expected 2g = %d"
                           % (marking.rank, 2 * graph.genus()))
    if len(form.matrix) != marking.rank:
        raise MarkingError("form size does not match the marking rank")
    edges = graph.oriented_edges()
    value = {h: marking.value(h) for h in edges}
    for i, a in enumerate(edges):
        for b in edges[i + 1:]:
            if a.edge == b.edge:
                continue
            want = sort_and_rotate_sign(rank[a], rank[b],
                                        rank[a.rev], rank[b.rev])
            if form.pairing(value[a], value[b]) != want:
                return False
    return True


class TestCanonicalHMarking:
    def test_reference_graph(self, g1):
        m, form = canonical_h_marking(g1)
        assert form == SymplecticForm.standard(1)
        check_marking(g1, m)
        assert is_topological_h(g1, m, form)
        assert m.value(g1.tail).is_zero()

    def test_tree_rejected(self, tree):
        with pytest.raises(MarkingError) as err:
            canonical_h_marking(tree)
        assert str(err.value) == ("graph has genus 0, no homology marking "
                                  "exists")

    def test_three_boundaries_rejected(self, three_boundary):
        with pytest.raises(BoundaryNumberError, match="got 3"):
            canonical_h_marking(three_boundary)

    def test_non_symplectic_transform_fails_the_path_check(self):
        rng = random.Random(32)
        g = random_graph(2, rng)
        m, form = canonical_h_marking(g)
        path = random_flip_path(g, 20, rng)
        check_topological_path(path, m, form)
        t = random_gl(4, rng)
        omega = intlinalg.standard_symplectic(2)
        assert not intlinalg.mat_eq(intlinalg.mat_mul(
            intlinalg.transpose(t), intlinalg.mat_mul(omega, t)), omega)
        moved = m.transform(t)
        with pytest.raises(SelfTestFailure) as err:
            check_topological_path(path, moved, form)
        assert str(err.value) == ("start marking fails the intersection "
                                  "criterion")

    @pytest.mark.parametrize("genus", [12, 16, 24, 32])
    def test_basis_values_match_dense_product(self, genus):
        # the basis edges carry the rows of P^T (S J), beyond the golden
        # records' genus 8
        graph = random_graph(genus, random.Random("dense/%d" % genus))
        marking, _ = canonical_h_marking(graph)
        pair_m = graph._pairing_block()
        s = intlinalg.symplectic_basis(pair_m)
        j = intlinalg.standard_symplectic(genus)
        want = intlinalg.mat_mul(intlinalg.transpose(pair_m),
                                 intlinalg.mat_mul(s, j))
        assert [list(marking.values[x].coords)
                for x in graph._spanning_tree()[1]] == want


def cokernel_classes(graph):
    """Edge classes from the Smith cokernel of the edge relations.

    The quotient of Z^{oriented edges} by the inversion relations
    (h + ~h) and the coherence relations (the inward edges at each
    vertex); returns the quotient coordinates of each edge's ``+``
    orientation and the cokernel's invariants.
    """
    edges = graph.oriented_edges()
    index = {h: i for i, h in enumerate(edges)}
    relations = []
    for x in graph.edge_ids():
        col = [0] * len(edges)
        col[index[oe(x, 1)]] += 1
        col[index[oe(x, -1)]] += 1
        relations.append(col)
    for v in graph.vertices:
        col = [0] * len(edges)
        for h in v:
            col[index[h]] += 1
        relations.append(col)
    cok = intlinalg.cokernel(intlinalg.transpose(relations))
    classes = {x: [row[index[oe(x, 1)]] for row in cok.projection]
               for x in graph.edge_ids()}
    return classes, cok.invariants


class TestSpanningTree:
    def graphs(self):
        rng = random.Random(35)
        return [random_graph(1 + trial % 8, rng) for trial in range(30)]

    def test_classes_match_cokernel(self, three_boundary):
        for graph in self.graphs() + [three_boundary]:
            n = len(graph._spanning_tree()[1])
            assert n == graph.num_edges - graph.num_vertices + 1
            filled = _fill(graph, n, intlinalg.identity(n)).values
            assert sorted(filled) == graph.edge_ids()
            ours = [list(filled[x].coords) for x in graph.edge_ids()]
            theirs, invariants = cokernel_classes(graph)
            theirs = [theirs[x] for x in graph.edge_ids()]
            assert all(d == 1 for d in invariants)
            # a unimodular change of basis carries one set of classes to
            # the other, in both directions
            for xs, ys in ((theirs, ours), (ours, theirs)):
                t = intlinalg.solve_transform(xs, ys)
                assert t is not None and intlinalg.is_unimodular(t)

    def test_random_marking_needs_a_connected_graph(self):
        # loops 2 and 3 sit on a component away from the tail
        graph = FatGraph([
            [oe(0, -1)],
            [oe(0, 1), oe(1, 1), oe(1, -1)],
            [oe(2, 1), oe(2, -1), oe(3, 1), oe(3, -1)],
        ], oe(0, 1))
        with pytest.raises(DisconnectedGraphError) as err:
            random_coherent_marking(graph, 1, random.Random(0))
        assert str(err.value) == "only 2 of 3 vertices reachable"

    @pytest.mark.parametrize("call", [
        lambda graph, marking, form: canonical_h_marking(graph),
        is_topological_h,
    ], ids=["canonical_h_marking", "is_topological_h"])
    def test_homology_marking_needs_a_connected_graph(self, g1, call):
        # g1 and a loop on a second component: the tail's component has
        # one boundary cycle, the graph three
        graph = FatGraph(g1.vertices + ((oe(9, 1), oe(9, -1)),), g1.tail)
        marking, form = canonical_h_marking(g1)
        with pytest.raises(BoundaryNumberError) as err:
            call(graph, marking, form)
        assert str(err.value) == ("boundary order needs boundary number 1, "
                                  "got 3")

    def test_filled_marking_is_coherent(self, three_boundary):
        rng = random.Random(36)
        for graph in self.graphs()[:10] + [three_boundary]:
            basis = graph._spanning_tree()[1]
            n = len(basis)
            values = [[rng.randint(-3, 3) for _ in range(n)] for _ in basis]
            filled = _fill(graph, n, values).values
            for x, v in zip(basis, values):
                assert list(filled[x].coords) == v
            marking = Marking(n, {oe(x, 1): k for x, k in filled.items()})
            for v in graph.vertices:
                assert sum((marking.value(h) for h in v),
                           KElement.zero(n)).is_zero()


def dense_vertex_sums(graph, marking):
    """The inward sums at each vertex, one dense accumulator per vertex
    that adds the coordinates one by one: the coherence sums as read
    before the signed map chain, kept as its oracle."""
    for row in graph._rows:
        acc = [0] * marking.rank
        for c in row:
            if c >> 1 not in marking.values:
                raise MarkingDomainError("no value on %s" % (_decode(c),))
            coords = marking.values[c >> 1].coords
            for i in itertools.compress(range(marking.rank), coords):
                acc[i] += -coords[i] if c & 1 else coords[i]
        yield acc


def dense_coherence(graph, marking):
    """check_marking's coherence step on the dense sums."""
    for vi, sums in enumerate(dense_vertex_sums(graph, marking)):
        if any(sums):
            raise CoherenceError("vertex %d sums to %s"
                                 % (vi, KElement._of(tuple(sums))))


def dense_is_topological_h(graph, marking, form):
    """is_topological_h on the dense sums, for markings of rank 2g."""
    want = graph._pairing_block()
    if any(map(any, dense_vertex_sums(graph, marking))):
        return False
    return form.gram([marking.values[x] for x in graph._spanning_tree()[1]]
                     ) == list(map(list, want))


def dense_fill(graph, rank, basis_values):
    """_fill with a dense accumulator re-listed per term."""
    links, basis = graph._spanning_tree()
    values = {x: KElement._of(tuple(v)) for x, v in zip(basis, basis_values)}
    rows, vert = graph._rows, graph._index()[1]
    for h in reversed(links):
        acc = [0] * rank
        for c in rows[vert[h]]:
            if c != h:  # c's value enters with sign -h.sign * c.sign
                acc = list(map(operator.add if (c ^ h) & 1 else
                               operator.sub, acc, values[c >> 1].coords))
        values[h >> 1] = KElement._of(tuple(acc))
    return Marking._of_edges(rank, values)


def outcome(fn, *args):
    """What fn(*args) returns, or the type and text of its MarkingError."""
    try:
        return fn(*args)
    except MarkingError as err:
        return type(err).__name__, str(err)


def leafy_g1():
    """g1 with a leaf edge 5 hung off vertex 1: still one boundary cycle
    and genus 1, so the spanning tree has a link into a univalent vertex."""
    return FatGraph([
        [oe(0, -1)],
        [oe(0, 1), oe(1, 1), oe(5, 1), oe(3, -1)],
        [oe(3, 1), oe(2, 1), oe(4, -1)],
        [oe(4, 1), oe(1, -1), oe(2, -1)],
        [oe(5, -1)],
    ], oe(0, 1))


def chain_graphs(rng):
    """Trivalent random graphs, the tailed roses (one vertex of valence
    4g + 1), the hand-split roses with 4- and 5-valent vertices, and a
    graph with a leaf; each has one boundary cycle."""
    return ([random_graph(1 + trial % 6, rng) for trial in range(12)]
            + [rose(genus) for genus in (1, 2, 3, 4)] + split_roses()
            + [leafy_g1()])


class TestCoherenceChain:
    def perturbed(self, graph, marking, rng):
        """The marking moved at one edge, then the same with one edge's
        value dropped (so its two ends may or may not be reached first)."""
        n = marking.rank
        vals = {oe(x, 1): v for x, v in marking.values.items()}
        x = rng.choice(graph.edge_ids())
        vals[oe(x, 1)] += KElement([rng.randint(-2, 2) for _ in range(n)])
        gone = dict(vals)
        del gone[oe(rng.choice(graph.edge_ids()), 1)]
        return Marking(n, vals), Marking(n, gone)

    def test_check_marking_matches_dense_sums(self, g1):
        rng = random.Random(51)
        kinds = collections.Counter()
        for graph in chain_graphs(rng):
            m, _ = canonical_h_marking(graph)
            for _ in range(8):
                bumped, _ = self.perturbed(graph, m, rng)
                want = outcome(dense_coherence, graph, bumped)
                got = outcome(check_marking, graph, bumped)
                if got is None or got[0] != "CoherenceError":
                    got = None  # coherent: Surjectivity decides the rest
                assert got == want
                kinds[want is None] += 1
        assert kinds[True] >= 10 and kinds[False] >= 100, kinds
        # an empty vertex sums to zero
        empty = FatGraph(list(g1.vertices) + [[]], g1.tail)
        check_marking(empty, reference_marking(g1))

    def test_is_topological_h_matches_dense_sums(self):
        rng = random.Random(52)
        kinds = collections.Counter()
        for graph in chain_graphs(rng):
            m, form = canonical_h_marking(graph)
            genus = m.rank // 2
            coherent = [m, m.transform(symplectic_transvections(genus, rng)),
                        m.transform(random_gl(2 * genus, rng))]
            cases = [("whole", marking) for marking in coherent]
            for _ in range(8):
                bumped, gone = self.perturbed(graph, m, rng)
                cases += [("whole", bumped), ("gone", gone)]
            for label, marking in cases:
                want = outcome(dense_is_topological_h, graph, marking, form)
                assert outcome(is_topological_h, graph, marking, form) == want
                kinds[label, want if isinstance(want, bool) else want[0]] += 1
        # both verdicts on whole markings; with a value gone, the first
        # missing half-edge named, or False at an incoherent vertex met
        # before it
        assert kinds["whole", True] >= 30 and kinds["whole", False] >= 100
        assert kinds["gone", "MarkingDomainError"] >= 50, kinds
        assert kinds["gone", False] >= 20, kinds

    def test_fill_matches_dense_fill(self):
        rng = random.Random(53)
        for graph in chain_graphs(rng):
            n = len(graph._spanning_tree()[1])
            for rank in (1, n):
                # a unimodular basis block gives a surjective marking
                spread = intlinalg.transpose(random_gl(n, rng)[:rank])
                small = [[rng.randint(-3, 3) for _ in range(rank)]
                         for _ in range(n)]
                for values in (spread, small):
                    filled = _fill(graph, rank, values)
                    assert filled == dense_fill(graph, rank, values)
                    assert not any(map(any, dense_vertex_sums(graph,
                                                              filled)))
                check_marking(graph, _fill(graph, rank, spread))


def dense_basis_values(pair_m, s):
    """The basis values as built before the sparse product: the dense
    P S, then -J on each row as the signed swap (x, y) -> (y, -x)."""
    return [[z for x, y in zip(row[::2], row[1::2]) for z in (y, -x)]
            for row in intlinalg.mat_mul(pair_m, s)]


def counted_stores(monkeypatch, slot):
    """The values stored in FatGraph slot ``slot`` from now on, read
    through a wrapper of the slot's own descriptor."""
    stores = []
    member = getattr(FatGraph, slot)

    class Counted:
        def __get__(self, graph, cls):
            return member.__get__(graph, cls)

        def __set__(self, graph, value):
            stores.append(value)
            member.__set__(graph, value)
    monkeypatch.setattr(FatGraph, slot, Counted())
    return stores


class TestKeptTailData:
    """The tail tree and the pairing block are built once per graph."""

    @staticmethod
    def marked(genus):
        """A way to build fresh copies of a seeded graph, the canonical
        marking and form of the copies, and a non-symplectic element of
        GL, for the same seeds at every genus."""
        rng = random.Random("kept/%d" % genus)
        source = random_graph(genus, rng)

        def copy():
            return FatGraph(source.vertices, source.tail)
        marking, form = canonical_h_marking(copy())
        return copy, marking, form, random_gl(2 * genus, rng)

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_repeated_calls_match_a_fresh_graph(self, genus):
        copy, marking, form, move = self.marked(genus)
        moved = marking.transform(move)
        calls = [
            lambda g: g._spanning_tree(),
            canonical_h_marking,
            lambda g: outcome(check_marking, g, marking),
            lambda g: outcome(check_marking, g, moved),
            lambda g: is_topological_h(g, marking, form),
            lambda g: is_topological_h(g, moved, form),
        ]
        graph = copy()
        first = [call(graph) for call in calls]
        again = [call(graph) for call in calls]
        # a fresh graph whose first caller of each kept value differs
        fresh = copy()
        assert first == again == [call(fresh) for call in calls[::-1]][::-1]
        assert first[0] == tuple(first[0])
        assert first[1] == (marking, form)
        assert first[2:] == [None, None, True, False]

    def test_failures_are_not_kept(self, g1):
        # a loop at the tail's neighbour: genus 0, two boundary cycles
        two = FatGraph([[oe(0, -1)], [oe(0, 1), oe(1, 1), oe(1, -1)]],
                       oe(0, 1))
        m, form = canonical_h_marking(g1)
        for _ in range(3):
            with pytest.raises(BoundaryNumberError) as err:
                is_topological_h(two, m, form)
            assert str(err.value) == ("boundary order needs boundary "
                                      "number 1, got 2")
            with pytest.raises(BoundaryNumberError):
                canonical_h_marking(two)
        assert not hasattr(two, "_pairing")

    @pytest.mark.parametrize("genus", [1, 4, 8])
    def test_one_op_walks_from_the_tail_once(self, genus, monkeypatch):
        # the homology benchmark's op on a fresh graph: one tree, one
        # boundary walk, one pattern
        copy, _, _, move = self.marked(genus)
        trees = counted_stores(monkeypatch, "_tree")
        blocks = counted_stores(monkeypatch, "_pairing")
        cycles = []
        walk = FatGraph._cycle

        def counted(graph, start):
            cycles.append(start)
            return walk(graph, start)
        monkeypatch.setattr(FatGraph, "_cycle", counted)
        graph = copy()
        for _ in range(2):
            marking, form = canonical_h_marking(graph)
            check_marking(graph, marking)
            assert is_topological_h(graph, marking, form)
            assert not is_topological_h(graph, marking.transform(move), form)
            assert (len(trees), len(blocks), len(cycles)) == (1, 1, 1)

    def test_kept_data_holds_no_graph(self):
        copy, marking, form, _ = self.marked(3)
        graph = copy()
        graph.genus()
        is_topological_h(graph, marking, form)
        seen, todo = set(), [graph._boundaries, graph._tree, graph._pairing]
        while todo:
            obj = todo.pop()
            if id(obj) not in seen:
                seen.add(id(obj))
                assert not isinstance(obj, FatGraph)
                todo += gc.get_referents(obj)
        assert id(graph._pairing[0]) in seen  # it reached P's rows

    @pytest.mark.parametrize("genus", [*range(1, 9), 16])
    def test_basis_values_match_dense_swap(self, genus):
        graph = random_graph(genus, random.Random("swap/%d" % genus))
        marking, _ = canonical_h_marking(graph)
        pair_m = graph._pairing_block()
        want = dense_basis_values(pair_m, intlinalg.symplectic_basis(pair_m))
        assert [list(marking.values[x].coords)
                for x in graph._spanning_tree()[1]] == want
