import collections
import operator
import random
from functools import reduce

import pytest

from fatflip import intlinalg
from fatflip.abelian import (KElement, SymWedge, Wedge3, sym_pair, wedge2,
                             wedge3)
from fatflip.cocycles import (_KERNELS, CocycleConditionError, CocycleError,
                              InducedAutomorphismError, _induced_matrix,
                              _value, cocycle_j, cocycle_m, cocycle_s,
                              compose_closed, induced_k_automorphism,
                              path_sum, path_sums, verify_cocycle_condition,
                              walk_values)
from fatflip.fatgraph import oe
from fatflip.flips import (ClosureError, adjacent_flippable_pairs, apply_path,
                           commuting_loop, concat_paths,
                           disjoint_flippable_pairs, flip, flippable_edges,
                           involution_pair, pentagon_path, reverse_path)
from fatflip.intlinalg import identity, mat_eq, solve_transform
from fatflip.markings import (CoherenceError, Marking, MarkingDomainError,
                              canonical_h_marking, propagate, propagate_path)
from fatflip.randgen import (random_coherent_marking, random_flip_path,
                             random_gl, random_graph)
from fatflip.selftest import SelfTestFailure, check_relation_loop
from test_abelian import (KEPT_RANKS, dense_wedge2, dense_wedge3,
                          seeded_values, support)

ZERO = {"m": KElement.zero, "j": Wedge3.zero, "s": SymWedge.zero}
# flip sequences that return the g1 fixture to itself
G1_CLOSED = ([1, 2], [1, 2, 3], [2, 3, 4], [1, 4, 5], [4, 2, 3], [1, 2, 4],
             [1, 3, 5])


def marked_flip(g1, edge=1, rank=4):
    """A flip of the reference graph with basis values on its square."""
    _, ctx = flip(g1, edge)
    e1, e2, e3 = (KElement.basis(rank, i) for i in range(3))
    vals = {
        ctx.a: e1,
        ctx.b: e2,
        ctx.c: e3,
        ctx.d: -(e1 + e2 + e3),
        ctx.edge: -(e1 + e2),
    }
    return ctx, Marking(rank, vals), (e1, e2, e3)


class TestPerFlipValues:
    def test_m_direct(self, g1):
        ctx, m, (e1, e2, e3) = marked_flip(g1)
        assert cocycle_m(ctx, m) == e1 + e3

    def test_j_direct(self, g1):
        ctx, m, (e1, e2, e3) = marked_flip(g1)
        assert cocycle_j(ctx, m) == wedge3(e1, e2, e3)

    def test_s_direct(self, g1):
        ctx, m, (e1, e2, e3) = marked_flip(g1)
        d = -(e1 + e2 + e3)
        assert cocycle_s(ctx, m) == sym_pair(wedge2(e1, e3), wedge2(e2, d))

    def test_orientation_independence(self):
        rng = random.Random(12)
        for _ in range(15):
            genus = rng.randint(1, 3)
            g = random_graph(genus, rng)
            m = random_coherent_marking(g, rng.randint(2, 2 * genus), rng)
            e = oe(rng.choice(flippable_edges(g)), 1)
            _, ctx_plus = flip(g, e)
            _, ctx_minus = flip(g, e.rev)
            assert cocycle_m(ctx_plus, m) == cocycle_m(ctx_minus, m)
            assert cocycle_j(ctx_plus, m) == cocycle_j(ctx_minus, m)
            assert cocycle_s(ctx_plus, m) == cocycle_s(ctx_minus, m)


class TestPathSums:
    def test_empty_path(self, g1):
        m = random_coherent_marking(g1, 2, random.Random(0))
        path = apply_path(g1, [])
        for which in "mjs":
            total, out = path_sum(path, m, which)
            assert total.is_zero()
            assert out == m

    def test_open_path_fails_the_relation_loop_check(self, g2):
        m, _ = canonical_h_marking(g2)
        path = apply_path(g2, [flippable_edges(g2)[0]])
        with pytest.raises(SelfTestFailure) as err:
            check_relation_loop(path, m)
        assert str(err.value) == "relation loop did not close"

    def test_closed_loop_that_moves_the_marking_fails(self, g1):
        # flipping 1 then 2 ends at an isomorphic graph, marking moved
        m, _ = canonical_h_marking(g1)
        with pytest.raises(SelfTestFailure) as err:
            check_relation_loop(apply_path(g1, [1, 2]), m)
        assert (str(err.value)
                == "marking did not return around a relation loop")

    def test_relation_loop_check_runs_no_smith(self, g2, monkeypatch):
        # the marking's return already says T = 1; nothing is solved
        m, _ = canonical_h_marking(g2)
        loop = pentagon_path(g2, *adjacent_flippable_pairs(g2)[0])

        def fail(*args, **kwargs):
            raise AssertionError("smith called")
        monkeypatch.setattr(intlinalg, "smith", fail)
        check_relation_loop(loop, m)

    def test_step_values_sum_to_path_sum(self):
        rng = random.Random(25)
        g = random_graph(2, rng)
        m = random_coherent_marking(g, 3, rng)
        path = random_flip_path(g, 6, rng)
        for which in "mjs":
            values = list(walk_values(path, m, which))
            assert len(values) == len(path)
            total = values[0]
            for value in values[1:]:
                total = total + value
            assert total == path_sum(path, m, which)[0]

    def test_long_path_sum_equals_fold(self):
        rng = random.Random(26)
        g = random_graph(8, rng)
        m, _ = canonical_h_marking(g)
        path = random_flip_path(g, 120, rng)
        end = propagate_path(m, path.steps)
        for which in "mjs":
            fold = reduce(operator.add,
                          walk_values(path, m, which),
                          ZERO[which](m.rank))
            total, out = path_sum(path, m, which)
            assert total == fold
            assert out == end

    def test_path_plus_reverse_vanishes(self):
        rng = random.Random(24)
        g = random_graph(2, rng)
        m = random_coherent_marking(g, 3, rng)
        fwd = random_flip_path(g, 5, rng)
        back = reverse_path(fwd)
        full = concat_paths(fwd, back)
        assert full.is_closed()
        for which in "mjs":
            total, _ = path_sum(full, m, which)
            assert total.is_zero()


def _fold_step(ctx, marking, which):
    """The per-step evaluation of the first path_sum, kept as an oracle:
    coherence at both heads on the negated values, then the value from
    the public wedge functions."""
    value = marking.value
    for head, h1, h2 in ((ctx.edge, ctx.a, ctx.b),
                         (ctx.edge.rev, ctx.c, ctx.d)):
        if not (value(head) + value(h1) + value(h2)).is_zero():
            raise CoherenceError("marking incoherent at the head of %s"
                                 % (head,))
    a, b, c, d = value(ctx.a), value(ctx.b), value(ctx.c), value(ctx.d)
    if which == "m":
        return a + c
    if which == "j":
        return wedge3(a, b, c)
    return sym_pair(wedge2(a, c), wedge2(b, d))


def _fold_propagate(ctx, marking):
    """The marking after one flip, rebuilt through the public constructor."""
    values = {oe(x, 1): k for x, k in marking.values.items()
              if x != ctx.edge.edge}
    values[ctx.new_edge] = marking.value(ctx.d) + marking.value(ctx.a)
    return Marking(marking.rank, values)


def fold_path_sum(path, marking, which):
    total = ZERO[which](marking.rank)
    for ctx in path.steps:
        total = total + _fold_step(ctx, marking, which)
        marking = _fold_propagate(ctx, marking)
    return total, marking


class TestWalkerOracle:
    """path_sum against the step-by-step fold, totals and end marking."""

    @staticmethod
    def assert_matches(path, marking):
        # and the same flips taken along the other orientation of each edge
        rev = apply_path(path.start, [ctx.edge.rev for ctx in path.steps])
        for p in (path, rev):
            for which in "mjs":
                assert path_sum(p, marking, which) == fold_path_sum(
                    p, marking, which), which

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_canonical_markings(self, genus):
        rng = random.Random(500 + genus)
        g = random_graph(genus, rng)
        m, _ = canonical_h_marking(g)
        self.assert_matches(random_flip_path(g, 60, rng), m)

    @pytest.mark.parametrize("genus", range(1, 5))
    def test_dense_coherent_markings(self, genus):
        rng = random.Random(600 + genus)
        g = random_graph(genus, rng)
        for rank in range(2, 2 * genus + 1):
            m = random_coherent_marking(g, rank, rng)
            self.assert_matches(random_flip_path(g, 30, rng), m)

    @pytest.mark.parametrize("genus", range(1, 5))
    def test_markings_moved_by_gl(self, genus):
        rng = random.Random(700 + genus)
        g = random_graph(genus, rng)
        m, _ = canonical_h_marking(g)
        # move until some coordinate is past 64 bits
        while max(abs(x) for k in m.values.values()
                  for x in k.coords).bit_length() <= 64:
            m = m.transform(random_gl(2 * genus, rng))
        self.assert_matches(random_flip_path(g, 30, rng), m)


class TestKeptSupports:
    @pytest.mark.parametrize("rank", KEPT_RANKS)
    def test_step_kernels_equal_dense_oracles(self, rank):
        rng = random.Random(980 + rank)
        pool = list(seeded_values(rng, rank))
        for _ in range(8 if rank > 32 else 30):
            a, b, c, d = rng.sample(pool, 4)
            sa, sb, sc, sd = (rng.choice((1, -1)) for _ in range(4))
            for which, kernel in _KERNELS.items():
                out = {}
                for _ in range(2):  # a kernel adds to what is there
                    kernel(out, a, sa, b, sb, c, sc, d, sd)
                want = {"m": sa * a + sc * c,
                        "j": sa * sb * sc * dense_wedge3(a, b, c),
                        "s": sa * sb * sc * sd * sym_pair(
                            dense_wedge2(a, c), dense_wedge2(b, d))}[which]
                assert _value(which, rank, out) == 2 * want, which
        assert all(v._nz == support(v) for v in pool)

    def test_no_support_is_stale_after_a_long_walk(self):
        rng = random.Random(990)
        g = random_graph(16, rng)
        m, _ = canonical_h_marking(g)
        path = random_flip_path(g, 200, rng)
        totals, end = path_sums(path, m)
        for which, total in zip("mjs", totals):
            assert (total, end) == fold_path_sum(path, m, which), which
        made = set(end.values) - set(m.values)
        assert len(made) > 20
        # each value the walk made came with its support, and no kept
        # support differs from the value's nonzero positions
        assert all(end.values[x]._nz is not None for x in made)
        for value in (*m.values.values(), *end.values.values()):
            assert value._nz is None or value._nz == support(value)


class TestInducedAutomorphism:
    def test_relation_loop_gives_identity(self, g2):
        m, _ = canonical_h_marking(g2)
        loop = pentagon_path(g2, *adjacent_flippable_pairs(g2)[0])
        t = induced_k_automorphism(loop, m)
        assert mat_eq(t, identity(4))

    def test_permutation_from_relabeled_values(self):
        # the underlying solver recovers a permutation matrix exactly
        perm = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        xs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, 3]]
        ys = [list(r) for r in
              [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, 3, 2]]]
        assert solve_transform(xs, ys) == perm

    def test_inconsistent_end_marking(self, g2):
        # an end marking that is not any linear image of the start one:
        # copy the start values and corrupt a single redundant entry
        m, _ = canonical_h_marking(g2)
        edges = g2.oriented_edges()
        xs = [list(m.value(e).coords) for e in edges]
        ys = [list(x) for x in xs]
        ys[-1][0] += 1
        assert solve_transform(xs, ys) is None

    @pytest.mark.parametrize("end, message", [
        ("deficient", "sample vectors span rank 1 < 2"),
        ("bumped", "end marking is not an integer transform of the start "
                   "marking"),
    ])
    def test_induced_matrix_errors(self, g1, end, message):
        # the identity closes the path, so the ends are compared directly
        psi = {h: h for h in g1.oriented_edges()}
        start, _ = canonical_h_marking(g1)
        if end == "deficient":  # values (x, 0) span rank 1
            start = end_marking = Marking(2, {oe(x, 1): KElement((x, 0))
                                              for x in g1.edge_ids()})
        else:  # one value off any linear image
            values = dict(start.values)
            values[4] += KElement((1, 0))
            end_marking = Marking(2, {oe(x, 1): v for x, v in values.items()})
        with pytest.raises(InducedAutomorphismError) as err:
            _induced_matrix(g1, psi, start, end_marking)
        assert str(err.value) == message

    def test_open_path_rejected(self, g2):
        m, _ = canonical_h_marking(g2)
        path = apply_path(g2, [flippable_edges(g2)[0]])
        from fatflip.flips import ClosureError
        with pytest.raises(ClosureError):
            induced_k_automorphism(path, m)

    def test_hyperelliptic_path(self, g1):
        # flipping 1, 2, 4 in order returns to the reference graph and
        # negates the homology marking: the induced map is -identity
        m, _ = canonical_h_marking(g1)
        path = apply_path(g1, [1, 2, 4])
        assert induced_k_automorphism(path, m) == [[-1, 0], [0, -1]]

    def test_closed_paths_act_symplectically(self, g1):
        # genuine mapping classes preserve the intersection form, so
        # every induced matrix on a homology marking has determinant 1
        m, _ = canonical_h_marking(g1)
        for seq in G1_CLOSED:
            path = apply_path(g1, seq)
            assert path.is_closed()
            t = induced_k_automorphism(path, m)
            assert t[0][0] * t[1][1] - t[0][1] * t[1][0] == 1, seq


    @staticmethod
    def span(values):
        """The Smith rank and invariants of the lattice the values span."""
        res = intlinalg.smith(intlinalg.transpose([v.coords for v in values]))
        return res.rank, res.invariants

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_walks_keep_the_span_of_the_values(self, genus):
        # the first half of _induced_matrix's proof: the start values, the
        # end values and both together span one lattice L.  With L inside
        # the span of both, equal rank and invariants make them equal.
        rng = random.Random("span/%d" % genus)
        graph = random_graph(genus, rng)
        for rank in range(1, 2 * genus + 1):
            onto = random_coherent_marking(graph, rank, rng)
            halved = random_gl(rank, rng)  # determinant +-2: index 2
            halved[0] = [2 * x for x in halved[0]]
            for start, top in ((onto, 1), (onto.transform(halved), 2)):
                path = random_flip_path(graph, 3 * genus + 6, rng)
                end = propagate_path(start, path.steps)
                ends = [start.values.values(), end.values.values()]
                spans = [self.span(v) for v in ends + [[*ends[0], *ends[1]]]]
                assert spans[0] == spans[1] == spans[2]
                assert spans[0][0] == rank and spans[0][1][-1] == top

    def closed_loops(self, g1):
        """Relation loops at random graphs of genus 1 to 3, the g1 closed
        sequences, and compose_closed products of both."""
        rng = random.Random("loops")
        for genus in (1, 2, 3):
            graph = random_graph(genus, rng)
            loops = [involution_pair(graph, e)
                     for e in rng.sample(flippable_edges(graph), 2)]
            loops += [pentagon_path(graph, *p) for p in
                      rng.sample(adjacent_flippable_pairs(graph), 2)]
            loops += [commuting_loop(graph, *p) for p in
                      disjoint_flippable_pairs(graph)[:2]]
            loops.append(compose_closed(loops[0], loops[-1]))
            yield from ((graph, loop) for loop in loops)
        g1_loops = [apply_path(g1, seq) for seq in G1_CLOSED]
        yield from ((g1, loop) for loop in g1_loops)
        for p, q in zip(g1_loops, g1_loops[1:] + g1_loops[:1]):
            yield g1, compose_closed(p, q)

    def test_induced_matrix_is_unimodular(self, g1):
        # the theorem of _induced_matrix's docstring, for markings of a
        # random rank and of full rank 2g.  Below 2g a loop's map need
        # not keep the kernel of the marking, and then no T exists
        rng = random.Random("unimodular")
        outcomes = collections.Counter()
        for graph, loop in self.closed_loops(g1):
            full = 2 * graph.genus()
            for rank in (rng.randint(1, full), full):
                marking = random_coherent_marking(graph, rank, rng)
                try:
                    t = induced_k_automorphism(loop, marking)
                except InducedAutomorphismError as err:
                    assert rank < full and str(err) == (
                        "end marking is not an integer transform of the "
                        "start marking")
                    outcomes["none"] += 1
                    continue
                assert intlinalg.is_unimodular(t)
                outcomes["moved" if t != identity(rank) else "fixed"] += 1
        assert outcomes["moved"] >= 10 and outcomes["fixed"] >= 30, outcomes

    def test_one_smith_per_closed_path(self, g1, monkeypatch):
        rng = random.Random("count")
        calls = []
        smith = intlinalg.smith

        def counted(a):
            calls.append(a)
            return smith(a)
        monkeypatch.setattr(intlinalg, "smith", counted)
        for graph, loop in self.closed_loops(g1):
            marking = random_coherent_marking(graph, 2 * graph.genus(), rng)
            calls.clear()
            induced_k_automorphism(loop, marking)
            assert len(calls) == 1


class TestCocycleCondition:
    def test_identity_second_path(self, g2):
        m, _ = canonical_h_marking(g2)
        p1 = pentagon_path(g2, *adjacent_flippable_pairs(g2)[0])
        p2 = apply_path(g2, [])
        for which in "mjs":
            verify_cocycle_condition(p1, p2, m, which)
            verify_cocycle_condition(p2, p1, m, which)

    def test_two_relation_loops(self, g2):
        m, _ = canonical_h_marking(g2)
        pairs = adjacent_flippable_pairs(g2)
        p1 = pentagon_path(g2, *pairs[0])
        p2 = involution_pair(g2, flippable_edges(g2)[-1])
        for which in "mjs":
            verify_cocycle_condition(p1, p2, m, which)

    def test_nontrivial_action(self, g1):
        # the closed path [1, 2] induces an order-three map on homology;
        # the twisted condition must hold with that action, and summing
        # the path three times telescopes back to zero
        from fatflip.cocycles import compose_closed
        from fatflip.intlinalg import identity, mat_eq, mat_mul
        m, _ = canonical_h_marking(g1)
        p = apply_path(g1, [1, 2])
        t = induced_k_automorphism(p, m)
        assert mat_eq(mat_mul(t, mat_mul(t, t)), identity(2))
        assert not mat_eq(t, identity(2))
        for which in "mjs":
            verify_cocycle_condition(p, p, m, which)
        cube = compose_closed(compose_closed(p, p), p)
        assert mat_eq(induced_k_automorphism(cube, m), identity(2))
        for which in "mjs":
            total, _ = path_sum(cube, m, which)
            one, _ = path_sum(p, m, which)
            expected = (one + one.transform(t)
                        + one.transform(mat_mul(t, t)))
            assert total == expected

    def test_loop_with_reverse(self, g2):
        rng = random.Random(40)
        m, _ = canonical_h_marking(g2)
        fwd = random_flip_path(g2, 4, rng)
        back = reverse_path(fwd)
        loop = concat_paths(fwd, back)
        p2 = involution_pair(g2, flippable_edges(g2)[0])
        for which in "mjs":
            verify_cocycle_condition(loop, p2, m, which)
            verify_cocycle_condition(p2, loop, m, which)

    def test_untwisted_action_is_caught(self, g1, monkeypatch):
        # negative control: the closed path [1, 2] has m value (1, -2) and
        # an order-three T with T.m = (1, 1), so the composite gives
        # (2, -1); with T replaced by the identity the check expects
        # (1, -2) + (1, -2) = (2, -4) and must refuse
        from fatflip import cocycles
        m, _ = canonical_h_marking(g1)
        p = apply_path(g1, [1, 2])
        assert path_sum(p, m, "m")[0] == KElement((1, -2))
        monkeypatch.setattr(cocycles, "_induced_matrix",
                            lambda start, psi, marking, end: identity(2))
        with pytest.raises(CocycleConditionError) as err:
            verify_cocycle_condition(p, p, m, "m")
        assert err.value.lhs == KElement((2, -1))
        assert err.value.rhs == KElement((2, -4))

    def test_each_path_is_walked_once(self, g2, monkeypatch):
        # the first path's total and its end marking, which T1 is read
        # from, come from one walk: three walkers for three paths
        from fatflip import markings
        walkers = []
        init = markings._Walker.__init__

        def counted(self, marking):
            walkers.append(marking)
            init(self, marking)
        monkeypatch.setattr(markings._Walker, "__init__", counted)
        m, _ = canonical_h_marking(g2)
        loop = pentagon_path(g2, *adjacent_flippable_pairs(g2)[0])
        for which in "mjs":
            walkers.clear()
            verify_cocycle_condition(loop, loop, m, which)
            assert len(walkers) == 3, which

    @pytest.mark.parametrize("case, error, message", [
        ("open first path", ClosureError,
         "path does not return to its starting graph"),
        ("second path elsewhere", ClosureError,
         "paths are not based at the same graph"),
        ("unknown cocycle", CocycleError, "unknown cocycle 'q'"),
        ("value missing", MarkingDomainError, "no value on 0+"),
        ("rank-deficient marking", InducedAutomorphismError,
         "sample vectors span rank 3 < 4"),
    ])
    def test_refusals(self, g2, case, error, message):
        m, _ = canonical_h_marking(g2)
        loop = pentagon_path(g2, *adjacent_flippable_pairs(g2)[0])
        step = apply_path(g2, [flippable_edges(g2)[0]])
        args = {
            "open first path": (step, apply_path(step.end, []), m, "m"),
            "second path elsewhere": (loop, apply_path(step.end, []), m, "m"),
            "unknown cocycle": (loop, loop, m, "q"),
            "value missing": (loop, loop, Marking(4, {
                oe(x, 1): v for x, v in m.values.items() if x}), "m"),
            # coherent, but its values span rank 3 only
            "rank-deficient marking": (loop, loop, m.transform(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]),
                "j"),
        }[case]
        with pytest.raises(error) as err:
            verify_cocycle_condition(*args)
        assert (type(err.value), str(err.value)) == (error, message)


class TestLocalCoherence:
    """Each step checks coherence at both heads before it reads a value."""

    STEPS = (lambda path, marking: cocycle_m(path.steps[0], marking),
             lambda path, marking: cocycle_j(path.steps[0], marking),
             lambda path, marking: cocycle_s(path.steps[0], marking),
             lambda path, marking: propagate(marking, path.steps[0]),
             lambda path, marking: path_sum(path, marking, "s"))

    @staticmethod
    def reference(g1):
        # coherent on g1; flipping 1+ gives a = 3-, b = 0+, c = 2-, d = 4+
        values = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
        return apply_path(g1, [1]), values

    @staticmethod
    def marking(values, bumped=(), missing=()):
        for x in bumped:
            values[x] = (values[x][0] + 1, values[x][1])
        return Marking(2, {oe(x, 1): KElement(v) for x, v in values.items()
                           if x not in missing})

    @pytest.mark.parametrize("bumped, head", [((0,), "1+"), ((4,), "1-"),
                                              ((0, 4), "1+")])
    def test_incoherent_head_named(self, g1, bumped, head):
        path, values = self.reference(g1)
        bad = self.marking(values, bumped)
        for step in self.STEPS:
            with pytest.raises(CoherenceError) as err:
                step(path, bad)
            assert str(err.value) == "marking incoherent at the head of " + head

    @pytest.mark.parametrize("bumped, head", [((0,), "1+"), ((4,), "1-"),
                                              ((0, 4), "1+")])
    @pytest.mark.parametrize("at", [0, 11])
    def test_incoherent_head_named_at_rank_12(self, g1, bumped, head, at):
        # at rank 12 a step reads the kept supports, not every coordinate;
        # coordinate 11 lies outside every other value's support
        path, values = self.reference(g1)
        wide = {oe(x, 1): KElement(v + (0,) * 10) for x, v in values.items()}
        for step in self.STEPS:
            step(path, Marking(12, wide))
        for x in bumped:
            wide[oe(x, 1)] += KElement.basis(12, at)
        for step in self.STEPS:
            with pytest.raises(CoherenceError) as err:
                step(path, Marking(12, wide))
            assert str(err.value) == "marking incoherent at the head of " + head

    @pytest.mark.parametrize("missing, name", [(1, "1+"), (3, "3-"),
                                               (4, "4+")])
    def test_missing_edge_named(self, g1, missing, name):
        path, values = self.reference(g1)
        partial = self.marking(values, missing=(missing,))
        for step in self.STEPS:
            with pytest.raises(MarkingDomainError) as err:
                step(path, partial)
            assert str(err.value) == "no value on " + name

    @pytest.mark.parametrize("bumped, missing, error, message", [
        # head(1+) is checked before c = 2- and d = 4+ are read
        ((0,), (2,), CoherenceError, "marking incoherent at the head of 1+"),
        ((0,), (4,), CoherenceError, "marking incoherent at the head of 1+"),
        # d = 4+ is read before head(1-) is checked
        ((2,), (4,), MarkingDomainError, "no value on 4+"),
    ])
    def test_first_failure_in_step_order(self, g1, bumped, missing, error,
                                         message):
        path, values = self.reference(g1)
        bad = self.marking(values, bumped, missing)
        for step in self.STEPS:
            with pytest.raises(error) as err:
                step(path, bad)
            assert str(err.value) == message
