import operator
import random
from functools import reduce

import pytest

from fatflip.abelian import KElement, sym_pair, wedge2, wedge3
from fatflip.cocycles import (cocycle_j, cocycle_m, cocycle_s,
                              compose_closed, induced_k_automorphism,
                              path_sum, verify_cocycle_condition, walk_values,
                              zero_value)
from fatflip.fatgraph import oe
from fatflip.flips import (adjacent_flippable_pairs, apply_path, flip,
                           flippable_edges, involution_pair, pentagon_path,
                           concat_paths, reverse_path)
from fatflip.intlinalg import identity, mat_eq, solve_transform
from fatflip.markings import (CoherenceError, Marking, MarkingDomainError,
                              canonical_h_marking, propagate, propagate_path)
from fatflip.randgen import (random_coherent_marking, random_flip_path,
                             random_graph)
from fatflip.selftest import SelfTestFailure, check_relation_loop


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

    def test_step_values_sum_to_path_sum(self):
        rng = random.Random(25)
        g = random_graph(2, rng)
        m = random_coherent_marking(g, 3, rng)
        path = random_flip_path(g, 6, rng)
        for which in "mjs":
            values = [value for value, _ in walk_values(path, m, which)]
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
                          (value for value, _ in walk_values(path, m, which)),
                          zero_value(which, m.rank))
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
        for seq in ([1, 2], [1, 2, 3], [2, 3, 4], [1, 4, 5], [4, 2, 3],
                    [1, 2, 4], [1, 3, 5]):
            path = apply_path(g1, seq)
            assert path.is_closed()
            t = induced_k_automorphism(path, m)
            assert t[0][0] * t[1][1] - t[0][1] * t[1][0] == 1, seq


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


class TestLocalCoherence:
    """Each step checks coherence at both heads before it reads a value."""

    STEPS = (cocycle_m, cocycle_j, cocycle_s,
             lambda ctx, marking: propagate(marking, ctx))

    @staticmethod
    def reference(g1):
        # coherent on g1; flipping 1+ gives a = 3-, b = 0+, c = 2-, d = 4+
        values = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
        _, ctx = flip(g1, 1)
        return ctx, values

    @pytest.mark.parametrize("bumped, head", [((0,), "1+"), ((4,), "1-"),
                                              ((0, 4), "1+")])
    def test_incoherent_head_named(self, g1, bumped, head):
        ctx, values = self.reference(g1)
        for x in bumped:
            values[x] = (values[x][0] + 1, values[x][1])
        bad = Marking(2, {oe(x, 1): KElement(v) for x, v in values.items()})
        for step in self.STEPS:
            with pytest.raises(CoherenceError) as err:
                step(ctx, bad)
            assert str(err.value) == "marking incoherent at the head of " + head

    @pytest.mark.parametrize("missing, name", [(1, "1+"), (3, "3-"),
                                               (4, "4+")])
    def test_missing_edge_named(self, g1, missing, name):
        ctx, values = self.reference(g1)
        del values[missing]
        partial = Marking(2, {oe(x, 1): KElement(v)
                              for x, v in values.items()})
        for step in self.STEPS:
            with pytest.raises(MarkingDomainError) as err:
                step(ctx, partial)
            assert str(err.value) == "no value on " + name
