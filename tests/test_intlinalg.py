import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from fatflip import intlinalg as la


def random_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestSmith:
    def test_against_sympy(self):
        rng = random.Random(11)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, m, n)
            res = la.smith(a)
            assert la.mat_eq(la.mat_mul(res.u, la.mat_mul(a, res.v)), res.s)
            assert la.mat_eq(la.mat_mul(res.u, res.u_inv), la.identity(m))
            assert la.mat_eq(la.mat_mul(res.v, res.v_inv), la.identity(n))
            ours = res.invariants
            ref = smith_normal_form(Matrix(a))
            theirs = [abs(ref[i, i]) for i in range(min(m, n)) if ref[i, i]]
            assert ours == theirs

    def test_divisibility_chain(self):
        res = la.smith([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        inv = res.invariants
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


class TestCokernel:
    def test_projection_section(self):
        rng = random.Random(5)
        for _ in range(50):
            n, k = rng.randint(2, 6), rng.randint(0, 4)
            rels = random_matrix(rng, n, k) if k else [[] for _ in range(n)]
            cok = la.cokernel(rels)
            free = cok.free_rank
            if free:
                prod = la.mat_mul(cok.projection, cok.section)
                assert la.mat_eq(prod, la.identity(free))
            # relations die in the quotient
            for j in range(k):
                col = [rels[i][j] for i in range(n)]
                assert all(x == 0 for x in la.mat_vec(cok.projection, col))


class TestSolveTransform:
    def test_recovers_matrix(self):
        rng = random.Random(3)
        for _ in range(50):
            r = rng.randint(1, 4)
            t = random_matrix(rng, r, r)
            xs = [random_matrix(rng, 1, r)[0] for _ in range(r + 2)]
            res = la.smith([[x[i] for x in xs] for i in range(r)])
            if res.rank < r:
                continue
            ys = [la.mat_vec(t, x) for x in xs]
            assert la.solve_transform(xs, ys) == t

    def test_inconsistent_data(self):
        xs = [[1, 0], [0, 1], [1, 1]]
        ys = [[1, 0], [0, 1], [0, 0]]
        assert la.solve_transform(xs, ys) is None

    def test_deficient_rank_raises(self):
        with pytest.raises(la.LinAlgError):
            la.solve_transform([[1, 0], [2, 0]], [[1, 0], [2, 0]])


class TestUnimodular:
    def test_invert(self):
        # products of elementary matrices are invertible over Z
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = la.identity(n)
            for _ in range(15):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.choice((-2, -1, 1, 2))
                    m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            assert la.is_unimodular(m)

    def test_reject_non_unimodular(self):
        assert not la.is_unimodular([[2, 0], [0, 1]])
        assert not la.is_unimodular([[1, 0, 0], [0, 1, 0]])
        assert not la.is_unimodular([])


class TestSymplecticBasis:
    def test_standard_form_output(self):
        rng = random.Random(21)
        for _ in range(40):
            g = rng.randint(1, 3)
            n = 2 * g
            # conjugate the standard form by a random unimodular matrix
            s = la.identity(n)
            for _ in range(20):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    q = rng.choice((-2, -1, 1, 2))
                    s[i] = [x + q * y for x, y in zip(s[i], s[j])]
            pairing = la.mat_mul(la.transpose(s),
                                 la.mat_mul(la.standard_symplectic(g), s))
            basis = la.symplectic_basis(pairing)
            grams = la.mat_mul(la.transpose(basis),
                               la.mat_mul(pairing, basis))
            assert la.mat_eq(grams, la.standard_symplectic(g))

    def test_reject_non_unimodular(self):
        with pytest.raises(la.LinAlgError):
            la.symplectic_basis([[0, 2], [-2, 0]])

    def test_reject_odd_rank(self):
        with pytest.raises(la.LinAlgError):
            la.symplectic_basis([[0]])
