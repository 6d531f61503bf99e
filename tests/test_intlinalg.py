import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from fatflip import intlinalg as la


def random_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def textbook_mul(a, b):
    """The dense definition: (a b)[i][j] = sum over k of a[i][k] b[k][j]."""
    inner, width = len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner))
             for j in range(width)] for i in range(len(a))]


def sparse_matrix(rng, m, n):
    """Mostly zeros, with one zero row and one zero column when there
    are rows and columns to spare."""
    a = [[rng.choice((0, 0, 0, 0, rng.randint(-7, 7))) for _ in range(n)]
         for _ in range(m)]
    if m > 1:
        a[rng.randrange(m)] = [0] * n
    if n > 1:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    return a


def assert_int_matrix(got, want):
    assert got == want
    assert all(type(x) is int for row in got for x in row)


class TestProducts:
    SHAPES = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1),
              (3, 5, 2), (2, 3, 7), (7, 7, 7), (4, 0, 3), (0, 4, 3)]

    @pytest.mark.parametrize("m, k, n", SHAPES)
    def test_mat_mul_against_textbook(self, m, k, n):
        rng = random.Random(100 * m + 10 * k + n)
        for _ in range(20):
            a = sparse_matrix(rng, m, k)
            b = sparse_matrix(rng, k, n) if k else []
            assert_int_matrix(la.mat_mul(a, b), textbook_mul(a, b))

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (6, 1), (3, 5),
                                      (5, 3), (0, 4), (4, 0)])
    def test_mat_vec_against_textbook(self, m, n):
        rng = random.Random(10 * m + n)
        for _ in range(20):
            a = sparse_matrix(rng, m, n)
            v = [rng.randint(-5, 5) for _ in range(n)]
            want = [row[0] for row in textbook_mul(a, [[x] for x in v])] \
                if n else [0] * m
            got = la.mat_vec(a, v)
            assert got == want
            assert all(type(x) is int for x in got)

    def test_empty_inputs(self):
        assert la.mat_mul([], []) == []
        assert la.mat_mul([], [[1, 2]]) == []
        assert la.mat_mul([[], []], []) == [[], []]
        assert la.mat_vec([], [1, 2]) == []
        assert la.mat_vec([[], []], []) == [0, 0]

    def test_zero_rows_and_columns_stay_zero(self):
        a = [[0, 0, 0], [1, 0, 2]]
        b = [[0, 3], [0, 4], [0, 5]]
        assert la.mat_mul(a, b) == [[0, 0], [0, 13]]
        assert la.mat_vec(a, [7, 8, 9]) == [0, 25]


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
