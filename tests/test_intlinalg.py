import random
from collections import Counter

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from fatflip import intlinalg as la
from fatflip.markings import canonical_h_marking, check_marking
from fatflip.randgen import random_graph


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


def eager_least_entry(m, t, nrows, ncols):
    pivot, best = None, None
    for i in range(t, nrows):
        row = m[i]
        for j in range(t, ncols):
            x = abs(row[j])
            if x and (best is None or x < best):
                if x == 1:
                    return i, j
                best, pivot = x, (i, j)
    return pivot


def eager_smith(a):
    """The Smith reduction that updates all four transforms on every
    move, kept as the oracle for the one that records its moves."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u, u_inv = la.identity(nrows), la.identity(nrows)
    v, v_inv = la.identity(ncols), la.identity(ncols)

    def row_add(i, j, q):
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(nrows):
            u_inv[r][j] -= q * u_inv[r][i]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for r in range(nrows):
            u_inv[r][i], u_inv[r][j] = u_inv[r][j], u_inv[r][i]

    def row_neg(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        for r in range(nrows):
            u_inv[r][i] = -u_inv[r][i]

    def col_add(j, i, q):
        for r in range(nrows):
            m[r][j] += q * m[r][i]
        for r in range(ncols):
            v[r][j] += q * v[r][i]
        v_inv[i] = [x - q * y for x, y in zip(v_inv[i], v_inv[j])]

    def col_swap(i, j):
        for r in range(nrows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    t = 0
    while t < min(nrows, ncols):
        pivot = eager_least_entry(m, t, nrows, ncols)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
        if m[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_add(i, t, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_add(j, t, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        if m[t][t] != 1:
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % m[t][t] for x in m[i][t + 1:])), None)
            if offender is not None:
                row_add(t, offender, 1)
                continue
        t += 1
    rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i])
    return m, u, v, u_inv, v_inv, rank


def oracle_matrices():
    """Seeded matrices of every shape the reduction meets: 1 x n, n x 1,
    zero, rank-deficient, non-square, sparse and with large entries."""
    rng = random.Random(20)
    out = [[[0]], [[0, 0, 0]], [[0], [0]], [[]], [], [[7]], [[-3, 6, 9]]]
    for _ in range(120):
        out.append(random_matrix(rng, 1, rng.randint(1, 7)))
        out.append(random_matrix(rng, rng.randint(1, 7), 1))
        out.append(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        k = rng.randint(1, min(m, n) - 1)  # rank at most k < min(m, n)
        out.append(la.mat_mul(random_matrix(rng, m, k, -3, 3),
                              random_matrix(rng, k, n, -3, 3)))
        out.append(sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
    for _ in range(30):
        out.append(random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5),
                                 -10 ** 12, 10 ** 12))
        out.append(la.zeros(rng.randint(1, 5), rng.randint(1, 5)))
    return out


class TestRecordedMoves:
    def test_fields_equal_the_eager_reduction(self):
        matrices = oracle_matrices()
        assert len(matrices) >= 500
        for a in matrices:
            res = la.smith(a)
            got = (res.s, res.u, res.v, res.u_inv, res.v_inv, res.rank)
            assert got == eager_smith(a), a
            for field in got[:5]:
                assert all(type(x) is int for row in field for x in row)

    def test_transforms_are_read_once(self):
        res = la.smith([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert res.u is res.u and res.v_inv is res.v_inv

    def test_rank_and_invariants_build_no_transform(self, monkeypatch):
        # check_marking and is_unimodular read only the rank and the
        # invariants, so no transform is replayed for them
        graph = random_graph(4, random.Random("identity/4"))
        marking, _ = canonical_h_marking(graph)
        unimodular = la.identity(6)
        unimodular[0][3] = 2

        def refuse(n):
            raise AssertionError("a transform was built")

        monkeypatch.setattr(la, "identity", refuse)
        check_marking(graph, marking)
        assert la.is_unimodular(unimodular)
        assert not la.is_unimodular([[2, 0], [0, 1]])


class TestCokernel:
    def test_projection_section(self):
        rng = random.Random(5)
        for _ in range(50):
            n, k = rng.randint(2, 6), rng.randint(0, 4)
            rels = random_matrix(rng, n, k) if k else [[] for _ in range(n)]
            cok = la.cokernel(rels)
            free = len(cok.projection)
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

    def test_rational_but_not_integral(self):
        assert la.solve_transform([[2]], [[1]]) is None

    def test_empty_x_vectors(self):
        # the only map from Z^0 is zero: a 1 x 0 matrix, or none at all
        assert la.solve_transform([[], []], [[0], [0]]) == [[]]
        assert la.solve_transform([[]], [[1]]) is None

    def test_consistent_prefix_nonzero_trailing_column(self):
        # T = identity fits the first two pairs; the third x is zero and
        # its y is not, a nonzero column of Y V past the rank
        xs = [[1, 0], [0, 1], [0, 0]]
        ys = [[1, 0], [0, 1], [1, 0]]
        assert oracle_solve_transform(xs, ys) is None
        assert la.solve_transform(xs, ys) is None

    def test_matches_oracle(self):
        rng = random.Random(25)
        kinds = Counter()
        for _ in range(400):
            r, rows = rng.randint(1, 3), rng.randint(1, 3)
            xs = [random_matrix(rng, 1, r, -3, 3)[0]
                  for _ in range(r + rng.randint(0, 2))]
            t = random_matrix(rng, rows, r, -3, 3)
            ys = [la.mat_vec(t, x) for x in xs]
            shape = rng.randrange(5)
            if shape == 1:  # random data
                ys = random_matrix(rng, len(xs), rows, -3, 3)
            elif shape == 2:  # only T / k fits
                xs = [[2 * c for c in x] for x in xs]
            elif shape == 3:  # one entry off
                ys[rng.randrange(len(ys))][rng.randrange(rows)] += 1
            elif shape == 4:  # a repeated x vector lowers the rank
                xs = xs[:1] * len(xs)
            outcomes = []
            for solve in (oracle_solve_transform, la.solve_transform):
                try:
                    got = solve(xs, ys)
                except la.LinAlgError as err:
                    got = str(err)
                outcomes.append(got)
            assert outcomes[0] == outcomes[1]
            kinds[type(outcomes[0]).__name__] += 1
        assert set(kinds) == {"list", "NoneType", "str"}

    def test_never_builds_the_column_transform(self, monkeypatch):
        # Y V comes from Smith's column moves; the n x n V of n samples
        # is never built, and T is what the oracle, which reads V, gives
        rng = random.Random(26)
        cases = []
        for _ in range(60):
            r = rng.randint(1, 4)
            xs = [random_matrix(rng, 1, r, -3, 3)[0]
                  for _ in range(r + rng.randint(0, 12))]
            t = random_matrix(rng, rng.randint(1, 4), r, -3, 3)
            ys = [la.mat_vec(t, x) for x in xs]
            if rng.random() < 0.3:
                ys[rng.randrange(len(ys))][0] += 1
            try:
                cases.append((xs, ys, oracle_solve_transform(xs, ys)))
            except la.LinAlgError:
                pass

        def refuse(res):
            raise AssertionError("SmithResult.v was read")
        monkeypatch.setattr(la.SmithResult, "v", property(refuse))
        for xs, ys, want in cases:
            assert la.solve_transform(xs, ys) == want
        kinds = {type(want).__name__ for _, _, want in cases}
        assert kinds == {"list", "NoneType"}


def oracle_solve_transform(xs, ys):
    """solve_transform with its former three consistency checks (the
    divisibility of each column of Y V by its invariant, zero columns of
    Y V past the rank, and T x == y), kept as an oracle."""
    if len(xs) != len(ys) or not xs:
        raise la.LinAlgError("need equally many x and y vectors")
    r = la._width(xs, "x vectors")
    x_mat = [[x[i] for x in xs] for i in range(r)]
    y_mat = [[y[i] for y in ys] for i in range(la._width(ys, "y vectors"))]
    res = la.smith(x_mat)
    if res.rank < r:
        raise la.LinAlgError("sample vectors span rank %d < %d"
                             % (res.rank, r))
    z = la.mat_mul(y_mat, res.v)
    w = la.zeros(len(y_mat), r)
    for j in range(len(xs)):
        if j < r:
            d = res.s[j][j]
            for i in range(len(y_mat)):
                if z[i][j] % d:
                    return None
                w[i][j] = z[i][j] // d
        elif any(z[i][j] for i in range(len(y_mat))):
            return None
    t = la.mat_mul(w, res.u)
    for x, y in zip(xs, ys):
        if la.mat_vec(t, x) != list(y):
            return None
    return t


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


def dense_symplectic_basis(pairing):
    """The dense symplectic reduction, which recomputes each pairing as a
    row product: the reference for the S and the LinAlgError text of
    ``symplectic_basis``, which follows the same steps on Gram rows."""
    n = len(pairing)
    if n % 2:
        raise la.LinAlgError("skew unimodular forms have even rank")
    for i in range(n):
        if pairing[i][i] != 0:
            raise la.LinAlgError("pairing is not alternating")
        for j in range(n):
            if pairing[i][j] != -pairing[j][i]:
                raise la.LinAlgError("pairing is not skew-symmetric")

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    def add_multiple(w, q, x):  # w + q * x
        return [a + q * b for a, b in zip(w, x)]

    remaining = [list(col) for col in la.identity(n)]
    columns = []
    while remaining:
        u = remaining.pop(0)
        up = la.mat_mul([u], pairing)[0]
        vals = [dot(up, w) for w in remaining]
        if all(x == 0 for x in vals):
            raise la.LinAlgError(
                "degenerate pairing: isotropic leftover vector")
        while True:
            nz = [k for k, x in enumerate(vals) if x]
            if len(nz) == 1 and abs(vals[nz[0]]) == 1:
                break
            if len(nz) == 1:
                raise la.LinAlgError("pairing is not unimodular (gcd %d)"
                                     % abs(vals[nz[0]]))
            k_small = min(nz, key=lambda k: abs(vals[k]))
            for k in nz:
                if k == k_small:
                    continue
                q = vals[k] // vals[k_small]
                vals[k] -= q * vals[k_small]
                remaining[k] = add_multiple(remaining[k], -q,
                                            remaining[k_small])
        k = nz[0]
        v = remaining.pop(k)
        if vals[k] == -1:
            v = [-x for x in v]
        vp = la.mat_mul([v], pairing)[0]
        for idx, w in enumerate(remaining):
            pu, pv = dot(up, w), dot(vp, w)
            if pu:
                w = add_multiple(w, -pu, v)
            if pv:
                w = add_multiple(w, pv, u)
            remaining[idx] = w
        columns.append(u)
        columns.append(v)

    s = [[columns[j][i] for j in range(n)] for i in range(n)]
    check = la.mat_mul(la.transpose(s),
                       la.mat_mul([list(r) for r in pairing], s))
    if not la.mat_eq(check, la.standard_symplectic(n // 2)):
        raise la.LinAlgError(
            "symplectic reduction failed to reach standard form")
    return s


def conjugated(rng, form, moves):
    """S^T * form * S for a random product S of elementary moves."""
    n = len(form)
    s = la.identity(n)
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice((-2, -1, 1, 2))
            s[i] = [x + q * y for x, y in zip(s[i], s[j])]
    return la.mat_mul(la.transpose(s), la.mat_mul(form, s))


def conjugated_standard_forms():
    rng = random.Random(21)
    for _ in range(40):
        g = rng.randint(1, 3)
        yield g, conjugated(rng, la.standard_symplectic(g), 20)


def graph_block(genus):
    return random_graph(genus, random.Random(genus))._pairing_block()


def random_skew_form(rng):
    """A skew form that symplectic_basis accepts, finds degenerate or
    finds of gcd d > 1, now and then with one entry broken."""
    n = 2 * rng.randint(1, 4)
    if rng.random() < 0.5:  # blocks d * J_1, d in {0, 1, 2, 3}, conjugated
        form = la.zeros(n, n)
        for i in range(0, n, 2):
            d = rng.choice((0, 1, 1, 1, 1, 2, 3))
            form[i][i + 1], form[i + 1][i] = d, -d
        form = conjugated(rng, form, rng.randint(0, 12))
    else:  # sparse random entries above the diagonal
        form = la.zeros(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                d = rng.choice((0, 0, 0, 1, -1, 2, -3))
                form[i][j], form[j][i] = d, -d
    if rng.random() < 0.05:
        form[rng.randrange(n)][rng.randrange(n)] += 1
    return form


def outcome(basis, pairing):
    try:
        return basis(pairing)
    except la.LinAlgError as err:
        return str(err)


class TestSymplecticBasis:
    def test_standard_form_output(self):
        for g, pairing in conjugated_standard_forms():
            basis = la.symplectic_basis(pairing)
            grams = la.mat_mul(la.transpose(basis),
                               la.mat_mul(pairing, basis))
            assert la.mat_eq(grams, la.standard_symplectic(g))

    def test_same_basis_as_the_dense_reduction(self):
        blocks = [graph_block(g) for g in range(1, 33)]
        blocks += [pairing for _, pairing in conjugated_standard_forms()]
        for pairing in blocks:
            assert la.symplectic_basis(pairing) \
                == dense_symplectic_basis(pairing)

    def test_same_verdict_as_the_dense_reduction(self):
        rng = random.Random(23)
        kinds = Counter()
        for _ in range(1200):
            pairing = random_skew_form(rng)
            got = outcome(la.symplectic_basis, pairing)
            assert got == outcome(dense_symplectic_basis, pairing)
            kinds[got if isinstance(got, str) else "accepted"] += 1
        assert kinds["accepted"] >= 200
        assert kinds["degenerate pairing: isotropic leftover vector"] >= 200
        assert sum(n for text, n in kinds.items() if "gcd" in text) >= 200
        assert kinds["pairing is not skew-symmetric"] >= 10

    def test_no_dense_products(self, monkeypatch):
        pairing = graph_block(16)
        want = dense_symplectic_basis(pairing)

        def fail(*args):
            raise AssertionError("symplectic_basis made a dense product")
        monkeypatch.setattr(la, "mat_mul", fail)
        monkeypatch.setattr(la, "transpose", fail)
        assert la.symplectic_basis(pairing) == want

    def test_reject_non_unimodular(self):
        with pytest.raises(la.LinAlgError):
            la.symplectic_basis([[0, 2], [-2, 0]])

    def test_reject_odd_rank(self):
        with pytest.raises(la.LinAlgError):
            la.symplectic_basis([[0]])

    @pytest.mark.parametrize("pairing, shape", [
        ([[0, 1, 0], [-1, 0, 0]], "got 2 rows of lengths [3]"),
        ([[0, 1], [-1]], "got 2 rows of lengths [1, 2]"),
    ], ids=["wide", "ragged"])
    def test_reject_non_square(self, pairing, shape):
        with pytest.raises(la.LinAlgError) as err:
            la.symplectic_basis(pairing)
        assert str(err.value) == "pairing must be square, " + shape


class TestRaggedRows:
    @pytest.mark.parametrize("call, message", [
        (lambda: la.smith([[1, 2], [3]]), "matrix rows have lengths [1, 2]"),
        (lambda: la.is_unimodular([[1, 0], [0]]),
         "matrix rows have lengths [1, 2]"),
        (lambda: la.solve_transform([[1, 0], [0]], [[1, 0], [0, 1]]),
         "x vectors have lengths [1, 2]"),
        (lambda: la.solve_transform([[1, 0], [0, 1]], [[1], [0, 1]]),
         "y vectors have lengths [1, 2]"),
    ], ids=["smith", "is_unimodular", "solve_transform-x",
            "solve_transform-y"])
    def test_rejected_with_the_lengths(self, call, message):
        with pytest.raises(la.LinAlgError) as err:
            call()
        assert str(err.value) == message
