import operator
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, Tuple

import pytest
from hypothesis import given, strategies as st

from fatflip.abelian import (KElement, RankMismatchError, SymWedge, Wedge2,
                             Wedge3, _add_wedge2, _add_wedge3, _common_rank,
                             _SparseTensor, sym_pair, wedge2, wedge3)
from fatflip.cocycles import path_sums
from fatflip.fatgraph import oe
from fatflip.flips import adjacent_flippable_pairs, pentagon_path
from fatflip.intlinalg import mat_mul
from fatflip.markings import Marking, SymplecticForm, canonical_h_marking
from fatflip.randgen import random_flip_path, standard_surface_graph


def e(i, rank=4):
    return KElement.basis(rank, i)


def vec(*coords):
    return KElement(coords)


vectors = st.builds(KElement, st.lists(st.integers(-9, 9), min_size=4,
                                       max_size=4))


class TestKElement:
    def test_roundtrip_text(self):
        v = KElement.from_text("1 0 -2 0")
        assert v.coords == (1, 0, -2, 0)
        assert str(v) == "1 0 -2 0"

    def test_arithmetic(self):
        assert e(0) + e(1) == vec(1, 1, 0, 0)
        assert -e(2) == vec(0, 0, -1, 0)
        assert 3 * e(0) - e(0) == vec(2, 0, 0, 0)
        assert KElement.zero(4).is_zero()

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            KElement((1, 2)) + KElement((1, 2, 3))

    @pytest.mark.parametrize("combine", [operator.add, operator.sub,
                                         wedge2, lambda x, y: wedge3(x, y, x)])
    @pytest.mark.parametrize("ranks", [(2, 3), (3, 2)])
    def test_rank_mismatch_text(self, combine, ranks):
        x, y = (KElement(range(1, r + 1)) for r in ranks)
        with pytest.raises(RankMismatchError) as err:
            combine(x, y)
        assert str(err.value) == "mixed ranks: [2, 3]"

    @pytest.mark.parametrize("combine", [operator.add, operator.sub])
    @pytest.mark.parametrize("other, name", [
        (wedge2(KElement((1, 0)), KElement((0, 1))), "Wedge2"),
        ((1, 0), "tuple"),
    ], ids=["wedge2", "tuple"])
    def test_other_types_rejected_in_both_orders(self, combine, other, name):
        k = KElement((1, 0))
        with pytest.raises(TypeError) as err:
            combine(k, other)
        assert str(err.value) == "cannot combine KElement with " + name
        with pytest.raises(TypeError):
            combine(other, k)


class TestWedge2:
    def test_square_is_zero(self):
        assert wedge2(e(0), e(0)).is_zero()

    def test_antisymmetry_normal_form(self):
        assert wedge2(e(1), e(0)) == -wedge2(e(0), e(1))
        assert wedge2(e(1), e(0)).coeffs == {(0, 1): -1}

    def test_hand_expansion(self):
        # (e1 + e2) ^ e2 = e1 ^ e2
        assert wedge2(e(0) + e(1), e(1)) == wedge2(e(0), e(1))

    @given(vectors, vectors, vectors, st.integers(-5, 5))
    def test_bilinear(self, x, y, z, n):
        assert wedge2(x + n * z, y) == wedge2(x, y) + n * wedge2(z, y)
        assert wedge2(x, y + n * z) == wedge2(x, y) + n * wedge2(x, z)

    @given(vectors, vectors)
    def test_alternating(self, x, y):
        assert wedge2(x, y) == -wedge2(y, x)
        assert wedge2(x, x).is_zero()


class TestWedge3:
    def test_repeated_factor(self):
        assert wedge3(e(0), e(1), e(0)).is_zero()

    def test_odd_permutation(self):
        assert wedge3(e(1), e(0), e(2)) == -wedge3(e(0), e(1), e(2))

    def test_hand_expansion(self):
        # (e1 + e2) ^ e2 ^ e3 = e1 ^ e2 ^ e3
        assert wedge3(e(0) + e(1), e(1), e(2)) == wedge3(e(0), e(1), e(2))

    def test_str(self):
        v = wedge3(e(0), e(1), e(2)) - 2 * wedge3(e(0), e(1), e(3))
        assert str(v) == "+1*e1^e2^e3 -2*e1^e2^e4"

    @given(vectors, vectors, vectors, vectors, st.integers(-4, 4))
    def test_trilinear(self, x, y, z, w, n):
        assert (wedge3(x + n * w, y, z)
                == wedge3(x, y, z) + n * wedge3(w, y, z))

    @given(vectors, vectors, vectors)
    def test_flip_orientation_identity(self, a, b, c):
        # a ^ b ^ c == c ^ d ^ a whenever a + b + c + d == 0
        d = -(a + b + c)
        assert wedge3(a, b, c) == wedge3(c, d, a)


class TestSymPair:
    def test_zero_absorbs(self):
        assert sym_pair(Wedge2.zero(4), wedge2(e(0), e(1))).is_zero()

    def test_str(self):
        v = sym_pair(wedge2(e(0), e(1)),
                     wedge2(e(0), e(2)) - wedge2(e(1), e(3)))
        assert str(v) == "+1*(e1^e2)*(e1^e3) -1*(e1^e2)*(e2^e4)"

    def test_symmetric(self):
        u = wedge2(e(0), e(1))
        v = wedge2(e(2), e(3) + e(0))
        assert sym_pair(u, v) == sym_pair(v, u)

    def test_diagonal_coefficient(self):
        u = wedge2(e(0), e(1))
        sq = sym_pair(u, u)
        assert sq.coeffs == {((0, 1), (0, 1)): 2}

    @given(vectors, vectors, vectors, vectors, st.integers(-4, 4))
    def test_bilinear(self, x, y, z, w, n):
        u, v, t = wedge2(x, y), wedge2(z, w), wedge2(x, w)
        assert sym_pair(u + n * t, v) == sym_pair(u, v) + n * sym_pair(t, v)


class TestTransforms:
    @pytest.mark.parametrize("value", [
        vec(1, 2, 3),
        wedge2(e(0, 3), e(1, 3)),
        wedge3(e(0, 3), e(1, 3), e(2, 3)),
        sym_pair(wedge2(e(0, 3), e(1, 3)), wedge2(e(1, 3), e(2, 3))),
    ], ids=["k", "wedge2", "wedge3", "sym"])
    @pytest.mark.parametrize("matrix, message", [
        ([[1, 0]], "matrix row 0 has 2 columns, value has rank 3"),
        ([[1, 0, 0], [0, 1], [0, 0, 1]],
         "matrix row 1 has 2 columns, value has rank 3"),
        ([[1, 0, 0, 0]] * 3, "matrix row 0 has 4 columns, value has rank 3"),
    ], ids=["narrow", "ragged", "wide"])
    def test_wrong_width_names_the_row(self, value, matrix, message):
        with pytest.raises(RankMismatchError) as err:
            value.transform(matrix)
        assert str(err.value) == message

    def test_k_functorial(self):
        # Lambda^2 of a composition, spot check against composing values
        s = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        t = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
        v = wedge2(vec(1, 2, 0, -1), vec(0, 1, 3, 1))
        assert v.transform(mat_mul(s, t)) == v.transform(t).transform(s)

    def test_wedge3_transform_matches_columns(self):
        t = [[1, 0, 2, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, -1, 0, 1]]
        x, y, z = vec(1, 0, 1, 0), vec(0, 2, 0, 1), vec(1, 1, 1, 1)

        def apply(m, v):
            return KElement(tuple(sum(m[i][j] * v.coords[j]
                                      for j in range(4)) for i in range(4)))

        assert (wedge3(x, y, z).transform(t)
                == wedge3(apply(t, x), apply(t, y), apply(t, z)))

    def test_sym_transform_matches_pairs(self):
        t = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 2, 1, 0], [1, 0, 0, 1]]
        x, y, z, w = vec(1, 0, 0, 1), vec(0, 1, 1, 0), vec(1, 1, 0, 0), \
            vec(0, 0, 1, 1)

        def apply(m, v):
            return KElement(tuple(sum(m[i][j] * v.coords[j]
                                      for j in range(4)) for i in range(4)))

        value = sym_pair(wedge2(x, y), wedge2(z, w))
        moved = sym_pair(wedge2(apply(t, x), apply(t, y)),
                         wedge2(apply(t, z), apply(t, w)))
        assert value.transform(t) == moved

    def test_equal_to_dense_oracle(self):
        # random values with arbitrary coefficients, odd ones on diagonal
        # S^2 keys included, under square and non-square matrices
        rng = random.Random(2812)
        cases = odd_diagonal = 0
        for rank in range(1, 7):
            for _ in range(6):
                widths = [rng.randint(1, 7) for _ in range(2)]
                t = random_matrix(rng, widths[0], rank)
                s = random_matrix(rng, widths[1], widths[0])
                for value in random_tensors(rng, rank):
                    got = value.transform(t)
                    assert got == dense_transform(value, t)
                    assert all(type(c) is int for c in got.coeffs.values())
                    assert (value.transform(mat_mul(s, t))
                            == got.transform(s))
                    cases += 1
                    odd_diagonal += sum(k[0] == k[1] and c % 2 == 1
                                        for k, c in value.coeffs.items()
                                        if isinstance(value, SymWedge))
        assert cases == 6 * 6 * 3
        assert odd_diagonal > 50


def dense_wedge2(x: KElement, y: KElement) -> Wedge2:
    """The all-pairs wedge2 loop, kept as the oracle for the sparse one."""
    r = _common_rank(x, y)
    coeffs: Dict[Tuple[int, int], int] = {}
    for i, j in combinations(range(r), 2):
        c = x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]
        if c:
            coeffs[(i, j)] = c
    return Wedge2(r, coeffs)


def dense_wedge3(x: KElement, y: KElement, z: KElement) -> Wedge3:
    """The all-triples wedge3 loop, kept as the oracle for the sparse one."""
    r = _common_rank(x, y, z)
    coeffs: Dict[Tuple[int, int, int], int] = {}
    for i, j, k in combinations(range(r), 3):
        # 3x3 determinant of the (i, j, k) minor of the column matrix [x y z]
        xi, xj, xk = x.coords[i], x.coords[j], x.coords[k]
        yi, yj, yk = y.coords[i], y.coords[j], y.coords[k]
        zi, zj, zk = z.coords[i], z.coords[j], z.coords[k]
        c = (xi * (yj * zk - yk * zj)
             - yi * (xj * zk - xk * zj)
             + zi * (xj * yk - xk * yj))
        if c:
            coeffs[(i, j, k)] = c
    return Wedge3(r, coeffs)


def oracle_cases(rng, rank):
    """Triples of vectors: zero, disjoint supports, full supports, huge."""
    def draw(support, big=False):
        coords = [0] * rank
        for i in support:
            c = rng.randint(-3, 3) or 1
            coords[i] = c * 2 ** 70 + rng.randint(-5, 5) if big else c
        return KElement(coords)

    everything = range(rank)
    yield [KElement.zero(rank)] * 3
    yield [KElement.zero(rank), draw(everything), draw(everything)]
    shuffled = list(everything)
    rng.shuffle(shuffled)
    yield [draw(shuffled[k::3]) for k in range(3)]
    yield [draw(everything) for _ in range(3)]
    yield [draw(everything, big=True) for _ in range(3)]
    yield [draw(rng.sample(shuffled, rng.randint(1, rank)),
                big=rng.random() < 0.5) for _ in range(3)]


def random_matrix(rng, rows, cols):
    return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]


def random_coeff(rng):
    c = rng.randint(-9, 9) or 1
    return c * 2 ** 70 + rng.randint(-3, 3) if rng.random() < 0.3 else c


def random_tensors(rng, rank):
    """A Wedge2, a Wedge3 and a SymWedge of rank ``rank`` on random keys;
    the diagonal keys of the SymWedge get odd coefficients."""
    pairs = list(combinations(range(rank), 2))
    for cls, keys in ((Wedge2, pairs),
                      (Wedge3, list(combinations(range(rank), 3))),
                      (SymWedge, list(combinations_with_replacement(pairs,
                                                                    2)))):
        chosen = rng.sample(keys, rng.randint(0, len(keys)))
        yield cls(rank, {k: random_coeff(rng) | (cls is SymWedge
                                                 and k[0] == k[1])
                         for k in chosen})


def dense_transform(value, t):
    """value moved by the matrix t, expanding each key's factors through
    t with the dense wedge loops; S^2 keys go through the full tensor
    square of Lambda^2, in which (p, q) stands for p (x) q + q (x) p and
    (p, p) for p (x) p."""
    width = len(t)

    def image(pair):
        i, j = pair
        return dense_wedge2(KElement([row[i] for row in t]),
                            KElement([row[j] for row in t])).coeffs

    out: Counter = Counter()
    if isinstance(value, SymWedge):
        full: Counter = Counter()
        for (p, q), c in value.coeffs.items():
            full[(p, q)] += c
            if p != q:
                full[(q, p)] += c
        for (p, q), c in full.items():
            for a, x in image(p).items():
                for b, y in image(q).items():
                    out[(a, b)] += c * x * y
        assert all(out[(a, b)] == out[(b, a)] for a, b in list(out))
        return SymWedge(width, {(a, b): c for (a, b), c in out.items()
                                if a <= b})
    for key, c in value.coeffs.items():
        cols = [KElement([row[i] for row in t]) for i in key]
        wedge = dense_wedge2 if len(key) == 2 else dense_wedge3
        for k, x in wedge(*cols).coeffs.items():
            out[k] += c * x
    return type(value)(width, out)


class TestSparseWedges:
    def test_equal_to_dense_loops_with_key_order(self):
        rng = random.Random(606)
        cases = 0
        for rank in range(1, 13):
            for _ in range(5):
                for x, y, z in oracle_cases(rng, rank):
                    for got, want in ((wedge2(x, y), dense_wedge2(x, y)),
                                      (wedge3(x, y, z),
                                       dense_wedge3(x, y, z))):
                        assert got.rank == want.rank == rank
                        assert (list(got.coeffs.items())
                                == list(want.coeffs.items()))
                    cases += 1
        assert cases == 12 * 5 * 6


def support(v: KElement) -> Tuple[int, ...]:
    """The nonzero positions of v, read off its coordinates."""
    return tuple(i for i, x in enumerate(v.coords) if x)


def seeded_values(rng, rank):
    """A zero, a sparse and a dense value of rank ``rank``, each twice:
    fresh, and as a copy whose support an earlier read has kept."""
    for kind in ("zero", "sparse", "dense"):
        coords = [0] * rank
        if kind != "zero":
            k = rank if kind == "dense" else rng.randint(1, min(3, rank))
            for i in rng.sample(range(rank), k):
                coords[i] = random_coeff(rng)
        kept = KElement(coords)
        assert kept._nonzero() == support(kept)
        yield KElement(coords)
        yield kept


KEPT_RANKS = (1, 2, 6, 32, 64)


class TestKeptSupport:
    @pytest.mark.parametrize("rank", KEPT_RANKS)
    def test_kernels_equal_dense_oracles(self, rank):
        rng = random.Random(900 + rank)
        pool = list(seeded_values(rng, rank))
        # the all-triples oracle is slow at rank 64: fewer triples there
        triples = [rng.sample(pool, 3) for _ in range(8 if rank > 32 else 40)]
        triples += [[pool[0]] * 3, [pool[5], pool[4], pool[1]]]
        for x, y, z in triples:
            sign = rng.choice((1, -1))
            for got, want in ((wedge2(x, y), dense_wedge2(x, y)),
                              (wedge3(x, y, z), dense_wedge3(x, y, z))):
                assert list(got.coeffs.items()) == list(want.coeffs.items())
            # the kernels add into what the dict already holds; below
            # rank 3 Lambda^3 has no key to start from
            seed3 = {(0, 1, 2): 7} if rank >= 3 else {}
            out2, out3 = dict(dense_wedge2(z, y).coeffs), dict(seed3)
            _add_wedge2(out2, sign, x, y)
            _add_wedge3(out3, sign, x, y, z)
            assert (Wedge2(rank, out2)
                    == dense_wedge2(z, y) + sign * dense_wedge2(x, y))
            assert (Wedge3(rank, out3) == Wedge3(rank, seed3)
                    + sign * dense_wedge3(x, y, z))
        for v in pool:
            assert v._nz == support(v)

    @pytest.mark.parametrize("rank", KEPT_RANKS)
    def test_transform_equals_dense_oracle(self, rank):
        rng = random.Random(950 + rank)
        t = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rank)]
             for _ in range(min(rank, 6))]
        x, y, z = rng.sample(list(seeded_values(rng, rank)), 3)
        for value in (wedge2(x, y), wedge3(x, y, z)):
            assert value.transform(t) == dense_transform(value, t)

    def test_slot_is_not_part_of_equality_or_hash(self):
        coords = (0, 3, 0, -2 ** 70)
        fresh, read = KElement(coords), KElement(coords)
        read._nonzero()
        given = KElement._of(coords, (1, 3))
        assert fresh._nz is None and read._nz == given._nz == (1, 3)
        assert fresh == read == given
        assert hash(fresh) == hash(read) == hash(given) == hash(coords)
        assert len({fresh, read, given}) == 1
        assert -read == KElement((0, -3, 0, 2 ** 70))
        assert (-read)._nz == (1, 3)


class TestExactScaling:
    def test_numpy_integer_scale_does_not_wrap(self):
        np = pytest.importorskip("numpy")
        assert (KElement((2 ** 62, 1)) * np.int64(4)
                == KElement((2 ** 64, 4)))
        assert (Wedge3(3, {(0, 1, 2): 2 ** 62}) * np.int64(4)
                == Wedge3(3, {(0, 1, 2): 2 ** 64}))

    def test_numpy_integer_transform_does_not_wrap(self):
        np = pytest.importorskip("numpy")
        matrix = [[np.int64(4), np.int64(0)], [np.int64(0), np.int64(1)]]
        moved = KElement((2 ** 62, 1)).transform(matrix)
        assert moved == KElement((2 ** 64, 1))
        assert all(type(c) is int for c in moved.coords)
        assert (Wedge2(2, {(0, 1): 2 ** 62}).transform(matrix)
                == Wedge2(2, {(0, 1): 2 ** 64}))

    def test_numpy_integer_marking_transform_does_not_wrap(self):
        np = pytest.importorskip("numpy")
        marking = Marking(2, {oe(1, 1): KElement((2 ** 62, 1)),
                              oe(2, -1): KElement((1, -2 ** 62))})
        moved = marking.transform(np.array([[4, 0], [0, 1]], dtype=np.int64))
        assert moved.values == {1: KElement((2 ** 64, 1)),
                                2: KElement((-4, 2 ** 62))}

    def test_arithmetic_results_hold_python_ints(self):
        np = pytest.importorskip("numpy")
        x = KElement(np.array([3, -2 ** 40, 0, 7], dtype=np.int64))
        y = KElement((2 ** 80, 1, -1, 0))
        results = [x + y, x - y, -x, x * np.int64(3), np.int64(2) * y,
                   x * 5, 5 * y, x * True, KElement.zero(4) + x]
        for v in results:
            assert all(type(c) is int for c in v.coords), v
        assert (x * np.int64(3)).coords == (9, -3 * 2 ** 40, 0, 21)


class TestIntegersOnly:
    # a value that is not an integer is refused, never truncated or parsed
    @pytest.mark.parametrize("build", [
        lambda: KElement([1.7, -0.5]),
        lambda: KElement([Fraction(7, 2), 1]),
        lambda: KElement(["3", 4]),
        lambda: Wedge3(3, {(0, 1, 2): 2.9}),
        lambda: Wedge2(2, {(0, 1): Fraction(2, 1)}),
        lambda: SymWedge(2.0, {}),
        lambda: Marking(2.0, {}),
        lambda: SymplecticForm([[0, 1.9], [-1.2, 0]]),
        lambda: SymplecticForm([[0, 1.0], [-1.0, 0]]),
    ], ids=["float-coords", "fraction-coords", "string-coords",
            "float-coefficient", "fraction-coefficient", "float-rank",
            "float-marking-rank", "float-form", "integral-float-form"])
    def test_non_integers_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_zero_filter_follows_the_check(self):
        # a float zero is refused too, not dropped as a zero coefficient
        with pytest.raises(TypeError):
            Wedge3(3, {(0, 1, 2): 0.0})
        assert Wedge3(4, {(0, 1, 2): 0, (0, 1, 3): True}).coeffs == {
            (0, 1, 3): 1}


class TestMalformedKeys:
    # a key out of order, out of range, of the wrong length or of bools
    # was stored as given, then read as another key or not read at all
    @pytest.mark.parametrize("cls, rank, key", [
        (Wedge2, 2, (1, 0)),
        (Wedge2, 2, (0, 0)),
        (Wedge2, 2, (False, True)),
        (Wedge2, 2, 1),
        (Wedge3, 3, (2, 1, 0)),
        (Wedge3, 3, (0, 1, 7)),
        (Wedge3, 3, (-1, 0, 1)),
        (Wedge3, 3, (0, 1)),
        (SymWedge, 3, ((1, 2), (0, 1))),
        (SymWedge, 3, ((0, 1), (1, 0))),
        (SymWedge, 3, ((0, 1), 2)),
        (SymWedge, 3, (0, 1)),
    ])
    def test_constructor_refuses_and_names_the_key(self, cls, rank, key):
        message = r"%s is not a %s key at rank %d" % (
            re.escape(repr(key)), cls.__name__, rank)
        for c in (1, 0):  # a zero coefficient does not hide the key
            with pytest.raises(ValueError, match=message):
                cls(rank, {key: c})

    def test_internal_values_skip_the_check(self, monkeypatch):
        # path sums, arithmetic, products and transforms build on keys
        # valid by construction, so they pass with the check made to fail
        graph = standard_surface_graph(2)
        marking, _ = canonical_h_marking(graph)
        f, g = adjacent_flippable_pairs(graph)[0]
        (_, j, s), _ = path_sums(random_flip_path(graph, 12, random.Random(1)),
                                 marking)
        assert not j.is_zero() and not s.is_zero()

        def refuse(self, key):
            raise AssertionError("key check reached for %r" % (key,))

        monkeypatch.setattr(_SparseTensor, "_is_key", refuse)
        monkeypatch.setattr(SymWedge, "_is_key", refuse)
        sums, _ = path_sums(pentagon_path(graph, f, g), marking)
        assert all(v.is_zero() for v in sums)
        t = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        for v in (j, s, wedge2(e(0), e(2)), wedge3(e(0), e(1), e(2)),
                  sym_pair(wedge2(e(0), e(1)), wedge2(e(2), e(3)))):
            assert (v + v).transform(t) == v.transform(t) * 2
            assert -v - v == v * -2 and (v - v).is_zero()
