"""Exact arithmetic in a free abelian group Z^r and its derived groups.

Values live over a fixed basis e1, ..., er of K = Z^r.  Besides plain
vectors this module provides the wedge squares/cubes Lambda^2 K,
Lambda^3 K and the symmetric square S^2 Lambda^2 K, all with sparse
integer coefficients in a canonical normal form, so that equality is
exact coordinatewise comparison.  Plain Python integers are used
throughout; there is no overflow to worry about.

A vector finds its support, its nonzero positions, once and keeps it.
The wedge products iterate over the union of the supports of their
arguments: a minor that uses any other row has a zero row, so its
determinant vanishes; they cost the nonzeros, not the rank.  Each is an
``_add_*`` kernel that adds sign * product to a coefficient dict; the
flip-path sums of ``cocycles`` and ``transform`` call them directly.

All values are immutable after construction; non-integers raise TypeError.
"""

from __future__ import annotations

import operator
from itertools import combinations, compress, filterfalse
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


class RankMismatchError(ValueError):
    """Operands live over bases of different ranks."""


def _rank_mismatch(*items) -> RankMismatchError:
    return RankMismatchError("mixed ranks: %s"
                             % sorted({x.rank for x in items}))


def _common_rank(*items) -> int:
    ranks = {x.rank for x in items}
    if len(ranks) != 1:
        raise _rank_mismatch(*items)
    return ranks.pop()


class KElement:
    """Element of Z^r as a dense tuple of integer coordinates."""

    __slots__ = ("coords", "_nz")  # _nz: the support once found, or None

    def __init__(self, coords: Iterable[int]):
        self.coords = tuple(map(operator.index, coords))
        if not self.coords:
            raise ValueError("rank must be at least 1")
        self._nz = None

    @classmethod
    def _of(cls, coords: Tuple[int, ...], nz=None) -> "KElement":
        """Wrap a nonempty tuple of Python ints without copying or checking;
        ``nz`` is its support, if the caller knows it."""
        k = cls.__new__(cls)
        k.coords, k._nz = coords, nz
        return k

    def _nonzero(self) -> Tuple[int, ...]:
        """The ascending nonzero positions, found once and kept."""
        if self._nz is None:
            self._nz = tuple(compress(range(len(self.coords)), self.coords))
        return self._nz

    @classmethod
    def zero(cls, rank: int) -> "KElement":
        return cls((0,) * rank)

    @classmethod
    def basis(cls, rank: int, i: int) -> "KElement":
        """The basis vector e_{i+1} (index ``i`` is 0-based)."""
        if not 0 <= i < rank:
            raise ValueError("basis index out of range")
        return cls(tuple(1 if k == i else 0 for k in range(rank)))

    @classmethod
    def from_text(cls, text: str) -> "KElement":
        """Parse the textual form, e.g. ``1 0 -2 0``."""
        return cls(int(tok) for tok in text.split())

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def transform(self, matrix: Sequence[Sequence[int]]) -> "KElement":
        """Apply the linear map given by an integer matrix."""
        return self._apply(_sparse_columns(matrix, self.rank), len(matrix))

    def _apply(self, cols: Sequence[list], width: int) -> "KElement":
        """The sum of c * cols[i] in Z^width over the nonzero c in self."""
        acc = [0] * width
        for c, col in compress(zip(self.coords, cols), self.coords):
            for i, x in col:
                acc[i] += c * x
        return KElement._of(tuple(acc))

    def _coords_like(self, other) -> Tuple[int, ...]:
        """The coordinates of ``other``, a KElement of the same rank."""
        if not isinstance(other, KElement):
            raise TypeError("cannot combine KElement with %s"
                            % type(other).__name__)
        if len(other.coords) != len(self.coords):
            raise _rank_mismatch(self, other)
        return other.coords

    def __add__(self, other: "KElement") -> "KElement":
        return KElement._of(tuple(map(operator.add, self.coords,
                                      self._coords_like(other))))

    def __sub__(self, other: "KElement") -> "KElement":
        return KElement._of(tuple(map(operator.sub, self.coords,
                                      self._coords_like(other))))

    def __neg__(self) -> "KElement":
        return KElement._of(tuple(map(operator.neg, self.coords)), self._nz)

    def __mul__(self, n: int) -> "KElement":
        # index() first: a fixed-width integer such as numpy.int64 would
        # wrap in n * a before the product reached Python ints
        n = operator.index(n)
        return KElement._of(tuple([n * a for a in self.coords]))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, KElement) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return "KElement(%r)" % (self.coords,)


def _columns(matrix: Sequence[Sequence[int]],
             rank: int) -> List[Tuple[int, ...]]:
    """The columns of a matrix, with ``rank`` columns and a row or more,
    as Python ints: index() first, as numpy.int64 would wrap in a product."""
    for i, row in enumerate(matrix):
        if len(row) != rank:
            raise RankMismatchError("matrix row %d has %d columns, value has "
                                    "rank %d" % (i, len(row), rank))
    if rank and not len(matrix):
        raise ValueError("rank must be at least 1")
    return list(zip(*[map(operator.index, row) for row in matrix]))


def _sparse_columns(matrix: Sequence[Sequence[int]], rank: int) -> list:
    """The nonzero (row, entry) pairs of each column of :func:`_columns`."""
    return [list(compress(enumerate(c), c)) for c in _columns(matrix, rank)]


class _SparseTensor:
    """Shared machinery for the sparse wedge/symmetric values.

    Subclasses fix the key domain, which the constructor checks and
    ``_of`` does not, and give ``_add_term(out, c, key, cols)``, which
    adds c times the image of one basis key under the linear map whose
    columns are the KElements ``cols``; keys with coefficient 0 are
    never stored, which makes coefficient dictionaries canonical.
    """

    __slots__ = ("rank", "coeffs")
    _width = 2  # a key is an increasing _width-tuple of ints in range(rank)

    def __init__(self, rank: int, coeffs: Mapping):
        self.rank = operator.index(rank)
        self.coeffs = {k: c for k, x in coeffs.items()
                       if (c := operator.index(x))}
        for key in filterfalse(self._is_key, coeffs):  # the first bad key
            raise ValueError("%r is not a %s key at rank %d"
                             % (key, type(self).__name__, self.rank))

    @classmethod
    def _of(cls, rank: int, coeffs: Mapping):  # unchecked; drops zeros
        t = cls.__new__(cls)
        t.rank, t.coeffs = rank, {k: c for k, c in coeffs.items() if c}
        return t

    def _is_key(self, key) -> bool:  # bools are no ints, as in _code
        return (type(key) is tuple and len(key) == self._width
                and all(type(i) is int for i in key) and key[-1] < self.rank
                and 0 <= key[0] and all(map(operator.lt, key, key[1:])))

    @classmethod
    def zero(cls, rank: int):
        return cls(rank, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def transform(self, matrix: Sequence[Sequence[int]]):
        """Apply the functor of the linear map given by an integer matrix."""
        cols = [KElement._of(c) for c in _columns(matrix, self.rank)]
        out: Dict[tuple, int] = {}
        for key, c in self.coeffs.items():
            self._add_term(out, c, key, cols)
        return self._of(len(matrix), out)

    def _binop(self, other, sign):
        if type(self) is not type(other):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        _common_rank(self, other)
        out = dict(self.coeffs)
        for key, x in other.coeffs.items():
            out[key] = out.get(key, 0) + sign * x
        return self._of(self.rank, out)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self._of(self.rank, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, n: int):
        n = operator.index(n)  # as in KElement.__mul__
        return self._of(self.rank, {k: n * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.rank == other.rank
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.rank,
                     tuple(sorted(self.coeffs.items()))))

    def __str__(self) -> str:
        return " ".join("%+d*%s" % (c, self._key_str(key))
                        for key, c in sorted(self.coeffs.items())) or "0"

    def __repr__(self) -> str:
        return "%s(%d, %r)" % (type(self).__name__, self.rank, self.coeffs)

    def _key_str(self, key) -> str:
        return "^".join("e%d" % (i + 1) for i in key)


class Wedge2(_SparseTensor):
    """Element of Lambda^2 Z^r; keys are ordered pairs (i, j) with i < j."""

    __slots__ = ()

    def _add_term(self, out, c, key, cols) -> None:
        _add_wedge2(out, c, *[cols[i] for i in key])


class Wedge3(_SparseTensor):
    """Element of Lambda^3 Z^r; keys are ordered triples (i, j, k)."""

    __slots__ = ()
    _width = 3

    def _add_term(self, out, c, key, cols) -> None:
        _add_wedge3(out, c, *[cols[i] for i in key])


class SymWedge(_SparseTensor):
    """Element of S^2 Lambda^2 Z^r.

    Keys are pairs (p, q) of Wedge2 keys with p <= q.  A key (p, q) with
    p < q stands for the symmetric tensor p (x) q + q (x) p, while the
    diagonal key (p, p) stands for p (x) p; the expansion of
    sym_pair(x, y) therefore carries coefficient 2 on diagonal keys when
    the same basis term appears on both sides.
    """

    __slots__ = ()

    def _is_key(self, key) -> bool:
        return (type(key) is tuple and len(key) == 2
                and all(map(super()._is_key, key)) and key[0] <= key[1])

    def _key_str(self, key) -> str:
        return "(%s)*(%s)" % tuple(map(super()._key_str, key))

    def _add_term(self, out, c, key, cols) -> None:
        u, v = {}, {}
        _add_wedge2(u, 1, *[cols[i] for i in key[0]])
        if key[0] != key[1]:
            _add_wedge2(v, 1, *[cols[i] for i in key[1]])
            _add_sym(out, c, u, v)
            return
        # w (x) w is half of sym_pair(w, w), which v takes: its
        # coefficients 2ab on (p, q) and 2a^2 on (p, p) are all even
        _add_sym(v, c, u, u)
        for k, x in v.items():
            out[k] = out.get(k, 0) + x // 2


def _add_wedge2(out: Dict[tuple, int], sign: int, u: KElement,
                v: KElement) -> None:
    """Add sign * u ^ v to ``out``, over the union of the supports."""
    x, y = u.coords, v.coords
    for i, j in combinations(sorted({*u._nonzero(), *v._nonzero()}), 2):
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out[(i, j)] = out.get((i, j), 0) + sign * c


def _add_wedge3(out: Dict[tuple, int], sign: int, u: KElement, v: KElement,
                w: KElement) -> None:
    """Add sign * u ^ v ^ w to ``out``, over the union of the supports."""
    x, y, z = u.coords, v.coords, w.coords
    for i, j, k in combinations(sorted({*u._nonzero(), *v._nonzero(),
                                        *w._nonzero()}), 3):
        # 3x3 determinant of the (i, j, k) minor of the column matrix [x y z]
        xi, xj, xk = x[i], x[j], x[k]
        yi, yj, yk = y[i], y[j], y[k]
        zi, zj, zk = z[i], z[j], z[k]
        c = (xi * (yj * zk - yk * zj)
             - yi * (xj * zk - xk * zj)
             + zi * (xj * yk - xk * yj))
        if c:
            out[(i, j, k)] = out.get((i, j, k), 0) + sign * c


def _add_sym(out: Dict[tuple, int], sign: int, u: Mapping[tuple, int],
             v: Mapping[tuple, int]) -> None:
    """Add sign * (u (x) v + v (x) u), for the coefficient dicts of two
    Lambda^2 values, to ``out``."""
    for p, a in u.items():
        a *= sign
        for q, b in v.items():
            key = (p, q) if p <= q else (q, p)
            c = a * b if p != q else 2 * a * b
            out[key] = out.get(key, 0) + c


def wedge2(x: KElement, y: KElement) -> Wedge2:
    """The wedge product x ^ y, bilinear and antisymmetric."""
    r, out = _common_rank(x, y), {}
    _add_wedge2(out, 1, x, y)
    return Wedge2._of(r, out)


def wedge3(x: KElement, y: KElement, z: KElement) -> Wedge3:
    """The wedge product x ^ y ^ z, trilinear and alternating."""
    r, out = _common_rank(x, y, z), {}
    _add_wedge3(out, 1, x, y, z)
    return Wedge3._of(r, out)


def sym_pair(u: Wedge2, v: Wedge2) -> SymWedge:
    """The symmetrized tensor u (x) v + v (x) u in S^2 Lambda^2."""
    r, out = _common_rank(u, v), {}
    _add_sym(out, 1, u.coeffs, v.coeffs)
    return SymWedge._of(r, out)
