"""Exact arithmetic in a free abelian group Z^r and its derived groups.

Values live over a fixed basis e1, ..., er of K = Z^r.  Besides plain
vectors this module provides the wedge squares/cubes Lambda^2 K,
Lambda^3 K and the symmetric square S^2 Lambda^2 K, all with sparse
integer coefficients in a canonical normal form, so that equality is
exact coordinatewise comparison.  Plain Python integers are used
throughout; there is no overflow to worry about.

All values are immutable after construction.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from . import intlinalg


class RankMismatchError(ValueError):
    """Operands live over bases of different ranks."""


def _common_rank(*items) -> int:
    ranks = {x.rank for x in items}
    if len(ranks) != 1:
        raise RankMismatchError("mixed ranks: %s" % sorted(ranks))
    return ranks.pop()


class KElement:
    """Element of Z^r as a dense tuple of integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        self.coords = tuple(int(c) for c in coords)
        if not self.coords:
            raise ValueError("rank must be at least 1")

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
        return all(c == 0 for c in self.coords)

    def transform(self, matrix: Sequence[Sequence[int]]) -> "KElement":
        """Apply the linear map given by an integer matrix."""
        return KElement(intlinalg.mat_vec(matrix, self.coords))

    def __add__(self, other: "KElement") -> "KElement":
        _common_rank(self, other)
        return KElement(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "KElement") -> "KElement":
        _common_rank(self, other)
        return KElement(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "KElement":
        return KElement(-a for a in self.coords)

    def __mul__(self, n: int) -> "KElement":
        return KElement(n * a for a in self.coords)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, KElement) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return "KElement(%r)" % (self.coords,)


class _SparseTensor:
    """Shared machinery for the sparse wedge/symmetric values.

    Subclasses fix the key domain; keys with coefficient 0 are never
    stored, which makes coefficient dictionaries canonical.
    """

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Mapping):
        self.rank = int(rank)
        self.coeffs = {k: int(c) for k, c in coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def _binop(self, other, sign):
        if type(self) is not type(other):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        _common_rank(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + sign * c
        return type(self)(self.rank, out)

    def __add__(self, other):
        return self._binop(other, +1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return type(self)(self.rank, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, n: int):
        return type(self)(self.rank, {k: n * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.rank == other.rank
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.rank,
                     tuple(sorted(self.coeffs.items()))))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            parts.append("%s%d*%s" % ("+" if c > 0 else "-", abs(c),
                                      self._key_str(key)))
        return " ".join(parts)

    def __repr__(self) -> str:
        return "%s(%d, %r)" % (type(self).__name__, self.rank, self.coeffs)

    def _key_str(self, key) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


def _wedge_key_str(key: Tuple[int, ...]) -> str:
    return "^".join("e%d" % (i + 1) for i in key)


class Wedge2(_SparseTensor):
    """Element of Lambda^2 Z^r; keys are ordered pairs (i, j) with i < j."""

    __slots__ = ()

    @classmethod
    def zero(cls, rank: int) -> "Wedge2":
        return cls(rank, {})

    def _key_str(self, key) -> str:
        return _wedge_key_str(key)

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Wedge2":
        """Apply Lambda^2 of the linear map given by an integer matrix."""
        cols = _matrix_columns(matrix, self.rank)
        out = Wedge2.zero(len(matrix))
        for (i, j), c in self.coeffs.items():
            out = out + c * wedge2(cols[i], cols[j])
        return out


class Wedge3(_SparseTensor):
    """Element of Lambda^3 Z^r; keys are ordered triples (i, j, k)."""

    __slots__ = ()

    @classmethod
    def zero(cls, rank: int) -> "Wedge3":
        return cls(rank, {})

    def _key_str(self, key) -> str:
        return _wedge_key_str(key)

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Wedge3":
        cols = _matrix_columns(matrix, self.rank)
        out = Wedge3.zero(len(matrix))
        for (i, j, k), c in self.coeffs.items():
            out = out + c * wedge3(cols[i], cols[j], cols[k])
        return out


class SymWedge(_SparseTensor):
    """Element of S^2 Lambda^2 Z^r.

    Keys are pairs (p, q) of Wedge2 keys with p <= q.  A key (p, q) with
    p < q stands for the symmetric tensor p (x) q + q (x) p, while the
    diagonal key (p, p) stands for p (x) p; the expansion of
    sym_pair(x, y) therefore carries coefficient 2 on diagonal keys when
    the same basis term appears on both sides.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, rank: int) -> "SymWedge":
        return cls(rank, {})

    def _key_str(self, key) -> str:
        p, q = key
        return "(%s)*(%s)" % (_wedge_key_str(p), _wedge_key_str(q))

    def transform(self, matrix: Sequence[Sequence[int]]) -> "SymWedge":
        cols = _matrix_columns(matrix, self.rank)
        out = SymWedge.zero(len(matrix))
        for (p, q), c in self.coeffs.items():
            wp = wedge2(cols[p[0]], cols[p[1]])
            wq = wedge2(cols[q[0]], cols[q[1]])
            if p == q:
                out = out + c * _sym_square(wp)
            else:
                out = out + c * sym_pair(wp, wq)
        return out


def _matrix_columns(matrix: Sequence[Sequence[int]], rank: int):
    rows = len(matrix)
    if any(len(row) != rank for row in matrix):
        raise RankMismatchError("matrix has %d columns, value has rank %d"
                                % (len(matrix[0]), rank))
    return [KElement(tuple(matrix[r][c] for r in range(rows)))
            for c in range(rank)]


def wedge2(x: KElement, y: KElement) -> Wedge2:
    """The wedge product x ^ y, bilinear and antisymmetric."""
    r = _common_rank(x, y)
    coeffs: Dict[Tuple[int, int], int] = {}
    for i, j in combinations(range(r), 2):
        c = x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]
        if c:
            coeffs[(i, j)] = c
    return Wedge2(r, coeffs)


def wedge3(x: KElement, y: KElement, z: KElement) -> Wedge3:
    """The wedge product x ^ y ^ z, trilinear and alternating."""
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


def sym_pair(u: Wedge2, v: Wedge2) -> SymWedge:
    """The symmetrized tensor u (x) v + v (x) u in S^2 Lambda^2."""
    r = _common_rank(u, v)
    coeffs: Dict[tuple, int] = {}
    for p, a in u.coeffs.items():
        for q, b in v.coeffs.items():
            key = (p, q) if p <= q else (q, p)
            c = a * b if p != q else 2 * a * b
            coeffs[key] = coeffs.get(key, 0) + c
    return SymWedge(r, coeffs)


def _sym_square(w: Wedge2) -> SymWedge:
    """The plain square w (x) w (i.e. sym_pair(w, w) / 2)."""
    coeffs: Dict[tuple, int] = {}
    items = sorted(w.coeffs.items())
    for idx, (p, a) in enumerate(items):
        coeffs[(p, p)] = coeffs.get((p, p), 0) + a * a
        for q, b in items[idx + 1:]:
            coeffs[(p, q)] = coeffs.get((p, q), 0) + a * b
    return SymWedge(w.rank, coeffs)
